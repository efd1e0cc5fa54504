"""Inverse mean curvature flow laboratory for asymptotically hyperbolic backgrounds.

Star-shaped surfaces evolve as radial graphs with outward normal speed 1/H in
rotationally symmetric ambient metrics dr^2 + lambda(r)^2 sigma.  The package
computes the Hawking-mass monotonicity diagnostics along the flow, assembles
product metrics on Sigma x [0, T], measures their L^2 distances, and runs
epsilon-sweep experiments that exhibit the stability of the positive-mass and
Penrose rigidity statements numerically.
"""

from .ambient import (
    AdSSProfile,
    AmbientProfile,
    HyperbolicProfile,
    MassAspectProfile,
    ProfileReport,
    TabulatedProfile,
    horizon_radius,
    validate_profile,
)
from .comparison import (
    ProductMetricGrid,
    assemble,
    c_alpha_distance_to_round,
    distance_chain,
    gauss_deviation,
    l2_distance,
    model_mean_curvature_sq,
)
from .harness import (
    ClassReport,
    CompatReport,
    DeclaredBounds,
    ReportTable,
    check_class_membership,
    check_coordinate_compatibility,
    emit,
    run_sequence,
    w12_normal_ricci,
)
from .imcf import FlowSeries, FlowTrack, exact_round_flow, record, run, step
from .mass import (
    GerochResiduals,
    PinchReport,
    ProbeField,
    diagnostics,
    geroch_identity_residual,
    hawking_mass,
    mass_at_infinity,
    pinch_bounds_check,
    weak_ricci_pairing,
)
from .scenario import Scenario, ScenarioRow, load_scenario, scenario_from_dict
from .sphere_grid import SphereGrid, get_grid
from .surface import (
    GraphSurface,
    SpeedGeometry,
    SurfaceGeometry,
    euler_characteristic,
    geometry,
    integrate,
    intrinsic_diameter,
    make_graph,
    make_round,
    speed_geometry,
)

__version__ = "0.1.0"
