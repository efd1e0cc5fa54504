"""The streamed checks read a meridian flow on its own grid: every snapshot,
the start included, is the (n_theta, 1) column.  They are tested here against
the same checks fed each snapshot lifted to the scenario's grid, as the flow
handed them over before the checks read the column.  The pinching counts are
of the (node, time) pairs of the grid a check is fed, so a column's are
1/n_phi of its lift's."""

import numpy as np
import pytest

from imcf_lab import harness, imcf, surface
from imcf_lab.comparison import CHAIN_KEYS, ChainAccumulator
from imcf_lab.errors import GeometryError
from imcf_lab.harness import CompatAccumulator, SampleAccumulator, run_row
from imcf_lab.mass import PinchAccumulator, pinch_bounds_check
from imcf_lab.scenario import scenario_from_dict
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import geometry, intrinsic_diameter, make_graph

from .test_s_form import PROFILES

T, DT = 0.02, 1e-3
REL = 1e-12
# Absolute floor for a value whose round-off is set by a larger scale than
# the value itself, at least seven times the largest gap seen here: g2_g3
# compares the mean-curvature lapse with the model's, which agree to 1e-8 on
# this short flow, so the distance is 2.4e-15 and its gap 5.2e-24.
FLOORS = {"g2_g3": 1e-22}


def _lifted(observe, grid):
    """``observe`` fed each snapshot on ``grid``: a meridian geometry lifted
    by ``imcf._on_grid`` and its pinch integrals broadcast to the grid."""

    def seen(j, t, geom, P1, P2):
        if geom.grid is not grid:
            geom = imcf._on_grid(geom, grid)
            P1, P2 = (np.broadcast_to(P, grid.shape) for P in (P1, P2))
        observe(j, t, geom, P1, P2)

    return seen


def _checks(snap_times, m, grid):
    """The accumulators of a sweep row, as ``run_row`` builds them."""
    diameters = {}
    snap_of = {t: int(np.argmin(np.abs(snap_times - t))) for t in np.linspace(0.0, T, 5)}
    return {
        "compat": CompatAccumulator(snap_times, T, T / 2, T, grid, diameters=diameters),
        "pinch": PinchAccumulator(snap_times),
        "chain": ChainAccumulator(snap_times, m=m),
        "samples": SampleAccumulator(snap_of, grid, diameters),
    }


def _results(accs, series):
    compat = accs["compat"].result(series)
    pinch = accs["pinch"].result()
    c_alpha, gauss, diam = accs["samples"].result()
    return {
        "c_alpha": c_alpha,
        "diam": [*compat.diam_values, *diam.values()],
        "counts": (pinch.n_lower, pinch.n_upper),
        "close": {
            "w12_ricci": compat.w12_ricci,
            "worst_lower": pinch.worst_lower,
            "worst_upper": pinch.worst_upper,
            **{f"gauss_dev({t:g})": v for t, v in gauss.items()},
            **accs["chain"].result(),
        },
    }


@pytest.mark.parametrize("nt,nph", [(16, 32), (64, 128)])
@pytest.mark.parametrize("formula", ["round", "ellipsoid"])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_column_fed_checks_match_the_lift_fed_checks(kind, formula, nt, nph):
    profile, s0 = PROFILES[kind]()
    grid = get_grid(nt, nph)
    surf0 = make_graph(profile, grid, float(profile.radius_from_area_radius(s0)), formula, 0.05)
    times, snap = imcf.time_grid(T, DT)
    m = profile.m if kind == "adss" else 0.0
    column, lift = _checks(times[snap], m, grid), _checks(times[snap], m, grid)
    observers = [acc.observe for acc in column.values()]
    observers += [_lifted(acc.observe, grid) for acc in lift.values()]
    track = imcf.run(profile, surf0, T=T, dt=DT, observers=observers)

    got, ref = _results(column, track.series), _results(lift, track.series)
    assert got["c_alpha"] == ref["c_alpha"]
    assert got["diam"] == ref["diam"]
    # the counts are of (node, time) pairs of the grid each check is fed:
    # a column node stands for the n_phi nodes of its ring
    assert tuple(nph * n for n in got["counts"]) == ref["counts"]
    assert set(CHAIN_KEYS) <= set(got["close"])
    for key, a in got["close"].items():
        b = ref["close"][key]
        gap = abs(a - b)
        assert gap <= max(REL * max(abs(a), abs(b)), FLOORS.get(key, 0.0)), (key, a, b)


def test_pinch_counts_are_of_the_flow_grids_nodes(hyperbolic):
    """An anisotropic row with violations counts the (node, time) pairs of
    its meridian flow: fed the column and replayed from its recorded track
    alike, and 1/n_phi of the pairs counted fed the lift to the scenario's
    grid."""
    grid = get_grid(16, 32)
    surf0 = make_graph(hyperbolic, grid, float(np.arcsinh(1.0)), "ellipsoid", 0.05)
    times, snap = imcf.time_grid(0.1, DT)
    column, lift = PinchAccumulator(times[snap]), PinchAccumulator(times[snap])
    track = imcf.record(
        hyperbolic, surf0, T=0.1, dt=DT, observers=[column.observe, _lifted(lift.observe, grid)]
    )
    got, ref, replayed = column.result(), lift.result(), pinch_bounds_check(track)
    assert got.n_lower > 0 and got.n_upper > 0
    assert (got.n_lower, got.n_upper) == (replayed.n_lower, replayed.n_upper)
    assert (grid.n_phi * got.n_lower, grid.n_phi * got.n_upper) == (ref.n_lower, ref.n_upper)
    for rep in (ref, replayed):
        assert got.worst_lower == pytest.approx(rep.worst_lower, rel=REL)
        assert got.worst_upper == pytest.approx(rep.worst_upper, rel=REL)


def test_a_meridian_row_lifts_nothing_and_computes_7_diameters(monkeypatch):
    """Besides the start's restriction to the meridian, ``run_row`` calls
    ``_on_grid`` not at all, and builds no full-grid lattice: it measures
    each distinct diameter snapshot's column, the start included, on the
    half lattice of the scenario's grid.  The t-samples {0, T/4, T/2, 3T/4,
    T} and the compat picks over [T/2, T] make 7 distinct snapshots."""
    doc = {"id": "lifts", "mode": "PMT", "profile": {"kind": "hyperbolic"},
           "surface": {"type": "ellipsoid", "area_radius": 1.0, "amplitude": 0.05},
           "T": 0.25, "dt": 2.5e-3, "grid": {"n_theta": 16, "n_phi": 32}}
    scn = scenario_from_dict(doc)
    row = scn.rows()[0]
    grid, real_on_grid, real_diameter = row.surface0.grid, imcf._on_grid, harness.intrinsic_diameter
    targets, measured = [], []

    def on_grid(geom, target):
        targets.append(target.n_phi)
        return real_on_grid(geom, target)

    def diameter(geom, lattice):
        measured.append((geom.grid.shape, lattice))
        return real_diameter(geom, lattice)

    def full_lattice(geom):
        raise AssertionError("a meridian row built the full lattice")

    monkeypatch.setattr(imcf, "_on_grid", on_grid)
    monkeypatch.setattr(harness, "intrinsic_diameter", diameter)
    monkeypatch.setattr(surface, "_lattice", full_lattice)
    result = run_row(scn, row)
    assert result.ok, result.error
    steps = set(result.sample_steps.values())
    steps |= {round(t / scn.dt) for t in result.compat_report.diam_times}
    assert len(steps) == 7 and 0 in steps
    assert targets == [1]
    assert measured == [((grid.n_theta, 1), grid)] * len(steps)


def test_the_diameter_refuses_a_meridian_column(hyperbolic):
    mer = get_grid(16, 1)
    surf = make_graph(hyperbolic, mer, float(np.arcsinh(1.0)), "ellipsoid", 0.05)
    with pytest.raises(GeometryError, match="2D grid"):
        intrinsic_diameter(geometry(hyperbolic, surf), mer)
