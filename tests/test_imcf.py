import numpy as np
import pytest

from imcf_lab import imcf
from imcf_lab.ambient import AdSSProfile
from imcf_lab.errors import DomainError, StabilityError
from imcf_lab.imcf import record, run
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import make_graph

from .oracles import exact_round_flow, make_round

RBAR = float(np.arcsinh(1.0))


def test_exact_round_flow_area_law(hyperbolic):
    # |Sigma_t| = |Sigma_0| e^t, i.e. s(t) = s0 e^{t/2}
    t = np.linspace(0.0, 2.0, 9)
    s, _ = exact_round_flow(hyperbolic, 1.0, t)
    assert np.max(np.abs(4 * np.pi * s**2 - 4 * np.pi * np.exp(t))) < 1e-12


def test_exact_round_flow_initial_mean_curvature(hyperbolic):
    # H = 2 sqrt(2) at s = 1: H^2 = 4/s^2 + 4 = 8
    _, H = exact_round_flow(hyperbolic, 1.0, 0.0)
    assert abs(float(H) - 2 * np.sqrt(2.0)) < 1e-12
    assert abs(float(H) ** 2 - 8.0) < 1e-11


def test_exact_round_flow_adss_mean_curvature(adss1):
    # H^2 - 4 = 4/s^2 - 8m/s^3 with s = s0 e^{t/2}
    t = np.array([0.0, 0.7, 1.4])
    s, H = exact_round_flow(adss1, 2.0, t)
    expected = 4.0 / s**2 - 8.0 / s**3
    assert np.max(np.abs(H**2 - 4.0 - expected)) < 1e-9


def test_exact_round_flow_domain_error(adss1):
    with pytest.raises(DomainError):
        exact_round_flow(adss1, 2.0, 10.0)


def test_step_preserves_rotational_symmetry(hyperbolic, grid32):
    surf = make_round(hyperbolic, RBAR, grid32)
    out = record(hyperbolic, surf, T=1e-3, dt=1e-3).snap_f[-1]
    assert np.ptp(out) < 1e-12


def test_step_matches_closed_form(hyperbolic, grid32):
    surf = make_round(hyperbolic, RBAR, grid32)
    out = record(hyperbolic, surf, T=1e-3, dt=1e-3).snap_f[-1]
    s_expected, _ = exact_round_flow(hyperbolic, 1.0, 1e-3)
    s_got = np.sinh(out)
    assert np.max(np.abs(s_got - s_expected)) < 1e-12


def test_run_area_law_round(hyp_round_track):
    tr = hyp_round_track
    rel = np.abs(tr.series.area / (4 * np.pi * np.exp(tr.times)) - 1.0)
    assert np.max(rel) < 1e-12


def test_run_rejects_nondividing_dt(hyperbolic, grid32):
    surf = make_round(hyperbolic, RBAR, grid32)
    with pytest.raises(ValueError, match="does not divide"):
        run(hyperbolic, surf, T=1.0, dt=3e-4)
    # an overflowing or NaN T/dt, and a whole T/dt below one step
    for T, dt in [(1e308, 1e-308), (2.0, float("nan")), (1e-12, 1.0)]:
        with pytest.raises(ValueError, match="does not divide"):
            imcf.time_grid(T, dt)


def test_monotone_expansion(hyp_round_track):
    f = hyp_round_track.snap_f
    assert np.all(np.diff(f, axis=0) > 0)


def test_monotone_expansion_ellipsoid(hyperbolic, grid32):
    surf = make_graph(hyperbolic, grid32, RBAR, "ellipsoid", 0.05)
    tr = record(hyperbolic, surf, T=0.2, dt=1e-3, snap_every=20)
    assert np.all(np.diff(tr.snap_f, axis=0) > 0)


def test_flow_rounds_out_pinch_integral(hyperbolic, grid32):
    """The pinching integral decays along the flow at both resolutions."""
    for grid in (grid32, get_grid(64, 128)):
        surf = make_graph(hyperbolic, grid, RBAR, "round", 0.05)
        tr = run(hyperbolic, surf, T=0.5, dt=1e-3)
        assert tr.series.I_pinch[-1] < 0.5 * tr.series.I_pinch[0]


def test_area_law_order_in_dt(hyperbolic, grid32):
    """On anisotropic data the area-law drift shrinks at order >= 1 in dt."""
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.1)
    drifts = []
    for dt in (4e-3, 2e-3):
        tr = run(hyperbolic, surf, T=0.4, dt=dt)
        drift = np.max(np.abs(tr.series.area / (tr.series.area[0] * np.exp(tr.times)) - 1))
        drifts.append(drift)
    assert drifts[1] < max(0.55 * drifts[0], 1e-12)


def test_rotational_symmetry_along_run(hyp_round_track):
    assert np.max(hyp_round_track.series.gradf_max) < 1e-12


def test_track_extrema_recorded(hyp_round_track):
    s = hyp_round_track.series
    # H decreases from 2 sqrt(2) toward 2 along the flow
    assert abs(np.max(s.h_max) - 2 * np.sqrt(2.0)) < 1e-9
    assert abs(np.min(s.h_min) - 2 * np.sqrt(np.exp(-0.5) + 1.0)) < 1e-9
    assert abs(hyp_round_track.r0 - 1.0) < 1e-12


def test_substep_budget_error(hyperbolic, grid32, monkeypatch):
    surf = make_round(hyperbolic, RBAR, grid32)
    monkeypatch.setattr(imcf, "MAX_SUBSTEPS", 0)
    with pytest.raises(StabilityError):
        run(hyperbolic, surf, T=0.01, dt=1e-3)


def test_error_carries_failing_time(hyperbolic, grid32, monkeypatch):
    surf = make_round(hyperbolic, RBAR, grid32)
    monkeypatch.setattr(imcf, "MAX_SUBSTEPS", 0)
    try:
        run(hyperbolic, surf, T=0.01, dt=1e-3)
    except StabilityError as exc:
        assert "t =" in str(exc)
    else:
        pytest.fail("expected StabilityError")


def test_near_horizon_start_substeps(adss1):
    """Flows started just outside the horizon substep automatically."""
    prof = AdSSProfile(1.0, s_domain=(1.0005, 4.0))
    grid = get_grid(16, 32)
    r0 = float(prof.radius_from_area_radius(1.001))
    tr = run(prof, make_round(prof, r0, grid), T=0.1, dt=1e-3)
    s_num = np.sqrt(tr.series.area / (4 * np.pi))
    assert np.max(np.abs(s_num / (1.001 * np.exp(0.5 * tr.times)) - 1)) < 1e-11


def test_snapshot_times_span_run(hyperbolic, grid32):
    surf = make_round(hyperbolic, RBAR, grid32)
    tr = record(hyperbolic, surf, T=0.1, dt=1e-3, snap_every=7)
    assert tr.snap_times[0] == 0.0
    assert tr.snap_times[-1] == pytest.approx(0.1)
    geom = tr.snapshot_geometry(0)
    assert abs(geom.area - 4 * np.pi) < 1e-12
