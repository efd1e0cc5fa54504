import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcf_lab.ambient import AdSSProfile, MassAspectProfile
from imcf_lab.errors import FitError
from imcf_lab.imcf import mean_curvature_average, record, run
from imcf_lab.mass import (
    diagnostics,
    geroch_identity_residual,
    mass_at_infinity,
    pinch_bounds_check,
)
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import geometry, make_graph

from .oracles import ProbeField, hawking_mass, make_round, weak_ricci_pairing

RBAR = float(np.arcsinh(1.0))


def test_hawking_mass_hyperbolic_round_is_zero(hyperbolic, grid64):
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    assert abs(hawking_mass(geom)) < 1e-12


@settings(max_examples=10, deadline=None)
@given(s=st.floats(1.0, 6.0))
def test_hawking_mass_adss_equals_m(s):
    prof = AdSSProfile(0.5, s_domain=(0.75, 10.0))
    grid = get_grid(16, 32)
    geom = geometry(prof, make_round(prof, float(prof.radius_from_area_radius(s)), grid))
    assert abs(hawking_mass(geom) - 0.5) < 1e-9


def test_hawking_mass_mass_aspect_tracks_profile():
    m_f = lambda x: 0.3 * np.tanh((x - 0.9) / 0.7)
    dm_f = lambda x: (0.3 / 0.7) / np.cosh((x - 0.9) / 0.7) ** 2
    prof = MassAspectProfile(m_f, dm_f, (0.95, 8.0))
    grid = get_grid(16, 32)
    for s in (1.2, 2.0, 4.0):
        geom = geometry(prof, make_round(prof, float(prof.radius_from_area_radius(s)), grid))
        assert abs(hawking_mass(geom) - float(m_f(s))) < 1e-9


def test_hawking_mass_negative_for_nonround_in_hyperbolic(hyperbolic, grid64):
    geom = geometry(hyperbolic, make_graph(hyperbolic, grid64, RBAR, "round", 0.05))
    assert hawking_mass(geom) < 0.0


def test_diagnostics_hyperbolic_round(hyp_round_track):
    d = diagnostics(hyp_round_track)
    for series in (d.I_gradH, d.I_pinch, d.I_R, d.I_Rc, d.I_K12):
        assert np.max(np.abs(series)) < 1e-10
    assert np.max(np.abs(d.I_H2 - 16 * np.pi)) < 1e-10
    assert np.max(np.abs(d.chi - 2.0)) < 1e-11
    assert np.max(np.abs(d.m_H)) < 1e-12


def test_diagnostics_adss_closed_forms(adss_round_track):
    """I_Rc -> -8 pi m / s and I_K12 -> +8 pi m / s on the AdSS round flow."""
    d = diagnostics(adss_round_track)
    s = 2.0 * np.exp(0.5 * d.times)
    assert np.max(np.abs(d.I_Rc + 8 * np.pi / s)) < 1e-8
    assert np.max(np.abs(d.I_K12 - 8 * np.pi / s)) < 1e-8
    assert np.max(np.abs(d.I_H2 - (16 * np.pi - 32 * np.pi / s))) < 1e-8
    assert np.max(np.abs(d.I_R)) < 1e-9
    assert np.max(np.abs(d.m_H - 1.0)) < 1e-12


def test_diagnostic_algebraic_relations(hyperbolic, grid32):
    """The integral identities relating the diagnostics hold at every step."""
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.08)
    tr = run(hyperbolic, surf, T=0.2, dt=2e-3)
    d = diagnostics(tr)
    tol = 1e-9
    assert np.max(np.abs(d.I_A2 - 0.5 * d.I_H2 - 0.5 * d.I_pinch)) < tol
    assert np.max(np.abs(d.I_prod - 0.5 * d.I_H2 + 0.5 * d.I_A2)) < tol
    assert np.max(np.abs(d.I_K12 - 0.5 * d.I_R + d.I_Rc)) < tol
    # Gauss equation integrated: 2 pi chi = I_prod + I_K12
    assert np.max(np.abs(2 * np.pi * d.chi - d.I_prod - d.I_K12)) < tol


def test_geroch_identity_residual_small_on_model_flows(adss_round_track):
    res = geroch_identity_residual(adss_round_track)
    assert np.max(res.identity) < 5e-6
    # monotonicity margin is 8 pi m / s > 0 on the AdSS round flow
    s = 2.0 * np.exp(0.5 * res.times)
    assert np.max(np.abs(res.margin - 16 * np.pi / s)) < 1e-4
    assert np.min(res.margin) > 0.0


def test_geroch_identity_residual_halves_with_dt(adss1, grid32):
    surf = make_round(adss1, float(adss1.radius_from_area_radius(2.0)), grid32)
    r = []
    for dt in (4e-3, 2e-3):
        tr = run(adss1, surf, T=0.4, dt=dt)
        r.append(np.max(geroch_identity_residual(tr).identity))
    assert r[1] < max(0.55 * r[0], 1e-12)


def test_geroch_slack_matches_euler_characteristic(hyperbolic, adss_round_track, grid32):
    """slack = 4 pi (2 - chi) identically; ~0 for sphere graphs."""
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    tr = run(hyperbolic, surf, T=0.1, dt=1e-3)
    for track in (tr, adss_round_track):
        res = geroch_identity_residual(track)
        assert np.max(np.abs(res.slack[1:-1])) < 1e-5


def test_geroch_margin_flags_negative_initial_mass(hyperbolic, grid32):
    # m_H(Sigma_0) < 0 voids the monotonicity hypothesis; margin goes negative
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    tr = run(hyperbolic, surf, T=0.1, dt=1e-3)
    res = geroch_identity_residual(tr)
    assert np.min(res.margin) < 0.0


def test_geroch_monotone_mass_never_decreases(hyperbolic, grid32):
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    tr = run(hyperbolic, surf, T=0.3, dt=1e-3)
    assert np.min(np.diff(tr.series.m_H)) > -1e-8


def test_weak_ricci_pairing_constant_test_function(hyp_round_track):
    """Closed form: both sides equal -16 pi s0^2 (e^b - e^a) on [a, b] = [0, 0.5]."""
    lhs, rhs = weak_ricci_pairing(hyp_round_track, ProbeField.constant(), 0.0, 0.5)
    closed = -16 * np.pi * (np.exp(0.5) - 1.0)
    assert abs(lhs - closed) / abs(closed) < 1e-6
    assert abs(lhs - rhs) / abs(closed) < 1e-6


def test_weak_ricci_pairing_zonal_parity(hyp_round_track):
    lhs, rhs = weak_ricci_pairing(hyp_round_track, ProbeField.zonal_cos(), 0.0, 0.5)
    assert abs(lhs) < 1e-10
    assert abs(rhs) < 1e-10


def test_weak_ricci_pairing_adss(adss_round_track):
    lhs, rhs = weak_ricci_pairing(adss_round_track, ProbeField.constant(), 0.0, 0.5)
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_weak_ricci_pairing_window_validation(hyp_round_track):
    with pytest.raises(ValueError):
        weak_ricci_pairing(hyp_round_track, ProbeField.constant(), 0.3, 0.2)
    with pytest.raises(ValueError):
        weak_ricci_pairing(hyp_round_track, ProbeField.constant(), 0.0, 0.123456789)


def test_pinch_bounds_round_flows_tight(hyp_round_track, adss_round_track):
    """Round flows saturate both bounds; the map must stay empty."""
    for tr in (hyp_round_track, adss_round_track):
        rep = pinch_bounds_check(tr)
        assert rep.n_violations == 0
        assert rep.worst_lower > -1e-12
        assert rep.worst_upper > -1e-12
        # both exponents equal t for umbilic flows
        k = len(tr.snap_times) - 1
        assert np.max(np.abs(tr.snap_P1[k] - tr.snap_times[k])) < 1e-10
        assert np.max(np.abs(tr.snap_P2[k] - tr.snap_times[k])) < 1e-10


def test_pinch_bounds_graph_gauge_drift_documented(hyperbolic, grid32):
    """Fixed graph coordinates add a tangential drift of first order in the
    graph gradient, so for visibly anisotropic data the node-wise bounds are
    expected to close only at O(amplitude); this pins that behavior."""
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    tr = record(hyperbolic, surf, T=0.3, dt=1e-3)
    rep = pinch_bounds_check(tr)
    worst = min(rep.worst_lower, rep.worst_upper)
    assert worst > -0.05  # bounded by O(amplitude), not order unity


def _area_parameterization(track, snapshots):
    """At each stored snapshot j: the integral of (H - hbar)^2 dmu and the
    integral of |dmu / (r0^2 e^t dsigma) - 1| dsigma."""
    deviation, residual = [], []
    for j in snapshots:
        geom = track.snapshot_geometry(j)
        w = geom.grid.weights
        hbar = mean_curvature_average(geom)
        deviation.append(np.sum((geom.H - hbar) ** 2 * geom.dmu * w))
        growth = track.r0**2 * np.exp(track.snap_times[j])
        residual.append(np.sum(np.abs(geom.dmu / growth - 1.0) * w))
    return np.array(deviation), np.array(residual)


def test_area_parameterization_series_vanish_round(hyp_round_track):
    # the track stores every step
    steps = range(len(hyp_round_track.snap_times))
    deviation, residual = _area_parameterization(hyp_round_track, steps)
    assert np.max(residual) < 1e-10
    assert np.max(deviation) < 1e-10


def test_area_parameterization_deviation_decreases(hyperbolic, grid32):
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    tr = record(hyperbolic, surf, T=0.5, dt=1e-3)
    deviation, _ = _area_parameterization(tr, (0, len(tr.snap_times) - 1))
    assert deviation[-1] < deviation[0]


def test_mass_at_infinity_adss_exact():
    t = np.arange(0.0, 3.0001, 1e-2)
    assert abs(mass_at_infinity(t, np.full_like(t, 0.8)) - 0.8) < 1e-12


def test_mass_at_infinity_hyperbolic_zero():
    t = np.arange(0.0, 2.0001, 1e-3)
    assert abs(mass_at_infinity(t, np.zeros_like(t))) < 1e-12


def test_mass_at_infinity_mass_aspect_oracle():
    # the series m(s0 e^{t/2}) extrapolates to the profile's own tail value
    m_f = lambda s: 0.4 * np.tanh(s - 0.8)
    t = np.arange(0.0, 4.0001, 1e-2)
    series = m_f(1.0 * np.exp(0.5 * t))
    m_inf = mass_at_infinity(t, series, tail_fraction=0.3)
    assert abs(m_inf - m_f(np.exp(2.0))) < 2e-3


def test_mass_at_infinity_requires_long_run():
    t = np.arange(0.0, 1.0001, 1e-2)
    with pytest.raises(ValueError):
        mass_at_infinity(t, np.zeros_like(t))


def test_mass_at_infinity_fit_error_on_wild_series():
    t = np.arange(0.0, 3.0001, 1e-2)
    rng = np.random.default_rng(0)
    with pytest.raises(FitError):
        mass_at_infinity(t, np.sin(5 * t) + rng.normal(0, 0.5, len(t)))
