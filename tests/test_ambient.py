import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcf_lab.ambient import (
    AdSSProfile,
    HyperbolicProfile,
    MassAspectProfile,
    TabulatedProfile,
    horizon_radius,
    validate_profile,
)
from imcf_lab.errors import DomainError, ProfileError

from .oracles import fd_warp_curvature, tabulated_by_inversion


def test_hyperbolic_warp_at_unit_area_radius(hyperbolic):
    lam, dlam, d2lam = hyperbolic.warp_curvature(np.arcsinh(1.0))[:3]
    assert abs(lam - 1.0) < 1e-14
    assert abs(dlam - np.sqrt(2.0)) < 1e-14
    assert abs(d2lam - 1.0) < 1e-14


def test_adss_warp_at_area_radius_two(adss1):
    # differentiate lambda'^2 = 1 + lambda^2 - 2m/lambda by hand:
    # lambda'' = lambda + m/lambda^2 -> 2.25 at lambda = 2, m = 1
    r = float(adss1.radius_from_area_radius(2.0))
    lam, dlam, d2lam = adss1.warp_curvature(r)[:3]
    assert abs(lam - 2.0) < 1e-11
    assert abs(dlam - 2.0) < 1e-11
    assert abs(d2lam - 2.25) < 1e-11


def test_domain_error_below_floor(hyperbolic):
    with pytest.raises(DomainError):
        hyperbolic.warp_curvature(0.0)
    with pytest.raises(DomainError):
        hyperbolic.warp_curvature(1e3)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.2, 10.0))
def test_hyperbolic_curvature_constants(r):
    *_, R, rc_nn, k12 = HyperbolicProfile().warp_curvature(r)
    assert abs(R + 6.0) < 1e-12
    assert abs(rc_nn + 2.0) < 1e-12
    assert abs(k12 + 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(m=st.floats(0.05, 2.0), u=st.floats(0.1, 0.9))
def test_adss_curvature_closed_forms(m, u):
    prof = AdSSProfile(m, s_domain=(1.1 * horizon_radius(m), 20.0))
    lo, hi = prof.s_domain
    s = lo + u * (hi - lo)
    r = float(prof.radius_from_area_radius(s))
    *_, R, rc_nn, k12 = prof.warp_curvature(r)
    assert abs(R + 6.0) < 1e-10
    assert abs((rc_nn + 2.0) - (-2.0 * m / s**3)) < 1e-10
    assert abs((k12 + 1.0) - (2.0 * m / s**3)) < 1e-10


def test_adss_example_values(adss1):
    # frozen: Rc_nn = -2 - 2m/lam^3 = -2.25, K12 = -1 + 2m/lam^3 = -0.75 at lam = 2
    r = float(adss1.radius_from_area_radius(2.0))
    *_, R, rc_nn, k12 = adss1.warp_curvature(r)
    assert abs(rc_nn + 2.25) < 1e-11
    assert abs(k12 + 0.75) < 1e-11
    assert abs(R + 6.0) < 1e-11


@settings(max_examples=20, deadline=None)
@given(m=st.floats(0.05, 1.5), u=st.floats(0.05, 0.95))
def test_sectional_identity_every_profile(m, u):
    """K12 + 1 = (R + 6)/2 - (Rc_nn + 2) pointwise."""
    prof = AdSSProfile(m, s_domain=(1.1 * horizon_radius(m), 15.0))
    lo, hi = prof.r_domain
    r = lo + u * (hi - lo)
    *_, R, rc_nn, k12 = prof.warp_curvature(r)
    assert abs((k12 + 1.0) - (0.5 * (R + 6.0) - (rc_nn + 2.0))) < 1e-12


def test_constant_mass_aspect_matches_adss():
    m0 = 0.7
    prof = MassAspectProfile(
        lambda s: np.full_like(np.asarray(s, float), m0),
        lambda s: np.zeros_like(np.asarray(s, float)),
        (1.2, 10.0),
    )
    r = np.linspace(0.1, prof.r_domain[1] - 0.1, 64)
    R = prof.warp_curvature(r)[3]
    assert np.max(np.abs(R + 6.0)) < 1e-10


def test_mass_aspect_scalar_curvature_vs_fd_oracle():
    """R = -6 + 4 m'(s)/s^2, cross-checked by a finite-difference warp oracle."""
    m_f = lambda s: 0.2 * np.tanh((s - 1.0) / 0.8)
    dm_f = lambda s: (0.2 / 0.8) / np.cosh((s - 1.0) / 0.8) ** 2
    prof = MassAspectProfile(m_f, dm_f, (1.1, 8.0))
    lo, hi = prof.r_domain
    for r in (lo + 0.2 * (hi - lo), lo + 0.5 * (hi - lo), lo + 0.8 * (hi - lo)):
        s, _, _, R, _, _ = prof.warp_curvature(r)
        expected = -6.0 + 4.0 * dm_f(s) / s**2
        assert abs(R - expected) < 1e-9
        # oracle step balances truncation against the warp-spline noise
        assert abs(fd_warp_curvature(prof, r, h=2e-3) - expected) < 1e-4


def test_validate_profile_hyperbolic_passes(hyperbolic):
    rep = validate_profile(hyperbolic)
    assert rep.passed
    assert abs(rep.min_R + 6.0) < 1e-11


def test_validate_profile_monotone_mass_passes():
    prof = MassAspectProfile.from_points(
        [0.8, 1.5, 2.5, 4.0, 8.0], [0.0, 0.05, 0.12, 0.2, 0.25]
    )
    rep = validate_profile(prof)
    assert rep.passed
    assert rep.min_R >= -6.0 - rep.tol


def test_validate_profile_flags_decreasing_mass():
    prof = MassAspectProfile.from_points(
        [0.8, 1.5, 2.5, 4.0, 8.0], [0.2, 0.15, 0.05, 0.1, 0.2]
    )
    rep = validate_profile(prof)
    assert not rep.r_floor_ok
    assert rep.min_R < -6.0 - rep.tol


def test_spline_derivative_fd_consistency(adss1):
    """Centered differences of lambda converge to lambda' at O(h^2)."""
    r0 = 1.0
    errs = []
    for h in (1e-2, 5e-3):
        lam_p = (adss1.warp_curvature(r0 + h)[0] - adss1.warp_curvature(r0 - h)[0]) / (2 * h)
        errs.append(abs(lam_p - adss1.warp_curvature(r0)[1]))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


def test_tabulated_profile_reproduces_hyperbolic():
    r = np.linspace(0.3, 3.0, 1600)
    prof = TabulatedProfile(r, np.sinh(r))
    *_, R, rc_nn, _ = prof.warp_curvature(1.5)
    assert abs(R + 6.0) < 1e-5
    assert abs(rc_nn + 2.0) < 1e-5


@pytest.mark.parametrize(
    "n_knots, warp",
    [(1600, np.sinh), (64, lambda r: np.sinh(r) + 0.2 * np.tanh(4.0 * (r - 1.5)))],
    ids=["sinh", "bump"],
)
def test_tabulated_mass_aspect_matches_spline_inversion(n_knots, warp):
    """The mass aspect read once from the spline gives the s-form and the
    r <-> s map that inverting the spline at every call gave."""
    r_nodes = np.linspace(0.3, 3.0, n_knots)
    lam = warp(r_nodes)
    prof = TabulatedProfile(r_nodes, lam)
    s = np.linspace(lam[0], lam[-1], 2001)
    r_ref, fields_ref = tabulated_by_inversion(r_nodes, lam, s)
    for got, ref in zip(prof.warp_at_area_radius(s), fields_ref):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    # the maps hold 1e-8 on these knot sets, not on every one: the ODE steps
    # across the knots, where m'' jumps, and 16 knots of this bump leave 5e-8
    assert np.max(np.abs(prof.radius_from_area_radius(s) / r_ref - 1.0)) <= 1e-8
    r_in = np.clip(r_ref, *prof.r_domain)
    assert np.max(np.abs(prof.area_radius_from_radius(r_in) / s - 1.0)) <= 1e-8


def test_tabulated_profile_rejects_bad_data():
    r = np.linspace(0.3, 3.0, 10)
    lam = np.sinh(r)
    lam[5] = lam[4] - 0.1  # not increasing
    with pytest.raises(ProfileError):
        TabulatedProfile(r, lam)
    # increasing samples whose spline still dips: lambda' < 0 near r = 2.5
    with pytest.raises(ProfileError, match="lambda' <= 0"):
        TabulatedProfile([0.5, 1.0, 1.5, 2.0, 2.5], [1.0, 1.01, 1.02, 3.0, 3.01])


def test_mass_function_recovers_adss_mass(adss1):
    s = np.array([1.5, 2.0, 4.0, 8.0])
    assert np.max(np.abs(adss1.mass_function(s) - 1.0)) < 1e-9


def test_horizon_radius_cubic():
    # s^3 + s = 2m with m = 1 has root s = 1
    assert abs(horizon_radius(1.0) - 1.0) < 1e-12


def test_adss_requires_positive_mass():
    with pytest.raises(ProfileError):
        AdSSProfile(-0.5)


def test_domain_crossing_horizon_rejected():
    with pytest.raises(ProfileError):
        AdSSProfile(1.0, s_domain=(0.5, 10.0))


@pytest.mark.parametrize(
    "make",
    [
        HyperbolicProfile,
        lambda: AdSSProfile(1.0),
        lambda: MassAspectProfile.from_points([0.8, 1.5, 3.0], [0.0, 0.05, 0.1]),
        lambda: TabulatedProfile(np.linspace(0.3, 3.0, 8), np.sinh(np.linspace(0.3, 3.0, 8))),
    ],
    ids=["hyperbolic", "adss", "mass_aspect", "tabulated"],
)
def test_inverse_warp_accepts_an_empty_stack(make):
    """A track from ``run`` stores no snapshots; its ``snap_f`` inverts an empty stack."""
    r = make().radius_from_area_radius(np.empty((0, 4, 4)))
    assert r.shape == (0, 4, 4)


@pytest.mark.parametrize("s_hi", [np.inf, np.nan, 2e6])
def test_ode_profile_rejects_a_domain_end_it_cannot_tabulate(s_hi):
    with pytest.raises(ProfileError, match="invalid area-radius domain"):
        AdSSProfile(1.0, s_domain=(2.0, s_hi))
    with pytest.raises(ProfileError, match="invalid area-radius domain"):
        MassAspectProfile(lambda s: 0.0 * s, lambda s: 0.0 * s, (0.8, s_hi))
