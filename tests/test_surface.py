import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcf_lab.ambient import HyperbolicProfile
from imcf_lab.errors import CurvatureError, DomainError
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import (
    euler_characteristic,
    geometry,
    grad_pairing,
    integrate,
    intrinsic_diameter,
    make_graph,
    make_round,
)

from .oracles import embedding_mean_curvature

RBAR = float(np.arcsinh(1.0))


def test_round_sphere_area_hyperbolic(hyperbolic, grid64):
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    assert abs(geom.area - 4 * np.pi) < 1e-12


def test_round_sphere_area_adss(adss1, grid64):
    r = float(adss1.radius_from_area_radius(2.0))
    geom = geometry(adss1, make_round(adss1, r, grid64))
    assert abs(geom.area - 16 * np.pi) < 1e-9


def test_make_round_domain_error(hyperbolic, grid32):
    with pytest.raises(DomainError):
        make_round(hyperbolic, 1e4, grid32)


def test_round_sphere_umbilic(hyperbolic, grid64):
    """Coordinate spheres: H = 2 lambda'/lambda, equal principal curvatures."""
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    assert np.max(np.abs(geom.H - 2 * np.sqrt(2.0))) < 1e-10
    assert np.max(np.abs(geom.lam1 - geom.lam2)) < 1e-10
    assert np.max(np.abs(geom.K - 1.0)) < 1e-10
    assert np.max(np.abs(geom.dmu - 1.0)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(rbar=st.floats(0.5, 2.5))
def test_umbilic_consistency_any_radius(rbar):
    prof = HyperbolicProfile()
    geom = geometry(prof, make_round(prof, rbar, get_grid(16, 32)))
    lam, dlam, _ = prof.warp_curvature(rbar)[:3]
    assert np.max(np.abs(geom.H - 2 * dlam / lam)) < 1e-10
    assert np.max(np.abs(geom.lam1 - geom.lam2)) < 1e-10
    assert np.max(np.abs(geom.K - 1.0 / lam**2)) < 1e-10


def test_curvature_identities_pointwise(hyperbolic, grid32):
    """|A|^2 = H^2/2 + (l1-l2)^2/2 and the Gauss equation hold by construction."""
    surf = make_graph(hyperbolic, grid32, RBAR, "bumpy", 0.08)
    geom = geometry(hyperbolic, surf)
    assert np.max(np.abs(geom.absA2 - 0.5 * geom.H**2 - 0.5 * geom.pinch2)) < 1e-12
    assert np.max(np.abs(geom.lam1 + geom.lam2 - geom.H)) < 1e-12
    assert np.max(np.abs(geom.lam1 * geom.lam2 - geom.prod12)) < 1e-12
    assert np.max(np.abs(geom.K - geom.K12 - geom.prod12)) < 1e-13
    assert (
        np.max(np.abs((geom.K12 + 1) - (0.5 * (geom.R + 6) - (geom.Rc_nn + 2)))) < 1e-12
    )


@pytest.mark.parametrize("formula,amp", [("ellipsoid", 0.05), ("bumpy", 0.06), ("p2", 0.07)])
def test_mean_curvature_vs_embedding_oracle(hyperbolic, grid64, formula, amp):
    """H agrees with the brute-force embedding computation at O(h^2)."""
    surf = make_graph(hyperbolic, grid64, RBAR, formula, amp)
    geom = geometry(hyperbolic, surf)

    def f_func(t, p):
        if formula == "ellipsoid":
            return RBAR * (1 + amp * np.cos(t))
        if formula == "p2":
            return RBAR * (1 + amp * 0.5 * (3 * np.cos(t) ** 2 - 1))
        return RBAR * (1 + amp * np.sin(t) ** 2 * np.cos(2 * p))

    for (i, j) in [(10, 3), (32, 50), (55, 100)]:
        th, ph = grid64.theta[i], grid64.phi[j]
        err_h = abs(embedding_mean_curvature(hyperbolic, f_func, th, ph, h=2e-3) - geom.H[i, j])
        err_h2 = abs(embedding_mean_curvature(hyperbolic, f_func, th, ph, h=1e-3) - geom.H[i, j])
        assert err_h < 5e-5
        # halving the oracle step shrinks the gap ~4x: the disagreement is
        # oracle truncation, not the shape-operator formula
        assert err_h2 < 0.35 * err_h + 1e-9


def test_integrate_constant(hyperbolic, grid64):
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    assert abs(integrate(geom, 1.0) - 4 * np.pi) < 1e-12


def test_integrate_willmore_deficit_hyperbolic(hyperbolic, grid64):
    # int (H^2 - 4) dmu = 16 pi exactly on hyperbolic round spheres
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    assert abs(integrate(geom, geom.H**2 - 4.0) - 16 * np.pi) < 1e-10


@settings(max_examples=10, deadline=None)
@given(s=st.floats(1.6, 6.0))
def test_integrate_willmore_deficit_adss(adss1, s):
    # int (H^2 - 4) dmu = 16 pi - 32 pi m / s on AdSS coordinate spheres
    grid = get_grid(16, 32)
    r = float(adss1.radius_from_area_radius(s))
    geom = geometry(adss1, make_round(adss1, r, grid))
    expected = 16 * np.pi - 32 * np.pi * 1.0 / s
    assert abs(integrate(geom, geom.H**2 - 4.0) - expected) < 1e-8


def test_euler_characteristic_round(hyperbolic, grid64):
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    assert abs(euler_characteristic(geom) - 2.0) < 1e-12


@pytest.mark.parametrize("formula,amp", [("ellipsoid", 0.05), ("bumpy", 0.08)])
def test_euler_characteristic_graphs(hyperbolic, formula, amp):
    """Gauss-Bonnet: chi = 2 for every graph; error shrinks under refinement."""
    errs = []
    for (nt, nph) in [(32, 64), (64, 128)]:
        surf = make_graph(hyperbolic, get_grid(nt, nph), RBAR, formula, amp)
        errs.append(abs(euler_characteristic(geometry(hyperbolic, surf)) - 2.0))
    assert errs[0] < 1e-6
    # second-order-or-better decay, allowing for the round-off floor
    assert errs[1] < max(errs[0] / 3.8, 1e-11)


def test_intrinsic_diameter_round_unit(hyperbolic, grid64):
    geom = geometry(hyperbolic, make_round(hyperbolic, RBAR, grid64))
    d = intrinsic_diameter(geom)
    assert np.pi * 0.98 < d < np.pi * 1.12


def test_intrinsic_diameter_scales(hyperbolic, grid32):
    r2 = float(hyperbolic.radius_from_area_radius(2.0))
    geom = geometry(hyperbolic, make_round(hyperbolic, r2, grid32))
    d = intrinsic_diameter(geom)
    assert 2 * np.pi * 0.97 < d < 2 * np.pi * 1.13


def test_intrinsic_diameter_ellipsoid_bounds(hyperbolic):
    amp = 0.05
    for grid in (get_grid(32, 64), get_grid(64, 128)):
        surf = make_graph(hyperbolic, grid, RBAR, "ellipsoid", amp)
        geom = geometry(hyperbolic, surf)
        d = intrinsic_diameter(geom)
        lam_max = float(np.max(geom.lam))
        lam_min = float(np.min(geom.lam))
        assert np.pi * lam_min * 0.95 < d < np.pi * lam_max * 1.15


def test_grad_pairing_matches_gradient_norm(hyperbolic, grid32):
    surf = make_graph(hyperbolic, grid32, RBAR, "bumpy", 0.05)
    geom = geometry(hyperbolic, surf)
    H_t = grid32.dtheta(geom.H)
    H_p = grid32.dphi(geom.H)
    assert np.max(np.abs(grad_pairing(geom, H_t, H_p, H_t, H_p) - geom.grad_H2)) < 1e-12


def test_mean_curvature_sign_guard(hyperbolic, grid32):
    """Strongly pinched graphs lose H > 0 and must be rejected."""
    surf = make_graph(hyperbolic, grid32, 2.0, "p2", 0.9)
    with pytest.raises(CurvatureError):
        geometry(hyperbolic, surf)
