import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcf_lab.sphere_grid import get_grid


def test_weights_sum_to_sphere_area(grid64):
    assert abs(grid64.integrate_sigma(np.ones(grid64.shape)) - 4 * np.pi) < 1e-12


@pytest.mark.parametrize("nt,nph", [(8, 16), (16, 32), (32, 64), (64, 128)])
def test_weights_sum_all_sizes(nt, nph):
    g = get_grid(nt, nph)
    assert abs(g.integrate_sigma(np.ones(g.shape)) - 4 * np.pi) < 1e-12


def test_quadrature_exact_on_harmonics(grid32):
    """Spherical harmonics with l >= 1 integrate to zero."""
    g = grid32
    th = g.broadcast_theta(g.theta)
    ph = np.broadcast_to(g.phi[None, :], g.shape)
    assert abs(g.integrate_sigma(np.cos(th))) < 1e-13
    assert abs(g.integrate_sigma(1.5 * np.cos(th) ** 2 - 0.5)) < 1e-13
    assert abs(g.integrate_sigma(np.sin(th) ** 2 * np.cos(2 * ph))) < 1e-13
    # int cos^2 = 4 pi / 3
    assert abs(g.integrate_sigma(np.cos(th) ** 2) - 4 * np.pi / 3) < 1e-12


def test_theta_derivative_exact_on_polynomials(grid32):
    g = grid32
    x = g.cos_theta[:, None]
    f = np.broadcast_to(x**3 - 0.2 * x, g.shape).copy()
    # d/dtheta (x^3 - 0.2 x) = -sin * (3x^2 - 0.2)
    expected = -g.sin_theta[:, None] * (3 * x**2 - 0.2)
    assert np.max(np.abs(g.dtheta(f) - expected)) < 1e-11


def test_theta_second_derivative(grid32):
    g = grid32
    th = g.broadcast_theta(g.theta)
    f = np.cos(th) ** 2
    d1, d2 = g.theta_derivs(f)
    assert np.max(np.abs(d1 + 2 * np.sin(th) * np.cos(th))) < 1e-10
    assert np.max(np.abs(d2 - (2 * np.sin(th) ** 2 - 2 * np.cos(th) ** 2))) < 1e-9


def test_phi_derivatives_spectral(grid32):
    g = grid32
    ph = np.broadcast_to(g.phi[None, :], g.shape)
    f = np.sin(3 * ph) + 0.5 * np.cos(ph)
    d1, d2 = g.phi_derivs(f)
    assert np.max(np.abs(d1 - (3 * np.cos(3 * ph) - 0.5 * np.sin(ph)))) < 1e-11
    assert np.max(np.abs(d2 - (-9 * np.sin(3 * ph) - 0.5 * np.cos(ph)))) < 1e-10


def test_derivatives_of_constant_vanish(grid32):
    f = np.full(grid32.shape, 3.7)
    assert np.max(np.abs(grid32.dtheta(f))) < 1e-12
    assert np.max(np.abs(grid32.dphi(f))) < 1e-13


def test_polar_filter_preserves_resolvable_modes(grid32):
    g = grid32
    th = g.broadcast_theta(g.theta)
    ph = np.broadcast_to(g.phi[None, :], g.shape)
    f = 1.0 + 0.3 * np.cos(th) + 0.1 * np.sin(th) ** 2 * np.cos(2 * ph)
    assert np.max(np.abs(g.polar_filter(f) - f)) < 1e-13


def test_polar_filter_removes_subgrid_polar_modes(grid32):
    g = grid32
    ph = np.broadcast_to(g.phi[None, :], g.shape)
    m = g.n_phi // 2 - 2
    f = np.cos(m * ph)
    filtered = g.polar_filter(f)
    # near the poles that wavenumber is unresolvable and must be zeroed
    assert np.max(np.abs(filtered[0])) < 1e-13
    assert np.max(np.abs(filtered[-1])) < 1e-13
    # near the equator it survives untouched
    i_eq = g.n_theta // 2
    assert np.max(np.abs(filtered[i_eq] - f[i_eq])) < 1e-13


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_integrate_sigma_is_linear(a, b):
    g = get_grid(16, 32)
    th = g.broadcast_theta(g.theta)
    f1 = np.cos(th) ** 2
    f2 = np.sin(th)
    lhs = g.integrate_sigma(a * f1 + b * f2)
    rhs = a * g.integrate_sigma(f1) + b * g.integrate_sigma(f2)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(a) + abs(b))


def test_grid_cache_shares_instances():
    assert get_grid(16, 32) is get_grid(16, 32)


def test_latitude_factors_are_read_only_and_cached_per_shape_on_the_meridian():
    for g, shapes in ((get_grid(16, 1), [(16, 1), (3, 16, 1)]), (get_grid(16, 32), [(16, 32)])):
        for shape in shapes:
            st, ct, cot = g.factors(shape)
            assert g.factors(shape)[0] is st
            for got, want in ((st, g.sin_theta), (ct, g.cos_theta), (cot, g.cot_theta)):
                # a full grid's factors are its (n_theta, 1) columns
                assert got.shape == (shape if g.n_phi == 1 else (16, 1))
                assert got.flags.c_contiguous
                assert np.array_equal(got, np.broadcast_to(want[:, None], got.shape))
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[..., 0, 0] = 0.0
