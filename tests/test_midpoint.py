"""The RK2 midpoint's speed-only geometry against the full geometry() it
replaced: the same speed fields bit for bit, the same flow, the same errors."""

import dataclasses

import numpy as np
import pytest

from imcf_lab import imcf, surface
from imcf_lab.ambient import AdSSProfile
from imcf_lab.errors import CurvatureError, DomainError, StabilityError
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import SpeedGeometry, geometry, make_graph, speed_geometry

from .test_s_form import FORMULAS, PROFILES, _mass_aspect


@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_speed_geometry_is_geometrys_first_part(kind):
    profile, s0 = PROFILES[kind]()
    grid = get_grid(32, 64)
    rbar = float(profile.radius_from_area_radius(s0))
    for formula, amp in FORMULAS:
        surf = make_graph(profile, grid, rbar, formula, amp)
        sp, full = speed_geometry(profile, surf), geometry(profile, surf)
        for f in dataclasses.fields(SpeedGeometry):
            if f.name != "surface":
                assert np.array_equal(getattr(sp, f.name), getattr(full, f.name)), (formula, f.name)


def test_flow_with_full_midpoint_geometry_is_bitwise_equal(monkeypatch):
    grid = get_grid(32, 64)
    profile = _mass_aspect()
    surf0 = make_graph(profile, grid, float(profile.radius_from_area_radius(1.0)), "round", 0.05)
    fast = imcf.record(profile, surf0, T=0.05, dt=1e-3, snap_every=10)
    monkeypatch.setattr(imcf, "speed_geometry", surface.geometry)
    full = imcf.record(profile, surf0, T=0.05, dt=1e-3, snap_every=10)
    assert np.array_equal(fast.snap_zeta, full.snap_zeta)
    assert np.array_equal(fast.snap_P1, full.snap_P1)
    assert np.array_equal(fast.snap_P2, full.snap_P2)
    for f in dataclasses.fields(fast.series):
        assert np.array_equal(getattr(fast.series, f.name), getattr(full.series, f.name)), f.name


def test_nonpositive_mean_curvature_raises_the_same_error(hyperbolic):
    grid = get_grid(16, 32)
    surf = make_graph(hyperbolic, grid, float(np.arcsinh(1.0)), "bumpy", 0.5)
    with pytest.raises(CurvatureError) as full:
        geometry(hyperbolic, surf)
    with pytest.raises(CurvatureError) as fast:
        speed_geometry(hyperbolic, surf)
    assert str(fast.value) == str(full.value)


def test_midpoint_leaving_the_domain_fails_the_flow_with_its_time(monkeypatch):
    # the first substep's midpoint has area radius 2 + dt/2 = 2.005, its start 2
    profile = AdSSProfile(1.0, s_domain=(1.05, 2.003))
    surf0 = make_graph(profile, get_grid(16, 32), float(profile.radius_from_area_radius(2.0)))
    raised = []

    def spy(*args):
        try:
            return speed_geometry(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(imcf, "speed_geometry", spy)
    with pytest.raises(DomainError, match=r"^at t = 0\.01: area radius 2\.005"):
        imcf.run(profile, surf0, T=0.02, dt=0.01)
    assert [type(e) for e in raised] == [DomainError]


def test_a_breakdown_on_the_initial_surface_says_t_0(hyperbolic):
    """A bumpy graph of amplitude 0.5 has H < 0 before the flow takes a step."""
    surf0 = make_graph(hyperbolic, get_grid(16, 32), float(np.arcsinh(1.0)), "bumpy", 0.5)
    with pytest.raises(CurvatureError, match=r"^at t = 0: mean curvature nonpositive"):
        imcf.run(hyperbolic, surf0, T=0.04, dt=0.01)


@pytest.mark.parametrize("cfl", [float("nan"), float("inf"), -0.2])
def test_unusable_cfl_guard_raises(hyperbolic, monkeypatch, cfl):
    monkeypatch.setattr(imcf, "CFL", cfl)
    surf0 = make_graph(hyperbolic, get_grid(16, 32), float(np.arcsinh(1.0)))
    with pytest.raises(StabilityError, match=r"^at t = 0\.01: degenerate CFL guard"):
        imcf.run(hyperbolic, surf0, T=0.01, dt=0.01)
