import numpy as np
import pytest

from imcf_lab.ambient import AdSSProfile, HyperbolicProfile
from imcf_lab.sphere_grid import get_grid
from imcf_lab import imcf

from .oracles import make_round


@pytest.fixture(scope="session")
def grid32():
    return get_grid(32, 64)


@pytest.fixture(scope="session")
def grid64():
    return get_grid(64, 128)


@pytest.fixture(scope="session")
def hyperbolic():
    return HyperbolicProfile()


@pytest.fixture(scope="session")
def adss1():
    return AdSSProfile(1.0, s_domain=(1.05, 16.0))


@pytest.fixture(scope="session")
def hyp_round_track(hyperbolic, grid32):
    """Short round flow in hyperbolic space, unit area radius (32x64 grid)."""
    s0 = make_round(hyperbolic, float(np.arcsinh(1.0)), grid32)
    return imcf.record(hyperbolic, s0, T=0.5, dt=1e-3, snap_every=1)


@pytest.fixture(scope="session")
def adss_round_track(adss1, grid32):
    """Short round flow in AdSS(m=1) started at area radius 2 (32x64 grid)."""
    r0 = float(adss1.radius_from_area_radius(2.0))
    s0 = make_round(adss1, r0, grid32)
    return imcf.record(adss1, s0, T=0.5, dt=1e-3, snap_every=1)
