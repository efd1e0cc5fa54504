"""The lattice diameter of a ring-constant column against the full lattice.

``intrinsic_diameter`` measures an (n_theta, 1) column on the phi -> -phi
half of the scenario grid's lattice, with one source per distinct source
ring.  Its reference is the full lattice on the same column lifted to the
grid by ``oracles._on_grid``: every edge length and every Dijkstra distance
keeps its bits, so the two diameters are equal, not close.
"""

from functools import lru_cache

import numpy as np
import pytest

from imcf_lab.errors import GeometryError
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import GraphSurface, _spread_rings, geometry, intrinsic_diameter, make_graph

from .oracles import _on_grid
from .test_s_form import PROFILES

GRIDS = [(8, 8), (16, 32), (32, 64), (64, 128)]
AMPLITUDES = [0.0, 1e-9, 0.05]


@lru_cache(maxsize=None)
def _profile(kind):
    # built once per kind: a tabulated profile takes half a second
    return PROFILES[kind]()


def _columns(profile, s0, nt, nph, formula, amp):
    """The column of ``formula`` data, as the flow computes it on the
    meridian and as the full grid's geometry restricted to it."""
    grid = get_grid(nt, nph)
    rbar = float(profile.radius_from_area_radius(s0))
    meridian = make_graph(profile, get_grid(nt, 1), rbar, formula, amp)
    start = make_graph(profile, grid, rbar, formula, amp)
    return grid, [geometry(profile, meridian), _on_grid(geometry(profile, start), get_grid(nt, 1))]


def _assert_half_is_full(column, grid):
    assert column.grid.shape == (grid.n_theta, 1)
    lifted = _on_grid(column, grid)
    assert intrinsic_diameter(column, grid) == intrinsic_diameter(lifted, grid)


@pytest.mark.parametrize("nt,nph", GRIDS)
@pytest.mark.parametrize("amp", AMPLITUDES)
@pytest.mark.parametrize("formula", ["round", "ellipsoid"])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_the_half_lattice_gives_the_full_lattices_diameter(kind, formula, amp, nt, nph):
    profile, s0 = _profile(kind)
    grid, columns = _columns(profile, s0, nt, nph, formula, amp)
    for column in columns:
        _assert_half_is_full(column, grid)


@pytest.mark.parametrize("nt,nph", GRIDS)
@pytest.mark.parametrize("on_spread", [True, False])
def test_the_largest_radius_ring_is_a_source_on_or_off_the_spread(nt, nph, on_spread):
    """A wide bump peaked on one ring puts the largest zeta there: on ring
    0, one of the seven spread source rings, so that it adds no source, or
    on the first ring off them, so that it adds an eighth.  From 16x32 on,
    that eighth source's paths are the longest: the half lattice must keep
    it."""
    profile, s0 = _profile("hyperbolic")
    spread = set(_spread_rings(nt).tolist())
    ring = 0 if on_spread else min(set(range(nt)) - spread)
    mer = get_grid(nt, 1)
    theta = mer.theta[:, None]
    zeta = s0 * (1.0 + 0.5 * np.exp(-((theta - theta[ring]) ** 2) / 0.5))
    column = geometry(profile, GraphSurface(mer, zeta))
    assert int(np.argmax(column.surface.zeta)) == ring
    assert (ring in spread) == on_spread
    _assert_half_is_full(column, get_grid(nt, nph))


@pytest.mark.parametrize(
    "column_grid,lattice,match",
    [
        ((16, 1), (16, 1), "2D grid"),
        ((16, 1), (16, 9), "even n_phi"),
        ((16, 1), (32, 64), "not on the"),
        ((16, 32), (32, 64), "not on the"),
    ],
)
def test_the_diameter_refuses_a_geometry_off_its_lattice(hyperbolic, column_grid, lattice, match):
    """No 2D lattice, an odd n_phi (the half lattice folds phi -> -phi onto
    columns 0 .. n_phi/2) and a geometry with other rings or another shape
    than the lattice's are each a ``GeometryError``."""
    surf = make_graph(hyperbolic, get_grid(*column_grid), float(np.arcsinh(1.0)), "ellipsoid", 0.05)
    with pytest.raises(GeometryError, match=match):
        intrinsic_diameter(geometry(hyperbolic, surf), get_grid(*lattice))
