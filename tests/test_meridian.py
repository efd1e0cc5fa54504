"""Ring-constant data flows on the meridian grid get_grid(n_theta, 1): the
premise (the full grid's phi operations are exact on such data, and its
start geometry repeats one column), the grid itself, the meridian geometry
without its phi terms against the general algebra it replaces, the fork in
``imcf.flow_grid``, the grid every observer call gets, and the meridian flow
against the full-grid flow it replaces."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from imcf_lab import imcf
from imcf_lab.cli import main as cli_main
from imcf_lab.comparison import c_alpha_distance_to_round
from imcf_lab.errors import CurvatureError
from imcf_lab.sphere_grid import SphereGrid, get_grid
from imcf_lab.surface import GraphSurface, geometry, make_graph, speed_geometry

from .oracles import general_geometry
from .test_s_form import PROFILES

N_PHI = (8, 16, 32, 64, 128)   # every n_phi a scenario allows


def _ring_constant(n_theta, n_phi, seed=0):
    col = 1.0 + 0.3 * np.random.default_rng(seed).standard_normal((n_theta, 1))
    return np.repeat(col, n_phi, axis=1)


# -- the premise: phi operations on ring-constant fields ---------------------------


@pytest.mark.parametrize("n_theta", [8, 64])
@pytest.mark.parametrize("n_phi", N_PHI)
def test_polar_filter_returns_a_ring_constant_field_bit_for_bit(n_theta, n_phi):
    f = _ring_constant(n_theta, n_phi)
    assert np.array_equal(get_grid(n_theta, n_phi).polar_filter(f), f)


@pytest.mark.parametrize("n_theta", [8, 64])
@pytest.mark.parametrize("n_phi", N_PHI)
def test_phi_derivatives_of_a_ring_constant_field_are_exact_zeros(n_theta, n_phi):
    g = get_grid(n_theta, n_phi)
    f = _ring_constant(n_theta, n_phi)
    d1, d2 = g.phi_derivs(f)
    assert not np.any(d1) and not np.any(d2) and not np.any(g.dphi(f))


@pytest.mark.parametrize("nt,nph", [(16, 32), (64, 128)])
@pytest.mark.parametrize("amp", [0.0, 1e-9, 0.05])
@pytest.mark.parametrize("formula", ["round", "ellipsoid"])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_the_start_geometry_of_ring_constant_data_is_ring_constant_bit_for_bit(
    kind, formula, amp, nt, nph
):
    """The full-grid start geometry repeats one column in every node field,
    so ``start_geometry``'s restriction to the meridian drops no bit, and the
    Holder distance of the restriction is the full start's."""
    profile, s0 = PROFILES[kind]()
    grid = get_grid(nt, nph)
    surf0 = make_graph(profile, grid, float(profile.radius_from_area_radius(s0)), formula, amp)
    zeta = grid.polar_filter(surf0.zeta)
    full = geometry(profile, GraphSurface(grid, zeta, profile))
    for name in imcf._NODE_FIELDS:
        a = getattr(full, name)
        assert np.array_equal(a, np.broadcast_to(a[:, :1], grid.shape)), name
    start = imcf.start_geometry(profile, grid, zeta)
    assert start.grid is get_grid(nt, 1) and start.area == full.area
    r0 = imcf.area_radius(full)
    assert c_alpha_distance_to_round(start, r0) == c_alpha_distance_to_round(full, r0)


# -- the meridian grid ------------------------------------------------------------


@pytest.mark.parametrize("n_theta", [8, 16, 32, 64])
def test_meridian_has_the_full_grids_theta_nodes_and_weights(n_theta):
    mer, full = get_grid(n_theta, 1), get_grid(n_theta, 2 * n_theta)
    assert isinstance(mer, SphereGrid) and mer.shape == (n_theta, 1)
    for name in ("x", "theta", "w_theta", "sin_theta", "cos_theta", "cot_theta"):
        assert np.array_equal(getattr(mer, name), getattr(full, name)), name
    assert mer.h_theta == full.h_theta
    f = _ring_constant(n_theta, full.n_phi)
    assert mer.integrate_sigma(f[:, :1]) == pytest.approx(full.integrate_sigma(f), rel=1e-15)


@pytest.mark.parametrize("n_theta", [8, 16, 32, 64])
def test_meridian_differentiates_in_theta_as_the_full_grid(n_theta):
    """The same collocation matrix; the products differ only in round-off,
    as a matrix-vector product sums in another order than a matrix-matrix one."""
    mer, full = get_grid(n_theta, 1), get_grid(n_theta, 2 * n_theta)
    f = _ring_constant(n_theta, full.n_phi)
    pairs = [(mer.dtheta(f[:, :1]), full.dtheta(f))]
    pairs += list(zip(mer.theta_derivs(f[:, :1]), full.theta_derivs(f)))
    for got, ref in pairs:
        assert got.shape == (n_theta, 1)
        assert np.max(np.abs(got[:, 0] - ref[:, 0])) <= 1e-12 * np.max(np.abs(ref))


def test_meridian_phi_operations_are_zeros_or_the_identity():
    mer = get_grid(16, 1)
    f = _ring_constant(16, 1)
    assert mer.polar_filter(f) is f
    d1, d2 = mer.phi_derivs(f)
    assert not np.any(d1) and not np.any(d2) and not np.any(mer.dphi(f))
    assert d1.shape == d2.shape == (16, 1)


# -- the meridian algebra ---------------------------------------------------------


def _meridian_starts(kind, formula, amp, n_theta=16):
    """The profile and the meridian start of a ``make_graph`` surface."""
    profile, s0 = PROFILES[kind]()
    grid = get_grid(n_theta, 1)
    surf = make_graph(profile, grid, float(profile.radius_from_area_radius(s0)), formula, amp)
    return profile, surf


def _assert_general_bit_for_bit(profile, surf):
    fast, ref = geometry(profile, surf), general_geometry(profile, surf)
    for name in imcf._NODE_FIELDS:
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    assert np.array_equal(fast.area, ref.area)
    sp = speed_geometry(profile, surf)
    for f in dataclasses.fields(sp):
        if f.name != "surface":
            assert np.array_equal(getattr(sp, f.name), getattr(ref, f.name)), f.name


@pytest.mark.parametrize("amp", [0.0, 1e-9, 0.05])
@pytest.mark.parametrize("formula", ["round", "ellipsoid"])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_the_meridian_geometry_is_the_general_algebra_bit_for_bit(kind, formula, amp):
    """Dropping the exact-zero phi terms keeps every bit of every field,
    the zeros g12 and A12 included, and of the area: on a lone row and on a
    3-row batch of the same kind at three amplitudes."""
    profile, surf = _meridian_starts(kind, formula, amp)
    _assert_general_bit_for_bit(profile, surf)
    rows = [_meridian_starts(kind, formula, a * amp) for a in (1.0, 0.5, 2.0)]
    stack, batch = imcf.stack_rows([p for p, _ in rows], [s for _, s in rows])
    _assert_general_bit_for_bit(stack, batch)


@pytest.mark.parametrize("amp", [-0.6, 1.0])
def test_a_meridian_breakdown_raises_the_full_grids_error(hyperbolic, amp):
    """Round (P2) data this far from the sphere has H < 0 at t = 0: the
    meridian's geometry and speed geometry raise the full grid's text, and
    the flow says t = 0, started on either grid."""
    rbar = float(np.arcsinh(1.0))
    full = make_graph(hyperbolic, get_grid(16, 32), rbar, "round", amp)
    mer = make_graph(hyperbolic, get_grid(16, 1), rbar, "round", amp)
    texts = set()
    for surf in (full, mer):
        for compute in (geometry, speed_geometry, general_geometry):
            with pytest.raises(CurvatureError, match=r"^mean curvature nonpositive") as exc:
                compute(hyperbolic, surf)
            texts.add(str(exc.value))
        with pytest.raises(CurvatureError, match=r"^at t = 0: mean curvature nonpositive"):
            imcf.run(hyperbolic, surf, T=0.04, dt=0.01)
    assert len(texts) == 1


# -- the fork ------------------------------------------------------------------------


def test_flow_grid_picks_the_meridian_only_for_ring_constant_data():
    grid = get_grid(16, 32)
    f = _ring_constant(16, 32)
    assert imcf.flow_grid(grid, f) is get_grid(16, 1)
    f[3, 7] = np.nextafter(f[3, 7], 2.0)
    assert imcf.flow_grid(grid, f) is grid


def _geometry_grids(monkeypatch):
    """The n_phi of every grid the flow's geometry() calls run on."""
    seen, real = [], imcf.geometry

    def geometry(profile, surface):
        seen.append(surface.grid.n_phi)
        return real(profile, surface)

    monkeypatch.setattr(imcf, "geometry", geometry)
    return seen


def _observed_grids(profile, surf0, T=0.01):
    """The grids of every observer call's geometry, P1 and P2, as
    (grid, geometry shape, zeta shape, P1 shape, P2 shape) per snapshot."""
    calls = []

    def observe(j, t, geom, P1, P2):
        calls.append((geom.grid, geom.H.shape, geom.surface.zeta.shape, P1.shape, P2.shape))

    track = imcf.run(profile, surf0, T=T, dt=1e-3, observers=[observe])
    assert len(calls) == len(track.snap_indices)
    return calls


def test_ring_constant_data_flows_on_the_meridian_and_is_seen_on_its_grid(monkeypatch, hyperbolic):
    grid = get_grid(16, 32)
    surf0 = make_graph(hyperbolic, grid, float(np.arcsinh(1.0)), "ellipsoid", 0.05)
    seen = _geometry_grids(monkeypatch)
    calls = _observed_grids(hyperbolic, surf0)
    # the start is computed on the scenario's grid and every later geometry
    # on the meridian; every observer call, the start's included, gets the
    # meridian, P1 and P2 included
    assert seen[0] == 32 and set(seen[1:]) == {1}
    mer = get_grid(16, 1)
    assert set(calls) == {(mer, mer.shape, mer.shape, mer.shape, mer.shape)}


def test_bumpy_data_is_seen_on_the_scenarios_grid(monkeypatch, hyperbolic):
    grid = get_grid(16, 32)
    surf0 = make_graph(hyperbolic, grid, float(np.arcsinh(1.0)), "bumpy", 0.05)
    seen = _geometry_grids(monkeypatch)
    calls = _observed_grids(hyperbolic, surf0)
    assert set(seen) == {32}
    assert set(calls) == {(grid, grid.shape, grid.shape, grid.shape, grid.shape)}


@pytest.mark.parametrize("formula", ["ellipsoid", "bumpy"])
def test_a_replayed_start_equals_the_streamed_start_bit_for_bit(hyperbolic, formula):
    """``snapshot_geometry(0)`` rebuilds the start through ``start_geometry``,
    as ``run`` built it, so a replayed check reads the streamed start."""
    grid = get_grid(16, 32)
    surf0 = make_graph(hyperbolic, grid, float(np.arcsinh(1.0)), formula, 0.05)
    streamed = []

    def observe(j, t, geom, P1, P2):
        if j == 0:
            streamed.append(geom)

    track = imcf.record(hyperbolic, surf0, T=0.01, dt=1e-3, observers=[observe])
    (ref,), got = streamed, track.snapshot_geometry(0)
    assert got.grid is ref.grid and got.area == ref.area
    for name in ("zeta", *imcf._NODE_FIELDS):
        a = got.surface.zeta if name == "zeta" else getattr(got, name)
        b = ref.surface.zeta if name == "zeta" else getattr(ref, name)
        assert a.shape == b.shape and np.array_equal(a, b), name


# bumpy data at 32x64 in hyperbolic space, the bumpy-2d benchmark row on a
# coarser grid; its report columns as the full-grid flow wrote them before the
# meridian existed, at t = 0, 0.1, 0.2, 0.3, 0.4
BUMPY = {
    "id": "bumpy-32", "mode": "PMT", "profile": {"kind": "hyperbolic"},
    "surface": {"type": "bumpy", "area_radius": 1.0, "amplitude": 0.05},
    "T": 0.4, "dt": 0.001, "grid": {"n_theta": 32, "n_phi": 64},
}
BUMPY_REPORT = {
    "m_H": ["-0.00155720193913", "-0.00133887294764", "-0.00115857124345",
            "-0.00100840480051", "-0.000882483415445"],
    "mH_T": ["-0.000882483415445"] * 5,
    "c_alpha": ["0.339299740159"] * 5,
    "gauss_dev": ["0.207679751736", "0.161826962479", "0.127222853819",
                  "0.10084663143", "0.0805669438122"],
    "diam": ["3.19618152434", "3.35603351395", "3.53086170019",
             "3.71435113016", "3.90707118227"],
}


def test_bumpy_data_flows_on_the_full_grid_with_its_report_unchanged(monkeypatch, tmp_path):
    seen = _geometry_grids(monkeypatch)
    path = tmp_path / "bumpy.json"
    path.write_text(json.dumps(BUMPY), encoding="utf-8")
    assert cli_main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert set(seen) == {64}
    with open(tmp_path / "bumpy-32.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    for column, want in BUMPY_REPORT.items():
        assert [r[column] for r in records] == want, column


# -- the meridian flow against the full-grid flow ---------------------------------------

# (formula, amplitude): the coordinate sphere and two axisymmetric graphs
SURFACES = (("round", 0.0), ("round", 0.05), ("ellipsoid", 0.05))
# Absolute floors for series whose round-off is set by a larger scale than
# their value, each at least seven times the largest gap seen here:
# - m_H = c (16 pi - I_H2) cancels to 5e-7 on the ellipsoid and to 0 on the
#   coordinate sphere in hyperbolic space (gap 3e-16);
# - I_gradH and I_pinch measure the small anisotropy of near-round data
#   (1.3e-16), and gradf_max vanishes on the coordinate sphere (7e-14);
# - in AdS-Schwarzschild I_R vanishes (R = -6: 9e-15), and so do I_H2, I_A2
#   and I_prod on its sphere of area radius 2, where H^2 = 4 (3e-14).
FLOORS = {"m_H": 1e-14, "I_gradH": 1e-15, "I_pinch": 1e-15, "gradf_max": 1e-12,
          "I_R": 1e-13, "I_H2": 1e-12, "I_A2": 1e-12, "I_prod": 1e-12}
REL = 1e-12


def _close(got, ref, floor=0.0):
    return np.all(np.abs(got - ref) <= np.maximum(REL * np.maximum(np.abs(got), np.abs(ref)), floor))


@pytest.mark.parametrize("nt,nph", [(16, 32), (64, 128)])
@pytest.mark.parametrize("formula,amp", SURFACES)
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_meridian_flow_matches_the_full_grid_flow(monkeypatch, kind, formula, amp, nt, nph):
    profile, s0 = PROFILES[kind]()
    grid = get_grid(nt, nph)
    surf0 = make_graph(profile, grid, float(profile.radius_from_area_radius(s0)), formula, amp)

    def flow():
        c_alpha = []

        def observe(j, t, geom, P1, P2):
            if j == 0:
                c_alpha.append(c_alpha_distance_to_round(geom, imcf.area_radius(geom)))

        track = imcf.record(profile, surf0, T=0.02, dt=1e-3, snap_every=5, observers=[observe])
        return track, c_alpha[0]

    seen = _geometry_grids(monkeypatch)
    fast, c_fast = flow()
    n_fast = len(seen)
    assert set(seen[1:]) == {1}
    monkeypatch.setattr(imcf, "flow_grid", lambda grid, zeta: grid)
    full, c_full = flow()
    assert set(seen[n_fast:]) == {nph}

    assert c_fast == c_full
    assert fast.r0 == full.r0
    for f in dataclasses.fields(imcf.FlowSeries):
        got, ref = getattr(fast.series, f.name), getattr(full.series, f.name)
        assert _close(got, ref, FLOORS.get(f.name, 0.0)), (f.name, np.max(np.abs(got - ref)))
    for name in ("snap_zeta", "snap_P1", "snap_P2"):
        got, ref = getattr(fast, name), getattr(full, name)
        assert _close(got, ref), (name, np.max(np.abs(got - ref)))
