"""Star-shaped surfaces as radial graphs over S^2 and their geometry.

A surface is a nodal field zeta(theta, phi) of area radii, the graph r = f
with zeta = lambda(f).  Its geometry needs zeta alone: with lambda', lambda''
from the profile's s-form, the chain rule gives f_a = zeta_a / lambda' and
Hess_ab f = (Hess_ab zeta - lambda'' f_a f_b) / lambda'.  With ambient metric
dr^2 + lambda(r)^2 sigma the induced metric and second fundamental form are

    g_ab = lambda^2 sigma_ab + f_a f_b
    A_ab = (lambda lambda' sigma_ab + 2 (lambda'/lambda) f_a f_b - Hess_ab f) / v
    v    = sqrt(1 + |grad_sigma f|^2 / lambda^2)

where Hess is the covariant Hessian on the round sphere and the normal is
outward (coordinate spheres get H = 2 lambda'/lambda > 0).  Principal
curvatures come from the pencil (A, g); the pinch (lambda_1 - lambda_2)^2 is
computed from the trace-free part of A to avoid cancellation at umbilic
points.  Ambient curvatures are tilted into the actual normal direction:

    Rc(nu,nu) = Rc_rr / v^2 + (1 - 1/v^2)(R - Rc_rr)/2
    K12       = R/2 - Rc(nu,nu)

which is exact for a 3-dimensional ambient (the sectional curvature of a plane
equals R/2 minus the Ricci curvature of its normal).  The Gauss equation
K = K12 + lambda_1 lambda_2 then gives the intrinsic curvature.

``geometry`` runs in two consecutive parts.  ``speed_geometry`` is the first:
the s-form, the zeta derivatives, the chain rule, g, A, v and H, with every
guard (domain and profile errors from the s-form, det g <= 0, H <= 0).  That
is all the flow's normal speed v/H needs, so the RK2 midpoint stops there.
``geometry`` then adds the diagnostics: the pinch split, the tilted ambient
curvatures, K, the area density, grad H and the area.

Both take a batch as they take one surface: every formula is node-wise, the
grid's derivatives act on the last two axes and the area is a sum per row,
so each row of a batch gets its lone geometry bit for bit.  Their guards
test the whole batch: a batch raises if any of its rows would.

On the meridian grid (n_phi = 1) zeta is ring-constant, so every phi
derivative is an exact zero, and both drop the terms those zeros enter:
f_p, the phi parts of the Hessian, g12, A12, B12 and grad_phi H.  The rest
is the general algebra in its order and association; adding or subtracting
an exact zero is exact, so every node keeps its bits.  g12 and A12 are
zeros there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .ambient import AmbientProfile
from .errors import CurvatureError, DomainError, GeometryError
from .sphere_grid import SphereGrid


@dataclass
class GraphSurface:
    """Radial graph over a sphere grid; zeta holds the area radius per node.

    The ambient profile is not part of it: ``geometry`` and
    ``speed_geometry`` take the profile as their own argument.  A batch of
    k rows stacks their zeta on a leading row axis, shape (k, n_theta,
    n_phi), and its geometry takes an ``imcf.ProfileStack``.
    """

    grid: SphereGrid
    zeta: np.ndarray

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=float)
        if self.zeta.shape[-2:] != self.grid.shape or self.zeta.ndim > 3:
            raise GeometryError(
                f"graph shape {self.zeta.shape} != grid shape {self.grid.shape}"
            )
        # a NaN makes the minimum NaN, so the test fails on it too
        lo = np.minimum.reduce(self.zeta, axis=None)
        hi = np.maximum.reduce(self.zeta, axis=None)
        if not (lo > 0.0 and hi < np.inf):
            raise GeometryError("graph area radii must be finite and positive")


@dataclass
class SpeedGeometry:
    """Part 1 of ``geometry``: the fields up to H, which set the flow's speed."""

    surface: GraphSurface
    lam: np.ndarray
    dlam: np.ndarray
    v: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    det_g: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A22: np.ndarray
    H: np.ndarray
    grad_f_sigma2: np.ndarray  # |grad f|^2 w.r.t. the round metric
    R: np.ndarray              # ambient scalar curvature
    Rc_rr: np.ndarray          # ambient Ricci curvature in the radial direction

    @property
    def grid(self) -> SphereGrid:
        return self.surface.grid


@dataclass
class SurfaceGeometry(SpeedGeometry):
    """Per-node extrinsic/intrinsic geometry of a graph surface."""

    dmu: np.ndarray            # area density relative to the grid weights
    pinch2: np.ndarray         # (lambda_1 - lambda_2)^2
    lam1: np.ndarray
    lam2: np.ndarray
    prod12: np.ndarray         # lambda_1 * lambda_2
    absA2: np.ndarray
    Rc_nn: np.ndarray
    K12: np.ndarray
    K: np.ndarray
    grad_H2: np.ndarray        # |grad H|^2 w.r.t. the induced metric
    area: float = field(default=0.0)  # on a batch, one per row


def make_graph(
    profile: AmbientProfile,
    grid: SphereGrid,
    rbar: float,
    formula: str = "round",
    amplitude: float = 0.0,
) -> GraphSurface:
    """Named initial graphs used by the scenario harness.

    ``round``     f = rbar (1 + a (3 cos^2(theta) - 1)/2), a genuine
                  quadrupole flattening with first-order curvature content;
                  the coordinate sphere f == rbar, bit for bit, at a = 0
    ``ellipsoid`` f = rbar (1 + a cos(theta)), a translated-sphere-like mode
                  whose curvature deviation is second order in a
    ``bumpy``     f = rbar (1 + a sin^2(theta) cos(2 phi)), a non-axisymmetric
                  probe that is polynomial in cos(theta) per azimuthal mode
    """
    th = grid.broadcast_theta(grid.theta)
    ph = np.broadcast_to(grid.phi[None, :], grid.shape)
    if formula == "round":
        f = rbar * (1.0 + amplitude * 0.5 * (3.0 * np.cos(th) ** 2 - 1.0))
    elif formula == "ellipsoid":
        f = rbar * (1.0 + amplitude * np.cos(th))
    elif formula == "bumpy":
        f = rbar * (1.0 + amplitude * np.sin(th) ** 2 * np.cos(2.0 * ph))
    else:
        raise ValueError(f"unknown graph formula {formula!r}")
    if np.min(f) <= 0.0:
        raise DomainError(f"surface amplitude {amplitude:g} gives the {formula} graph a radius <= 0")
    return GraphSurface(grid, profile.area_radius_from_radius(f))


def speed_geometry(profile: AmbientProfile, surface: GraphSurface) -> SpeedGeometry:
    """Metric, second fundamental form and H: all the flow's speed v/H reads."""
    grid = surface.grid
    lam = surface.zeta
    dlam, d2lam, R_amb, rc_rad, _ = profile.warp_at_area_radius(lam)
    if grid.n_phi == 1:
        return _meridian_speed_geometry(surface, dlam, d2lam, R_amb, rc_rad)

    z_t, z_tt = grid.theta_derivs(lam)
    z_p, z_pp = grid.phi_derivs(lam)
    z_tp = grid.dtheta(z_p)

    st, ct, cot = grid.factors(lam.shape)

    # graph gradient and covariant Hessian on (S^2, sigma), by the chain rule
    inv_dlam = 1.0 / dlam
    f_t = z_t * inv_dlam
    f_p = z_p * inv_dlam
    hess_tt = (z_tt - d2lam * f_t * f_t) * inv_dlam
    hess_tp = (z_tp - cot * z_p - d2lam * f_t * f_p) * inv_dlam
    hess_pp = (z_pp + st * ct * z_t - d2lam * f_p * f_p) * inv_dlam

    grad_f_sigma2 = f_t**2 + (f_p / st) ** 2
    v = np.sqrt(1.0 + grad_f_sigma2 / lam**2)

    g11 = lam**2 + f_t**2
    g12 = f_t * f_p
    g22 = (lam * st) ** 2 + f_p**2
    det_g = g11 * g22 - g12**2
    _check_metric(det_g)

    c = 2.0 * dlam / lam
    A11 = (lam * dlam + c * f_t**2 - hess_tt) / v
    A12 = (c * f_t * f_p - hess_tp) / v
    A22 = (lam * dlam * st**2 + c * f_p**2 - hess_pp) / v

    H = (A11 * g22 + A22 * g11 - 2.0 * A12 * g12) / det_g
    _check_mean_curvature(H)
    return SpeedGeometry(
        surface=surface,
        lam=lam, dlam=dlam, v=v,
        g11=g11, g12=g12, g22=g22, det_g=det_g,
        A11=A11, A12=A12, A22=A22, H=H,
        grad_f_sigma2=grad_f_sigma2, R=R_amb, Rc_rr=rc_rad,
    )


def _meridian_speed_geometry(surface, dlam, d2lam, R_amb, rc_rad) -> SpeedGeometry:
    """``speed_geometry`` on the meridian.  zeta is ring-constant there, so
    f_p = z_pp = z_tp = 0 and every term they enter is an exact zero: this
    is the general algebra with those terms dropped and every other
    operation in its order and association, so each node keeps its bits.
    g12 and A12 are zeros."""
    grid = surface.grid
    lam = surface.zeta
    z_t, z_tt = grid.theta_derivs(lam)
    st, ct, _ = grid.factors(lam.shape)

    inv_dlam = 1.0 / dlam
    f_t = z_t * inv_dlam
    hess_tt = (z_tt - d2lam * f_t * f_t) * inv_dlam
    hess_pp = (st * ct * z_t) * inv_dlam

    ft2 = f_t**2
    lam2 = lam**2
    v = np.sqrt(1.0 + ft2 / lam2)

    g11 = lam2 + ft2
    g22 = (lam * st) ** 2
    det_g = g11 * g22
    _check_metric(det_g)

    c = 2.0 * dlam / lam
    lam_dlam = lam * dlam
    A11 = (lam_dlam + c * ft2 - hess_tt) / v
    A22 = (lam_dlam * st**2 - hess_pp) / v

    H = (A11 * g22 + A22 * g11) / det_g
    _check_mean_curvature(H)
    zeros = np.zeros(lam.shape)
    return SpeedGeometry(
        surface=surface,
        lam=lam, dlam=dlam, v=v,
        g11=g11, g12=zeros, g22=g22, det_g=det_g,
        A11=A11, A12=zeros, A22=A22, H=H,
        grad_f_sigma2=ft2, R=R_amb, Rc_rr=rc_rad,
    )


def _check_metric(det_g) -> None:
    if (det_g <= 0.0).any():
        raise GeometryError("induced metric degenerate (det g <= 0)")


def _check_mean_curvature(H) -> None:
    # elementwise, not by the minimum: a NaN minimum would hide a negative H
    if (H <= 0.0).any():
        raise CurvatureError(
            f"mean curvature nonpositive (min H = {float(np.min(H)):.6g})"
        )


def geometry(profile: AmbientProfile, surface: GraphSurface) -> SurfaceGeometry:
    """First/second fundamental forms, curvatures and area element."""
    sp = speed_geometry(profile, surface)
    grid, H = sp.grid, sp.H
    g11, g12, g22, det_g = sp.g11, sp.g12, sp.g22, sp.det_g

    # trace-free part keeps the umbilic pinch at round-off instead of
    # suffering the cancellation in H^2 - 4 det(A)/det(g)
    B11 = sp.A11 - 0.5 * H * g11
    B22 = sp.A22 - 0.5 * H * g22
    H_t = grid.dtheta(H)
    if grid.n_phi == 1:
        # on the meridian B12 = H_p = 0: their terms are dropped, as in
        # speed_geometry, and the rest keeps its bits
        pinch2 = np.maximum(-4.0 * (B11 * B22) / det_g, 0.0)
        grad_H2 = (g22 * H_t**2) / det_g
    else:
        B12 = sp.A12 - 0.5 * H * g12
        pinch2 = np.maximum(-4.0 * (B11 * B22 - B12**2) / det_g, 0.0)
        H_p = grid.dphi(H)
        grad_H2 = (g22 * H_t**2 - 2.0 * g12 * H_t * H_p + g11 * H_p**2) / det_g
    gap = np.sqrt(pinch2)
    lam1 = 0.5 * (H - gap)
    lam2 = 0.5 * (H + gap)
    H2 = H**2
    prod12 = 0.25 * (H2 - pinch2)
    absA2 = 0.5 * (H2 + pinch2)

    # ambient curvatures tilted from the radial frame to the actual normal
    inv_v2 = 1.0 / sp.v**2
    rc_nn = sp.Rc_rr * inv_v2 + (1.0 - inv_v2) * 0.5 * (sp.R - sp.Rc_rr)
    k12 = 0.5 * sp.R - rc_nn
    K = k12 + prod12

    dmu = np.sqrt(det_g) / grid.factors(det_g.shape)[0]

    geom = SurfaceGeometry(
        **vars(sp),
        dmu=dmu, pinch2=pinch2, lam1=lam1, lam2=lam2, prod12=prod12, absA2=absA2,
        Rc_nn=rc_nn, K12=k12, K=K, grad_H2=grad_H2,
    )
    geom.area = integrate(geom, 1.0)
    return geom


def integrate(geom: SurfaceGeometry, field):
    """Surface integral of a nodal field against the area measure: a float,
    or on a batch one per row (a sum over each row's last two axes, which is
    bit for bit the row's own sum)."""
    total = np.add.reduce(field * geom.dmu * geom.grid.weights, axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def intrinsic_diameter(geom: SurfaceGeometry, grid: SphereGrid) -> float:
    """Upper diameter estimate by shortest paths over ``grid``'s lattice.

    ``grid`` is the scenario's (n_theta, n_phi) grid; ``geom`` is on it, or
    is an (n_theta, 1) meridian column of a ring-constant geometry on it.
    Nodes join their phi and theta neighbors and both diagonals; an edge's
    length uses the induced metric averaged between its endpoints.  The
    maximum is taken over shortest paths from eight sources, seven spread
    over latitude rings and the largest-radius node, each path length an
    upper bound for the true distance between its endpoints.  The lattice
    overestimates the diameter to first order in the grid spacing: by 3.1
    percent at 16x32 and 1.0 percent at 64x128 on a round sphere.

    A column builds only the lattice's phi -> -phi half, columns 0 ..
    n_phi/2, from its own g11 and g22: a ring-constant metric, whose g12 is
    an exact zero on the column, gives every edge the weight of its
    rotations and of its reflection.  So a source on ring i may sit at
    column 0, and from there each node's distance is its mirror's.
    Dijkstra's distances with nonnegative weights are each the least
    left-to-right sum over paths, whatever order nodes are settled in, and
    the half lattice holds the full one's paths folded, edge for edge, so
    every distance keeps its bits.
    """
    nt, np_ = grid.shape
    if np_ == 1:
        raise GeometryError("the diameter needs a 2D grid; the meridian has no lattice")
    if geom.grid.n_phi > 1:
        if geom.grid.shape != grid.shape:
            raise GeometryError(f"a {geom.grid.shape} geometry is not on the {grid.shape} lattice")
        graph, sources = _lattice(geom)
    else:
        if geom.grid.n_theta != nt:
            raise GeometryError(f"a column of {geom.grid.n_theta} rings is not on the {grid.shape} lattice")
        if np_ % 2:
            raise GeometryError(f"the lattice's half needs an even n_phi, not {np_}")
        graph, sources = _half_lattice(geom, grid)
    dist = dijkstra(graph, directed=False, indices=sources)
    return float(np.max(dist[np.isfinite(dist)]))


def _spread_rings(nt: int) -> np.ndarray:
    """The seven latitude rings the lattice's sources spread over."""
    return np.linspace(0, nt - 1, 7).astype(int)


def _lattice(geom: SurfaceGeometry):
    """The full grid's lattice with the metric's own edge lengths, and its
    sources."""
    grid = geom.grid
    nt, np_ = grid.shape
    n = nt * np_
    idx = np.arange(n).reshape(nt, np_)

    rows, cols, lens = [], [], []

    def add_edges(src, dst, dth, dph):
        gm11 = 0.5 * (geom.g11.ravel()[src] + geom.g11.ravel()[dst])
        gm12 = 0.5 * (geom.g12.ravel()[src] + geom.g12.ravel()[dst])
        gm22 = 0.5 * (geom.g22.ravel()[src] + geom.g22.ravel()[dst])
        L = np.sqrt(gm11 * dth**2 + 2.0 * gm12 * dth * dph + gm22 * dph**2)
        rows.append(src)
        cols.append(dst)
        lens.append(L)

    dphi = 2.0 * np.pi / np_
    # phi neighbors (periodic)
    src = idx.ravel()
    dst = np.roll(idx, -1, axis=1).ravel()
    add_edges(src, dst, np.zeros(n), np.full(n, dphi))
    # theta neighbors
    src = idx[:-1, :].ravel()
    dst = idx[1:, :].ravel()
    dth = np.repeat(np.diff(grid.theta), np_)
    add_edges(src, dst, dth, np.zeros_like(dth))
    # diagonals
    for shift in (1, -1):
        src = idx[:-1, :].ravel()
        dst = np.roll(idx, -shift, axis=1)[1:, :].ravel()
        add_edges(src, dst, dth, np.full_like(dth, shift * dphi))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    lens = np.concatenate(lens)
    graph = coo_matrix((lens, (rows, cols)), shape=(n, n))

    sources = [idx[i, (i * 7) % np_] for i in _spread_rings(nt)]
    sources.append(int(np.argmax(geom.surface.zeta)))
    return graph, sorted(set(sources))


def _half_lattice(geom: SurfaceGeometry, grid: SphereGrid):
    """Columns 0 .. n_phi/2 of ``grid``'s lattice for a ring-constant
    column, with the full lattice's edge lengths, and one source per
    distinct source ring of the full lattice, at column 0.

    Each length is ``_lattice``'s expression with its exact-zero terms
    dropped (g12 = 0, and dphi = 0 or dtheta = 0): adding a zero changes
    no bit, and a phi edge's mean of its ring with itself is the ring's
    value.  A diagonal's dphi enters squared, so both diagonal families
    between two rings have one length."""
    nt, np_ = grid.shape
    half = np_ // 2 + 1
    idx = np.arange(nt * half).reshape(nt, half)
    g11, g22 = geom.g11[:, 0], geom.g22[:, 0]

    dphi = 2.0 * np.pi / np_
    dph2 = dphi * dphi
    dth2 = np.diff(grid.theta) ** 2
    gm11 = 0.5 * (g11[:-1] + g11[1:])
    gm22 = 0.5 * (g22[:-1] + g22[1:])
    on_ring = np.sqrt(g22 * dph2)
    across = np.sqrt(gm11 * dth2)
    diagonal = np.sqrt(gm11 * dth2 + gm22 * dph2)

    families = (
        (idx[:, :-1], idx[:, 1:], on_ring),          # phi neighbors
        (idx[:-1, :], idx[1:, :], across),           # theta neighbors
        (idx[:-1, :-1], idx[1:, 1:], diagonal),      # diagonals, dphi > 0
        (idx[:-1, 1:], idx[1:, :-1], diagonal),      # diagonals, dphi < 0
    )
    rows = np.concatenate([src.ravel() for src, _, _ in families])
    cols = np.concatenate([dst.ravel() for _, dst, _ in families])
    lens = np.concatenate(
        [np.broadcast_to(L[:, None], src.shape).ravel() for src, _, L in families]
    )
    graph = coo_matrix((lens, (rows, cols)), shape=(nt * half, nt * half))

    rings = {*_spread_rings(nt).tolist(), int(np.argmax(geom.surface.zeta))}
    return graph, idx[sorted(rings), 0]
