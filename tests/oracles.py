"""Independent brute-force oracles used to validate the geometry kernels.

The embedding oracle computes the mean curvature of a graph surface from
nothing but the ambient metric components in the (r, theta, phi) chart:
position-map derivatives by central finite differences, Christoffel symbols
by finite differences of the metric, normal by linear algebra.  It shares no
code path (covariant Hessian, spectral differentiation, shape operator) with
the implementation it checks.

The weak normal-Ricci pairing integrates the flow's weak identity for
Rc(nu, nu) against a probe field over the snapshots of a recorded track.

The general geometry is the surface geometry's algebra with every phi term
in place, as the meridian's fast path that drops them was checked against.

The round-row reference gives a round row's report columns in closed form
from the ambient's mass aspect m(s) alone; next to it are the round flow's
trajectory and mean curvature in a built profile, and that profile's m(s).

The last group holds the textbook definitions the flow's recorded series are
checked against: the coordinate sphere, the Hawking mass, the Gauss-Bonnet
Euler characteristic and the model round flow's mean curvature; and a lone
row's series entries as the flow recorded them before rows were batched, one
sum, minimum or maximum per field over the row's own nodes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from imcf_lab.comparison import sample_indices
from imcf_lab.errors import CurvatureError, GeometryError
from imcf_lab.imcf import _on_grid, time_grid
from imcf_lab.mass import SIXTEEN_PI
from imcf_lab.surface import GraphSurface, SurfaceGeometry, integrate


def ambient_metric(profile, y):
    r, th, _ = y
    lam = profile.warp_curvature(r)[0]
    return np.diag([1.0, lam * lam, lam * lam * np.sin(th) ** 2])


def christoffel_fd(profile, y, h=1e-5):
    G0 = ambient_metric(profile, y)
    Gi = np.linalg.inv(G0)
    dG = np.zeros((3, 3, 3))
    for k in range(3):
        yp = np.array(y, float)
        ym = np.array(y, float)
        yp[k] += h
        ym[k] -= h
        dG[k] = (ambient_metric(profile, yp) - ambient_metric(profile, ym)) / (2 * h)
    gam = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                gam[i, j, k] = 0.5 * sum(
                    Gi[i, l] * (dG[j, l, k] + dG[k, j, l] - dG[l, j, k])
                    for l in range(3)
                )
    return gam


def embedding_mean_curvature(profile, f_func, theta, phi, h=1e-4):
    """H of the graph r = f(theta, phi) at one point, fully by differences."""

    def pos(t, p):
        return np.array([f_func(t, p), t, p])

    y0 = pos(theta, phi)
    T = np.zeros((2, 3))
    T[0] = (pos(theta + h, phi) - pos(theta - h, phi)) / (2 * h)
    T[1] = (pos(theta, phi + h) - pos(theta, phi - h)) / (2 * h)
    d2 = np.zeros((2, 2, 3))
    d2[0, 0] = (pos(theta + h, phi) - 2 * y0 + pos(theta - h, phi)) / h**2
    d2[1, 1] = (pos(theta, phi + h) - 2 * y0 + pos(theta, phi - h)) / h**2
    d2[0, 1] = d2[1, 0] = (
        pos(theta + h, phi + h)
        - pos(theta + h, phi - h)
        - pos(theta - h, phi + h)
        + pos(theta - h, phi - h)
    ) / (4 * h**2)

    G = ambient_metric(profile, y0)
    hab = np.einsum("ai,ij,bj->ab", T, G, T)
    # normal: G-orthogonal to both tangents, unit, outward (positive dr part)
    n = np.linalg.svd(T @ G)[2][-1]
    n = n / np.sqrt(n @ G @ n)
    if n[0] < 0:
        n = -n
    gam = christoffel_fd(profile, y0)
    A = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            cov = d2[a, b] + np.einsum("ijk,j,k->i", gam, T[a], T[b])
            A[a, b] = -(n @ G @ cov)
    return float(np.trace(np.linalg.inv(hab) @ A))


def fd_warp_curvature(profile, r, h=1e-4):
    """Scalar curvature at r from finite differences of the warp alone."""
    lam, lam_plus, lam_minus = (profile.warp_curvature(x)[0] for x in (r, r + h, r - h))
    lam_p = (lam_plus - lam_minus) / (2 * h)
    lam_pp = (lam_plus - 2 * lam + lam_minus) / h**2
    return 2.0 * (1.0 - lam_p**2) / lam**2 - 4.0 * lam_pp / lam


def r_path_geometry(profile, grid, f):
    """Graph geometry computed from the radii f: the spectral derivatives act
    on f itself and the warp is evaluated at r.  This is the formulation the
    area-radius geometry replaced; it is kept as the reference for it."""
    f_t, f_tt = grid.theta_derivs(f)
    f_p, f_pp = grid.phi_derivs(f)
    f_tp = grid.dtheta(f_p)

    st = grid.sin_theta[:, None]
    ct = grid.cos_theta[:, None]
    cot = grid.cot_theta[:, None]
    hess_tt = f_tt
    hess_tp = f_tp - cot * f_p
    hess_pp = f_pp + st * ct * f_t

    lam, dlam, _, R_amb, rc_rad, _ = profile.warp_curvature(f)
    v = np.sqrt(1.0 + (f_t**2 + (f_p / st) ** 2) / lam**2)

    g11 = lam**2 + f_t**2
    g12 = f_t * f_p
    g22 = (lam * st) ** 2 + f_p**2
    det_g = g11 * g22 - g12**2

    c = 2.0 * dlam / lam
    A11 = (lam * dlam + c * f_t**2 - hess_tt) / v
    A12 = (c * f_t * f_p - hess_tp) / v
    A22 = (lam * dlam * st**2 + c * f_p**2 - hess_pp) / v
    H = (A11 * g22 + A22 * g11 - 2.0 * A12 * g12) / det_g

    B11 = A11 - 0.5 * H * g11
    B12 = A12 - 0.5 * H * g12
    B22 = A22 - 0.5 * H * g22
    pinch2 = np.maximum(-4.0 * (B11 * B22 - B12**2) / det_g, 0.0)
    prod12 = 0.25 * (H**2 - pinch2)

    inv_v2 = 1.0 / v**2
    rc_nn = rc_rad * inv_v2 + (1.0 - inv_v2) * 0.5 * (R_amb - rc_rad)
    k12 = 0.5 * R_amb - rc_nn
    dmu = np.sqrt(det_g) / st

    H_t = grid.dtheta(H)
    H_p = grid.dphi(H)
    grad_H2 = (g22 * H_t**2 - 2.0 * g12 * H_t * H_p + g11 * H_p**2) / det_g
    return {
        "H": H, "g11": g11, "g12": g12, "g22": g22, "dmu": dmu,
        "K": k12 + prod12, "Rc_nn": rc_nn, "K12": k12,
        "absA2": 0.5 * (H**2 + pinch2), "pinch2": pinch2, "grad_H2": grad_H2,
        "area": float(np.sum(dmu * grid.weights)),
    }


def general_geometry(profile, surface) -> SurfaceGeometry:
    """``surface.geometry`` with every phi term computed, on any grid: on the
    meridian the phi derivatives are the grid's zeros and enter the algebra.
    The latitude factors broadcast from (n_theta, 1) columns and the area is
    ``np.sum``'s.  This is the algebra the meridian's fast path replaced; it
    is kept as the reference for it."""
    grid = surface.grid
    lam = surface.zeta
    dlam, d2lam, R_amb, rc_rad, _ = profile.warp_at_area_radius(lam)

    z_t, z_tt = grid.theta_derivs(lam)
    z_p, z_pp = grid.phi_derivs(lam)
    z_tp = grid.dtheta(z_p)

    st = grid.sin_theta[:, None]
    ct = grid.cos_theta[:, None]
    cot = grid.cot_theta[:, None]

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
    if np.any(det_g <= 0.0):
        raise GeometryError("induced metric degenerate (det g <= 0)")

    c = 2.0 * dlam / lam
    A11 = (lam * dlam + c * f_t**2 - hess_tt) / v
    A12 = (c * f_t * f_p - hess_tp) / v
    A22 = (lam * dlam * st**2 + c * f_p**2 - hess_pp) / v

    H = (A11 * g22 + A22 * g11 - 2.0 * A12 * g12) / det_g
    if np.any(H <= 0.0):
        raise CurvatureError(
            f"mean curvature nonpositive (min H = {float(np.min(H)):.6g})"
        )

    B11 = A11 - 0.5 * H * g11
    B12 = A12 - 0.5 * H * g12
    B22 = A22 - 0.5 * H * g22
    pinch2 = np.maximum(-4.0 * (B11 * B22 - B12**2) / det_g, 0.0)
    gap = np.sqrt(pinch2)
    lam1 = 0.5 * (H - gap)
    lam2 = 0.5 * (H + gap)
    prod12 = 0.25 * (H**2 - pinch2)
    absA2 = 0.5 * (H**2 + pinch2)

    inv_v2 = 1.0 / v**2
    rc_nn = rc_rad * inv_v2 + (1.0 - inv_v2) * 0.5 * (R_amb - rc_rad)
    k12 = 0.5 * R_amb - rc_nn
    K = k12 + prod12

    dmu = np.sqrt(det_g) / grid.sin_theta[:, None]

    H_t = grid.dtheta(H)
    H_p = grid.dphi(H)
    grad_H2 = (g22 * H_t**2 - 2.0 * g12 * H_t * H_p + g11 * H_p**2) / det_g

    area = np.sum(1.0 * dmu * grid.weights, axis=(-2, -1))
    return SurfaceGeometry(
        surface=surface,
        lam=lam, dlam=dlam, v=v,
        g11=g11, g12=g12, g22=g22, det_g=det_g,
        A11=A11, A12=A12, A22=A22, H=H,
        grad_f_sigma2=grad_f_sigma2, R=R_amb, Rc_rr=rc_rad,
        dmu=dmu, pinch2=pinch2, lam1=lam1, lam2=lam2, prod12=prod12, absA2=absA2,
        Rc_nn=rc_nn, K12=k12, K=K, grad_H2=grad_H2,
        area=float(area) if area.ndim == 0 else area,
    )


def tabulated_by_inversion(r_nodes, lam_values, s):
    """The radius and the s-form (lambda', lambda'', R, Rc_rr, K12) of a
    tabulated warp at area radius s, by inverting its spline at every call
    (a 2048-point guess and 4 Newton steps) and reading lambda' and lambda''
    at that radius.  This is the formulation the once-built mass aspect
    replaced; it is kept as the reference for it."""
    lam = CubicSpline(r_nodes, lam_values, bc_type="not-a-knot")
    dlam = lam.derivative()
    s = np.asarray(s, dtype=float)
    lo, hi = r_nodes[0], r_nodes[-1]
    grid = np.linspace(lo, hi, 2048)
    r = np.interp(s, lam(grid), grid)
    for _ in range(4):
        r = np.clip(r - (lam(r) - s) / dlam(r), lo, hi)
    d1, d2 = dlam(r), dlam(r, 1)
    k12 = (1.0 - d1 * d1) / s**2
    rc = -2.0 * d2 / s
    return r, (d1, d2, 2.0 * k12 + 2.0 * rc, rc, k12)


def snap_index_of_time(track, t: float) -> int:
    """Index of the stored snapshot at time t."""
    j = int(np.argmin(np.abs(track.snap_times - t)))
    if abs(track.snap_times[j] - t) > 1e-9 * max(1.0, track.T):
        raise ValueError(f"t = {t:.6g} is not a stored snapshot time")
    return j


def lifted_geometry(track, j: int):
    """Stored snapshot j's geometry on the track's grid, a snapshot rebuilt
    on the meridian lifted to it: the diameter's lattice and full-grid probe
    fields need that grid."""
    geom = track.snapshot_geometry(j)
    return geom if geom.grid is track.grid else _on_grid(geom, track.grid)


def grad_pairing(geom, a_t, a_p, b_t, b_p):
    """Pointwise <grad a, grad b> for fields given by coordinate partials."""
    return (
        geom.g22 * a_t * b_t
        - geom.g12 * (a_t * b_p + a_p * b_t)
        + geom.g11 * a_p * b_p
    ) / geom.det_g


@dataclass
class ProbeField:
    """Differentiable test function on Sigma x [0, T] with supplied partials."""

    value: Callable    # (theta, phi, t) -> array
    d_theta: Callable
    d_phi: Callable
    d_t: Callable

    @classmethod
    def constant(cls, c: float = 1.0) -> "ProbeField":
        f = lambda th, ph, t: np.full_like(th, c)
        z = lambda th, ph, t: np.zeros_like(th)
        return cls(value=f, d_theta=z, d_phi=z, d_t=z)

    @classmethod
    def zonal_cos(cls) -> "ProbeField":
        z = lambda th, ph, t: np.zeros_like(th)
        return cls(
            value=lambda th, ph, t: np.cos(th),
            d_theta=lambda th, ph, t: -np.sin(th),
            d_phi=z,
            d_t=z,
        )


def weak_ricci_pairing(
    track,
    psi: ProbeField,
    a: float,
    b: float,
) -> tuple[float, float]:
    """Both sides of the weak normal-Ricci identity over Sigma x [a, b].

    lhs = int_a^b int 2 psi Rc(nu,nu) dmu dt
    rhs = int_{Sigma_a} psi H^2 dmu - int_{Sigma_b} psi H^2 dmu
          + int_a^b int [ 2 psi |grad H|^2/H^2 - 2 <grad psi, grad H>/H
                          + psi (H^2 - 2|A|^2) + psi_t H^2 ] dmu dt

    The time-derivative term of the test function is part of the identity and
    is kept (dropping it changes the result for time-dependent psi).  Reads
    the snapshots of a track from ``imcf.record``.
    """
    if not 0.0 <= a < b <= track.T + 1e-12:
        raise ValueError(f"need 0 <= a < b <= T, got [{a}, {b}]")
    ja = snap_index_of_time(track, a)
    jb = snap_index_of_time(track, b)
    sel = np.arange(ja, jb + 1)
    t_nodes = track.snap_times[sel]

    grid = track.grid
    TH = grid.broadcast_theta(grid.theta)
    PH = np.broadcast_to(grid.phi[None, :], grid.shape)

    lhs_t = np.empty(len(sel))
    bulk_t = np.empty(len(sel))
    surf_a = surf_b = 0.0
    for i, j in enumerate(sel):
        geom = lifted_geometry(track, int(j))
        t = float(track.snap_times[j])
        p = psi.value(TH, PH, t)
        p_th = psi.d_theta(TH, PH, t)
        p_ph = psi.d_phi(TH, PH, t)
        p_t = psi.d_t(TH, PH, t)
        lhs_t[i] = integrate(geom, 2.0 * p * geom.Rc_nn)
        H_th = grid.dtheta(geom.H)
        H_ph = grid.dphi(geom.H)
        cross = grad_pairing(geom, p_th, p_ph, H_th, H_ph)
        bulk = (
            2.0 * p * geom.grad_H2 / geom.H**2
            - 2.0 * cross / geom.H
            + p * (geom.H**2 - 2.0 * geom.absA2)
            + p_t * geom.H**2
        )
        bulk_t[i] = integrate(geom, bulk)
        if j == ja:
            surf_a = integrate(geom, p * geom.H**2)
        if j == jb:
            surf_b = integrate(geom, p * geom.H**2)

    lhs = float(np.trapezoid(lhs_t, t_nodes))
    rhs = surf_a - surf_b + float(np.trapezoid(bulk_t, t_nodes))
    return lhs, rhs


def round_row(m, dm, s0, T, dt, model_m=0.0, exact=False) -> dict:
    """Exact report columns of a round row: the flow s(t) = s0 e^{t/2} in
    the mass aspect m(s), whose derivative is dm(s).

    The sphere of area radius s has area 4 pi s^2, Hawking mass m(s) and
    H = 2 lambda'/s with lambda'^2 = 1 + s^2 - 2 m/s; both principal
    curvatures are H/2, K12 = 2m/s^3 - 1 and R = -6 + 4 m'/s^2.  The series
    columns (and ``times``) are given at every step time t = k dt.

    ``l2_hat_model`` is the hat -> model distance against the model of mass
    ``model_m``.  Their fibers agree, and H^2 L = lambda'^2 / lambda'^2_model
    with L the model's lapse^2, so the distance is
    int 4 pi s^2 (1/(H^2 L) - 1)^2 / H dt: by the trapezoid over the chain's
    own times, as the report takes it, or with ``exact`` by adaptive
    quadrature to 1e-13 relative.
    """
    times, snaps = time_grid(T, dt)
    s = s0 * np.exp(0.5 * times)
    ms, dms = m(s), dm(s)
    q = 1.0 - 2.0 * ms / s  # s^2 (H^2 - 4) / 4
    cols = {
        "times": times,
        "area": 4.0 * np.pi * s**2,
        "m_H": ms,
        "Hbar2": 4.0 * (1.0 + s**2 - 2.0 * ms / s) / s**2,
        "I_H2": 16.0 * np.pi * q,
        "I_A2": 8.0 * np.pi * q,
        "I_prod": 4.0 * np.pi * q,
        "I_Rc": 8.0 * np.pi * (dms - ms / s),
        "I_K12": 8.0 * np.pi * ms / s,
        "I_R": 16.0 * np.pi * dms,
        "chi": np.full_like(s, 2.0),
        "mH_T": float(ms[-1]),
    }

    def hat_model(t):
        sc = s0 * np.exp(0.5 * t)
        dlam2 = 1.0 + sc**2 - 2.0 * m(sc) / sc
        ratio = dlam2 / (1.0 + sc**2 - 2.0 * model_m / sc)  # H^2 L
        H = 2.0 * np.sqrt(dlam2) / sc
        return 4.0 * np.pi * sc**2 * (1.0 / ratio - 1.0) ** 2 / H

    if exact:
        value, _ = quad(hat_model, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=200)
    else:
        tc = times[snaps][sample_indices(len(snaps))]
        value = np.trapezoid(hat_model(tc), tc)
    cols["l2_hat_model"] = float(value)
    return cols


def exact_round_flow(profile, s0: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form round flow: s(t) = s0 e^{t/2} and its mean curvature.

    The area law forces every rotationally symmetric solution onto this
    trajectory; H(t) = 2 lambda'(s)/s = (2/s) sqrt(1 + s^2 - 2 m(s)/s).
    """
    t = np.asarray(t, dtype=float)
    s = s0 * np.exp(0.5 * t)
    return s, 2.0 * profile.warp_at_area_radius(s)[0] / s


def mass_function(profile, s):
    """Mass aspect m(s) = (s/2)(1 + s^2 - lambda'^2) of a built profile."""
    return profile._mass(np.asarray(s, dtype=float))[0]


def make_round(profile, rbar: float, grid) -> GraphSurface:
    """Coordinate sphere f == rbar."""
    f = np.full(grid.shape, float(rbar))
    return GraphSurface(grid, profile.area_radius_from_radius(f), profile)


def hawking_mass(geom) -> float:
    """Quasi-local mass of a surface in the hyperbolic-background convention."""
    defect = SIXTEEN_PI - integrate(geom, geom.H**2 - 4.0)
    return float(np.sqrt(geom.area / SIXTEEN_PI**3) * defect)


def euler_characteristic(geom) -> float:
    """Gauss-Bonnet estimate (1/2pi) * integral of K."""
    return integrate(geom, geom.K) / (2.0 * np.pi)


def model_mean_curvature_sq(t, r0: float, m: float = 0.0):
    """Mean curvature squared of the model round flow, (4/r0^2)(1 - 2m e^{-t/2}/r0) e^{-t} + 4;
    the reciprocal of the model lapse^2 the distance chain uses."""
    t = np.asarray(t, dtype=float)
    return (4.0 / r0**2) * (1.0 - (2.0 / r0) * m * np.exp(-0.5 * t)) * np.exp(-t) + 4.0


def lone_series_entries(geom) -> dict:
    """One step's ``FlowSeries`` entries of a lone row's geometry, each a
    plain sum, minimum or maximum over its nodes (r_min and r_max still in
    area radii), as the flow recorded them row by row."""
    dmu_w = geom.dmu * geom.grid.weights
    area = geom.area
    i_h2 = float(np.sum((geom.H**2 - 4.0) * dmu_w))
    return {
        "area": area,
        "I_H2": i_h2,
        "m_H": np.sqrt(area / (16.0 * np.pi) ** 3) * (16.0 * np.pi - i_h2),
        "I_gradH": np.sum(geom.grad_H2 / geom.H**2 * dmu_w),
        "I_pinch": np.sum(geom.pinch2 * dmu_w),
        "I_R": np.sum((geom.R + 6.0) * dmu_w),
        "I_Rc": np.sum((geom.Rc_nn + 2.0) * dmu_w),
        "I_K12": np.sum((geom.K12 + 1.0) * dmu_w),
        "I_A2": np.sum((geom.absA2 - 2.0) * dmu_w),
        "I_prod": np.sum((geom.prod12 - 1.0) * dmu_w),
        "chi": np.sum(geom.K * dmu_w) / (2.0 * np.pi),
        "Hbar2": np.sum(geom.H**2 * dmu_w) / area,
        "h_min": np.min(geom.H),
        "h_max": np.max(geom.H),
        "absA_max": np.sqrt(np.max(geom.absA2)),
        "r_min": np.min(geom.surface.zeta),
        "r_max": np.max(geom.surface.zeta),
        "gradf_max": np.sqrt(np.max(geom.grad_f_sigma2)),
    }
