"""Independent brute-force oracles used to validate the geometry kernels.

The embedding oracle computes the mean curvature of a graph surface from
nothing but the ambient metric components in the (r, theta, phi) chart:
position-map derivatives by central finite differences, Christoffel symbols
by finite differences of the metric, normal by linear algebra.  It shares no
code path (covariant Hessian, spectral differentiation, shape operator) with
the implementation it checks.
"""

import numpy as np


def ambient_metric(profile, y):
    r, th, _ = y
    lam = profile.warp(r)[0]
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
    lam = profile.warp(r)[0]
    lam_p = (profile.warp(r + h)[0] - profile.warp(r - h)[0]) / (2 * h)
    lam_pp = (profile.warp(r + h)[0] - 2 * lam + profile.warp(r - h)[0]) / h**2
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
