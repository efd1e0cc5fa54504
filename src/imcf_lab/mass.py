"""Hawking mass, Geroch monotonicity and the diagnostic integrals of a flow.

Conventions (hyperbolic background, curvature scale -1):

    m_H(Sigma) = sqrt(|Sigma|/(16 pi)^3) (16 pi - int_Sigma (H^2 - 4) dmu)

Along smooth IMCF with ambient R >= -6 the mass is nondecreasing, and the
time derivative of int (H^2 - 4) dmu satisfies an exact identity against
(m_H/2 - dm_H/dt); both are checked here discretely, together with the
monotonicity inequality whose slack is 4 pi (2 - chi) for surfaces of Euler
characteristic chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FitError
from .imcf import FlowTrack, SnapshotAccumulator
from .surface import SurfaceGeometry, grad_pairing, integrate

SIXTEEN_PI = 16.0 * np.pi


@dataclass
class MassDiagnostics:
    """Per-time-step mass and roundness diagnostics of a flow track."""

    times: np.ndarray
    area: np.ndarray
    m_H: np.ndarray
    dmH_dt: np.ndarray
    I_gradH: np.ndarray   # int |grad H|^2 / H^2
    I_pinch: np.ndarray   # int (lambda_1 - lambda_2)^2
    I_R: np.ndarray       # int (R + 6)
    I_Rc: np.ndarray      # int (Rc(nu,nu) + 2)
    I_K12: np.ndarray     # int (K12 + 1)
    I_H2: np.ndarray      # int (H^2 - 4)
    I_A2: np.ndarray      # int (|A|^2 - 2)
    I_prod: np.ndarray    # int (lambda_1 lambda_2 - 1)
    chi: np.ndarray
    Hbar2: np.ndarray     # area average of H^2
    hbar: np.ndarray      # area average of H


@dataclass
class GerochResiduals:
    """Discrete residuals of the mass-growth identity and inequality.

    ``identity``  |d/dt I_H2 - (16pi)^{3/2} |Sigma|^{-1/2} (m_H/2 - m_H')|,
                  an exact identity; vanishes at the discretization order.
    ``slack``     (16pi)^{3/2} m_H / (2 |Sigma|^{1/2}) - RHS.  Equals
                  4 pi (2 - chi) identically, so it is ~0 for spheres.
    ``margin``    (16pi)^{3/2} m_H / |Sigma|^{1/2} - RHS = slack + LHS/2.
                  Nonnegative exactly when the Hawking mass is, carrying the
                  monotonicity content; goes negative when m_H(Sigma_0) < 0.
    """

    times: np.ndarray
    identity: np.ndarray
    slack: np.ndarray
    margin: np.ndarray


@dataclass
class PinchReport:
    """Node-wise verdicts for the metric pinching bounds."""

    times: np.ndarray
    lower_ok: np.ndarray   # g(t) >= exp(int 2 lambda_1/H) g(0), per node
    upper_ok: np.ndarray   # g(t) <= exp(int 2 lambda_2/H) g(0), per node
    worst_lower: float     # most negative normalized eigenvalue seen (lower bound)
    worst_upper: float

    @property
    def n_violations(self) -> int:
        return int(np.sum(~self.lower_ok) + np.sum(~self.upper_ok))


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


def hawking_mass(geom: SurfaceGeometry) -> float:
    """Quasi-local mass of a surface in the hyperbolic-background convention."""
    defect = SIXTEEN_PI - integrate(geom, geom.H**2 - 4.0)
    return float(np.sqrt(geom.area / SIXTEEN_PI**3) * defect)


def _ddt(series: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences inside, second-order one-sided at the ends."""
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * dt)
    out[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * dt)
    return out


def diagnostics(track: FlowTrack) -> MassDiagnostics:
    """Assemble the per-step diagnostics recorded along a flow."""
    s = track.series
    return MassDiagnostics(
        times=s.times,
        area=s.area,
        m_H=s.m_H,
        dmH_dt=_ddt(s.m_H, track.dt),
        I_gradH=s.I_gradH,
        I_pinch=s.I_pinch,
        I_R=s.I_R,
        I_Rc=s.I_Rc,
        I_K12=s.I_K12,
        I_H2=s.I_H2,
        I_A2=s.I_A2,
        I_prod=s.I_prod,
        chi=s.chi,
        Hbar2=s.hbar2,
        hbar=s.hbar,
    )


def geroch_identity_residual(track: FlowTrack) -> GerochResiduals:
    """Residuals of the mass-growth identity and the monotonicity inequality."""
    if track.n_steps < 2:
        raise ValueError("need at least 2 steps for time differences")
    s = track.series
    dt = track.dt
    coeff = SIXTEEN_PI**1.5 / np.sqrt(s.area)
    lhs_id = _ddt(s.I_H2, dt)
    rhs_id = coeff * (0.5 * s.m_H - _ddt(s.m_H, dt))
    rhs_mono = lhs_id + 2.0 * s.I_gradH + 0.5 * s.I_pinch + s.I_R
    return GerochResiduals(
        times=s.times,
        identity=np.abs(lhs_id - rhs_id),
        slack=0.5 * s.m_H * coeff - rhs_mono,
        margin=s.m_H * coeff - rhs_mono,
    )


def weak_ricci_pairing(
    track: FlowTrack,
    psi: ProbeField,
    a: float,
    b: float,
    stride: int = 1,
) -> tuple[float, float]:
    """Both sides of the weak normal-Ricci identity over Sigma x [a, b].

    lhs = int_a^b int 2 psi Rc(nu,nu) dmu dt
    rhs = int_{Sigma_a} psi H^2 dmu - int_{Sigma_b} psi H^2 dmu
          + int_a^b int [ 2 psi |grad H|^2/H^2 - 2 <grad psi, grad H>/H
                          + psi (H^2 - 2|A|^2) + psi_t H^2 ] dmu dt

    The time-derivative term of the test function is part of the identity and
    is kept (dropping it changes the result for time-dependent psi).
    """
    if not 0.0 <= a < b <= track.T + 1e-12:
        raise ValueError(f"need 0 <= a < b <= T, got [{a}, {b}]")
    ja = track.snap_index_of_time(a)
    jb = track.snap_index_of_time(b)
    sel = np.arange(ja, jb + 1)
    if stride > 1:
        sel = np.unique(np.concatenate([sel[::stride], [jb]]))
    t_nodes = track.snap_times[sel]

    grid = track.grid
    TH = grid.broadcast_theta(grid.theta)
    PH = np.broadcast_to(grid.phi[None, :], grid.shape)

    lhs_t = np.empty(len(sel))
    bulk_t = np.empty(len(sel))
    surf_a = surf_b = 0.0
    for i, j in enumerate(sel):
        geom = track.snapshot_geometry(int(j))
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


class PinchAccumulator(SnapshotAccumulator):
    """Streaming form of ``pinch_bounds_check``; reads every stored snapshot."""

    def __init__(self, snap_times: np.ndarray, shape: tuple, tol: float = 1e-9):
        super().__init__(np.arange(len(snap_times)))
        self.times = snap_times
        self.tol = tol
        self.lower_ok = np.empty((len(snap_times), *shape), dtype=bool)
        self.upper_ok = np.empty_like(self.lower_ok)
        self.worst_low = self.worst_up = 0.0
        self._g0 = None

    def take(self, i, j, t, geom, P1, P2) -> None:
        if j == 0:
            self._g0 = (geom.g11, geom.g12, geom.g22)
        g0_11, g0_12, g0_22 = self._g0
        e1 = np.exp(P1)
        e2 = np.exp(P2)
        scale = geom.g11 + geom.g22

        def min_eig(a, b, c):
            tr = a + c
            disc = np.sqrt(np.maximum((a - c) ** 2 + 4.0 * b**2, 0.0))
            return 0.5 * (tr - disc)

        low = min_eig(geom.g11 - e1 * g0_11, geom.g12 - e1 * g0_12, geom.g22 - e1 * g0_22)
        up = min_eig(e2 * g0_11 - geom.g11, e2 * g0_12 - geom.g12, e2 * g0_22 - geom.g22)
        self.lower_ok[j] = low >= -self.tol * scale
        self.upper_ok[j] = up >= -self.tol * scale
        self.worst_low = min(self.worst_low, float(np.min(low / scale)))
        self.worst_up = min(self.worst_up, float(np.min(up / scale)))

    def result(self) -> PinchReport:
        self._require_complete()
        return PinchReport(
            times=self.times,
            lower_ok=self.lower_ok,
            upper_ok=self.upper_ok,
            worst_lower=self.worst_low,
            worst_upper=self.worst_up,
        )


def pinch_bounds_check(track: FlowTrack, tol: float = 1e-9) -> PinchReport:
    """Verify the metric growth bounds from the principal-curvature spread.

    At every snapshot time and node the induced metric must satisfy

        exp(int_0^t 2 lambda_1/H) g(x,0) <= g(x,t) <= exp(int_0^t 2 lambda_2/H) g(x,0)

    as 2x2 quadratic forms; eigenvalue signs are tested relative to the local
    metric scale with tolerance ``tol``.  Replays the track through
    ``PinchAccumulator``.
    """
    acc = PinchAccumulator(track.snap_times, track.grid.shape, tol)
    track.replay(acc)
    return acc.result()


def area_parameterization_residual(track: FlowTrack):
    """Per-time defect of the exponential area normalization and of H - Hbar.

    Returns (times, int |dmu/(r0^2 e^t dsigma) - 1| dsigma, int (H - Hbar)^2 dmu).
    """
    s = track.series
    return s.times, s.param_res, s.hdev


def mass_at_infinity(
    times,
    m_H,
    tail_fraction: float = 0.5,
    max_residual: float = 1e-3,
) -> float:
    """Extrapolated limit of the mass series via a two-term e^{-t/2} tail fit."""
    times = np.asarray(times, dtype=float)
    m_H = np.asarray(m_H, dtype=float)
    if times[-1] < 2.0:
        raise ValueError("mass-at-infinity extrapolation needs a run with T >= 2")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    t0 = times[-1] * (1.0 - tail_fraction)
    sel = times >= t0
    t = times[sel]
    y = m_H[sel]
    design = np.column_stack([np.ones_like(t), np.exp(-0.5 * t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fit = design @ coef
    rms = float(np.sqrt(np.mean((fit - y) ** 2)))
    m_inf = float(coef[0])
    if rms > max_residual * max(1.0, abs(m_inf)):
        raise FitError(
            f"tail fit residual {rms:.3g} exceeds threshold "
            f"{max_residual * max(1.0, abs(m_inf)):.3g}"
        )
    return m_inf
