"""Hawking mass, Geroch monotonicity and the diagnostic integrals of a flow.

Conventions (hyperbolic background, curvature scale -1):

    m_H(Sigma) = sqrt(|Sigma|/(16 pi)^3) (16 pi - int_Sigma (H^2 - 4) dmu)

Along smooth IMCF with ambient R >= -6 the mass is nondecreasing, and the
time derivative of int (H^2 - 4) dmu satisfies an exact identity against
(m_H/2 - dm_H/dt); both are checked here discretely, together with the
monotonicity inequality whose slack is 4 pi (2 - chi) for surfaces of Euler
characteristic chi.

The flow records the mass and the diagnostic integrals at every step, in its
``imcf.FlowSeries``; ``diagnostics`` returns that series, and the identity
residuals here are computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .imcf import FlowSeries, FlowTrack, SnapshotAccumulator
from .sphere_grid import SphereGrid

SIXTEEN_PI = 16.0 * np.pi
# pinch bounds: a node fails when its normalized eigenvalue is below -PINCH_TOL
PINCH_TOL = 1e-9
# mass_at_infinity: largest rms of the tail fit, relative to max(1, |m_inf|)
MAX_FIT_RESIDUAL = 1e-3


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
    """Violation counts for the metric pinching bounds, over all nodes and
    stored times."""

    times: np.ndarray
    n_lower: int           # (node, time) pairs failing g(t) >= exp(int 2 lambda_1/H) g(0)
    n_upper: int           # (node, time) pairs failing g(t) <= exp(int 2 lambda_2/H) g(0)
    worst_lower: float     # most negative normalized eigenvalue seen (lower bound)
    worst_upper: float

    @property
    def n_violations(self) -> int:
        return self.n_lower + self.n_upper


def _ddt(series: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences inside, second-order one-sided at the ends."""
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * dt)
    out[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * dt)
    return out


def diagnostics(track: FlowTrack) -> FlowSeries:
    """The per-step diagnostics recorded along a flow: its ``FlowSeries``."""
    return track.series


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


class PinchAccumulator(SnapshotAccumulator):
    """Streaming form of ``pinch_bounds_check``; reads every stored snapshot
    and keeps only counts and extremes, no per-node history.

    The counts are of the (node, time) pairs of ``grid``, the scenario's: a
    snapshot on its meridian column counts each node for the n_phi nodes of
    its latitude ring.
    """

    def __init__(self, snap_times: np.ndarray, grid: SphereGrid):
        super().__init__(np.arange(len(snap_times)))
        self.times = snap_times
        self.n_phi = grid.n_phi
        self.n_lower = self.n_upper = 0
        self.worst_low = self.worst_up = 0.0

    def take(self, i, j, t, geom, P1, P2) -> None:
        if j == 0:
            self._g0 = (geom.g11, geom.g12, geom.g22)
        g0_11, g0_12, g0_22 = self._g0
        ring = self.n_phi // geom.g11.shape[1]
        e1 = np.exp(P1)
        e2 = np.exp(P2)
        scale = geom.g11 + geom.g22

        def min_eig(a, b, c):
            tr = a + c
            disc = np.sqrt(np.maximum((a - c) ** 2 + 4.0 * b**2, 0.0))
            return 0.5 * (tr - disc)

        low = min_eig(geom.g11 - e1 * g0_11, geom.g12 - e1 * g0_12, geom.g22 - e1 * g0_22)
        up = min_eig(e2 * g0_11 - geom.g11, e2 * g0_12 - geom.g12, e2 * g0_22 - geom.g22)
        # ~(x >= tol), not x < tol: a NaN margin counts as a violation
        self.n_lower += ring * int(np.count_nonzero(~(low >= -PINCH_TOL * scale)))
        self.n_upper += ring * int(np.count_nonzero(~(up >= -PINCH_TOL * scale)))
        # np.minimum, not min: min(0.0, nan) is 0.0, and a NaN margin must show
        self.worst_low = float(np.minimum(self.worst_low, np.min(low / scale)))
        self.worst_up = float(np.minimum(self.worst_up, np.min(up / scale)))

    def result(self) -> PinchReport:
        self._require_complete()
        return PinchReport(
            times=self.times,
            n_lower=self.n_lower,
            n_upper=self.n_upper,
            worst_lower=self.worst_low,
            worst_upper=self.worst_up,
        )


def pinch_bounds_check(track: FlowTrack) -> PinchReport:
    """Verify the metric growth bounds from the principal-curvature spread.

    At every snapshot time and node the induced metric must satisfy

        exp(int_0^t 2 lambda_1/H) g(x,0) <= g(x,t) <= exp(int_0^t 2 lambda_2/H) g(x,0)

    as 2x2 quadratic forms; eigenvalue signs are tested relative to the local
    metric scale with tolerance ``PINCH_TOL``.  Replays a track from
    ``imcf.record`` through ``PinchAccumulator``.
    """
    acc = PinchAccumulator(track.snap_times, track.grid)
    track.replay(acc)
    return acc.result()


def mass_at_infinity(times, m_H, tail_fraction: float = 0.5) -> float:
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
    threshold = MAX_FIT_RESIDUAL * max(1.0, abs(m_inf))
    if rms > threshold:
        raise FitError(f"tail fit residual {rms:.3g} exceeds threshold {threshold:.3g}")
    return m_inf
