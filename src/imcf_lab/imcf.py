"""Inverse mean curvature flow of radial graphs.

The graph function evolves by df/dt = v/H (normal speed 1/H, tilt factor
v = sqrt(1 + |grad_sigma f|^2/lambda^2)).  The integrator is explicit midpoint
RK2 applied to the per-node area radius zeta = lambda(f) in the exponential
time variable tau = e^{t/2}:

    d(zeta)/d(tau) = (2/tau) lambda'(f) v / H.

For a coordinate sphere the right side is exactly zeta/tau, whose solutions
are linear in tau, and any second-order Runge-Kutta step reproduces them to
round-off.  The area law |Sigma_t| = |Sigma_0| e^t is therefore exact on
rotationally symmetric data and the scheme's error budget is spent entirely
on genuine anisotropy.

Checks that read the per-node geometry (pinching, the metric-distance chain,
the W^{1,2} Ricci norm, Holder, Gauss and diameter samples) are accumulators
fed by the flow itself: ``run`` hands every observer each stored snapshot's
geometry as it is computed, and ``FlowTrack.replay`` feeds the same observers
from a finished track by rebuilding that geometry from ``snap_f``.

Stability: each recorded step of size dt is internally split into substeps
obeying the parabolic guard dt <= cfl * h_theta^2 * min(H)^2 * min(lambda)^2
(the linearized flow diffuses with coefficient 1/(H lambda)^2), and the grid's
polar azimuthal filter removes the sub-grid polar modes that an explicit
scheme cannot propagate.  Recorded times stay on the uniform grid t_k = k dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ambient import AmbientProfile
from .errors import CurvatureError, ImcfLabError, StabilityError
from .sphere_grid import SphereGrid
from .surface import GraphSurface, SurfaceGeometry, geometry, integrate

_SERIES_FIELDS = (
    "area", "m_H", "I_gradH", "I_pinch", "I_R", "I_Rc", "I_K12",
    "I_H2", "I_A2", "I_prod", "chi", "hbar", "hbar2",
    "h_min", "h_max", "absA_max", "lam1_min",
    "r_min", "r_max", "gradf_max", "hdev", "param_res",
)

# observer(j, t, geom, P1, P2) at each stored snapshot j; P1 and P2 are the
# running pinch integrals, buffers the flow keeps updating after the call
Observer = Callable[[int, float, SurfaceGeometry, np.ndarray, np.ndarray], None]


@dataclass
class FlowSeries:
    """Per-step scalar reductions along a flow (arrays over the t-grid)."""

    times: np.ndarray
    area: np.ndarray
    m_H: np.ndarray
    I_gradH: np.ndarray
    I_pinch: np.ndarray
    I_R: np.ndarray
    I_Rc: np.ndarray
    I_K12: np.ndarray
    I_H2: np.ndarray
    I_A2: np.ndarray
    I_prod: np.ndarray
    chi: np.ndarray
    hbar: np.ndarray       # area average of H
    hbar2: np.ndarray      # area average of H^2
    h_min: np.ndarray
    h_max: np.ndarray
    absA_max: np.ndarray
    lam1_min: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    gradf_max: np.ndarray  # max |grad_sigma f|
    hdev: np.ndarray       # integral of (H - hbar)^2 dmu
    param_res: np.ndarray  # integral of |dmu/(r0^2 e^t dsigma) - 1| dsigma


@dataclass
class ClassBounds:
    """Observed flow extrema for class-membership reporting."""

    H0: float
    H1: float
    A1: float
    r0: float


@dataclass
class FlowTrack:
    """Uniform-grid IMCF history: scalar series plus per-node snapshots."""

    profile: AmbientProfile
    grid: SphereGrid
    dt: float
    T: float
    times: np.ndarray
    series: FlowSeries
    r0: float
    snap_indices: np.ndarray
    snap_times: np.ndarray
    snap_f: np.ndarray       # (n_snap, n_theta, n_phi)
    snap_P1: np.ndarray      # cumulative trapezoid of 2 lambda_1 / H
    snap_P2: np.ndarray      # cumulative trapezoid of 2 lambda_2 / H

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def class_bounds(self) -> ClassBounds:
        return ClassBounds(
            H0=float(np.min(self.series.h_min)),
            H1=float(np.max(self.series.h_max)),
            A1=float(np.max(self.series.absA_max)),
            r0=self.r0,
        )

    def snap_index_of_time(self, t: float) -> int:
        j = int(np.argmin(np.abs(self.snap_times - t)))
        if abs(self.snap_times[j] - t) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"t = {t:.6g} is not a stored snapshot time")
        return j

    def snapshot_surface(self, j: int) -> GraphSurface:
        return GraphSurface(self.grid, self.snap_f[j], time_tag=float(self.snap_times[j]))

    def snapshot_geometry(self, j: int) -> SurfaceGeometry:
        """Geometry of stored snapshot j, rebuilt from its graph (not cached)."""
        return geometry(self.profile, self.snapshot_surface(j))

    def geometry_at_time(self, t: float) -> SurfaceGeometry:
        return self.snapshot_geometry(self.snap_index_of_time(t))

    def replay(self, acc: SnapshotAccumulator) -> None:
        """Feed an accumulator the stored snapshots it reads, in order.

        It sees the same arguments ``run`` passed its observer during the
        flow, with the geometry rebuilt from ``snap_f``.
        """
        for j in acc.indices:
            j = int(j)
            acc.observe(
                j, float(self.snap_times[j]), self.snapshot_geometry(j),
                self.snap_P1[j], self.snap_P2[j],
            )


class SnapshotAccumulator:
    """A check computed from the stored snapshots one at a time.

    Subclasses list the snapshot indices they read in ``indices`` and consume
    the i-th of them (snapshot j) in ``take``; ``observe`` is the observer to
    hand to ``run`` or ``FlowTrack.replay`` and skips every other snapshot.
    Snapshots arrive in ascending order.
    """

    def __init__(self, indices):
        self.indices = np.asarray(indices, dtype=int)
        self._todo = {int(j): i for i, j in enumerate(self.indices)}

    def observe(self, j, t, geom, P1, P2) -> None:
        i = self._todo.pop(j, None)
        if i is not None:
            self.take(i, j, t, geom, P1, P2)

    def take(self, i, j, t, geom, P1, P2) -> None:
        raise NotImplementedError

    def _require_complete(self) -> None:
        if self._todo:
            raise RuntimeError(
                f"{type(self).__name__} did not see {len(self._todo)} of its snapshots"
            )


def area_radius(geom: SurfaceGeometry) -> float:
    """sqrt(|Sigma| / 4 pi); on Sigma_0 this is the track's r0."""
    return float(np.sqrt(geom.area / (4.0 * np.pi)))


def mean_curvature_average(geom: SurfaceGeometry) -> float:
    """Area average of H (the series' ``hbar``)."""
    return float(np.sum(geom.H * (geom.dmu * geom.grid.weights))) / geom.area


def time_grid(T: float, dt: float, snap_every: int | None = None):
    """Recorded times t_k = k dt on [0, T] and the indices k stored as snapshots."""
    if T <= 0:
        raise ValueError("T must be positive")
    n_float = T / dt
    N = int(round(n_float))
    if N < 1 or abs(n_float - N) > 1e-9 * max(1.0, n_float):
        raise ValueError(f"dt = {dt} does not divide T = {T}")
    times = dt * np.arange(N + 1)
    if snap_every is None:
        snap_every = max(1, N // 400)
    snap_set = set(range(0, N + 1, snap_every))
    snap_set.add(N)
    return times, np.array(sorted(snap_set))


def exact_round_flow(profile: AmbientProfile, s0: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form round flow: s(t) = s0 e^{t/2} and its mean curvature.

    The area law forces every rotationally symmetric solution onto this
    trajectory; H(t) = 2 lambda'(r(s))/s, i.e. (2/s) sqrt(1 + s^2 - 2 m(s)/s)
    for the mass-aspect family.
    """
    t = np.asarray(t, dtype=float)
    s = s0 * np.exp(0.5 * t)
    r = profile.radius_from_area_radius(s)
    _, dlam, _ = profile.warp(r)
    return s, 2.0 * dlam / s


def step(
    profile: AmbientProfile,
    surface: GraphSurface,
    dt: float,
    cfl: float = 0.2,
    max_substeps: int = 500_000,
) -> GraphSurface:
    """Advance a surface by one recorded time step of size dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = surface.grid
    zeta = grid.polar_filter(profile.warp(surface.f)[0])
    geom = _geom_of_zeta(profile, grid, zeta)
    zeta, _ = _advance(profile, grid, zeta, surface.time_tag, dt, cfl, geom, max_substeps)
    f = profile.radius_from_area_radius(zeta)
    return GraphSurface(grid, f, time_tag=surface.time_tag + dt)


def run(
    profile: AmbientProfile,
    surface0: GraphSurface,
    T: float,
    dt: float,
    cfl: float = 0.2,
    snap_every: int | None = None,
    max_substeps: int = 500_000,
    observers: Sequence[Observer] = (),
) -> FlowTrack:
    """Flow from t = 0 to T on the uniform grid t_k = k dt.

    Every observer is called at each stored snapshot with the geometry the
    flow computed there (see ``Observer``).
    """
    times, snap_indices = time_grid(T, dt, snap_every)
    N = len(times) - 1
    grid = surface0.grid

    series = {name: np.empty(N + 1) for name in _SERIES_FIELDS}
    n_snap = len(snap_indices)
    snap_f = np.empty((n_snap, *grid.shape))
    snap_P1 = np.empty((n_snap, *grid.shape))
    snap_P2 = np.empty((n_snap, *grid.shape))
    snap_pos = {int(k): j for j, k in enumerate(snap_indices)}

    zeta = grid.polar_filter(profile.warp(surface0.f)[0])
    P1 = np.zeros(grid.shape)
    P2 = np.zeros(grid.shape)
    rate1_prev = rate2_prev = None
    r0 = None

    geom = _geom_of_zeta(profile, grid, zeta, t_label=0.0)
    for k in range(N + 1):
        t_k = times[k]
        if r0 is None:
            r0 = area_radius(geom)
        _record(series, k, geom, t_k, r0)

        rate1 = 2.0 * geom.lam1 / geom.H
        rate2 = 2.0 * geom.lam2 / geom.H
        if rate1_prev is not None:
            P1 += 0.5 * dt * (rate1_prev + rate1)
            P2 += 0.5 * dt * (rate2_prev + rate2)
        rate1_prev, rate2_prev = rate1, rate2

        if k in snap_pos:
            j = snap_pos[k]
            snap_f[j] = geom.surface.f
            snap_P1[j] = P1
            snap_P2[j] = P2
            for observe in observers:
                observe(j, float(t_k), geom, P1, P2)

        if k < N:
            try:
                zeta, geom = _advance(
                    profile, grid, zeta, t_k, dt, cfl, geom, max_substeps
                )
            except ImcfLabError as exc:
                raise type(exc)(f"at t = {t_k + dt:.6g}: {exc}") from exc

    fs = FlowSeries(times=times, **series)
    return FlowTrack(
        profile=profile,
        grid=grid,
        dt=dt,
        T=float(T),
        times=times,
        series=fs,
        r0=r0,
        snap_indices=snap_indices,
        snap_times=times[snap_indices],
        snap_f=snap_f,
        snap_P1=snap_P1,
        snap_P2=snap_P2,
    )


# -- internals -----------------------------------------------------------------


def _geom_of_zeta(profile, grid, zeta, t_label: float = 0.0) -> SurfaceGeometry:
    f = profile.radius_from_area_radius(zeta)
    return geometry(profile, GraphSurface(grid, f, time_tag=t_label))


def _rhs(geom: SurfaceGeometry, tau: float) -> np.ndarray:
    # d zeta / d tau along IMCF in the exponential time variable
    return (2.0 / tau) * geom.dlam * geom.v / geom.H


def _guard(grid: SphereGrid, geom: SurfaceGeometry, cfl: float) -> float:
    scale = float(np.min(geom.H) ** 2 * np.min(geom.lam) ** 2)
    return cfl * grid.h_theta**2 * scale


def _advance(profile, grid, zeta, t, dt, cfl, geom, max_substeps):
    """Substep from t to t + dt; returns (zeta, geometry at t + dt)."""
    t_end = t + dt
    t_cur = t
    n_sub = 0
    while True:
        remaining = t_end - t_cur
        h = min(remaining, _guard(grid, geom, cfl))
        if h <= 0 or not np.isfinite(h):
            raise StabilityError(f"degenerate CFL guard ({h}) at t = {t_cur:.6g}")
        n_sub += 1
        if n_sub > max_substeps:
            raise StabilityError(
                f"substep budget {max_substeps} exhausted (guard "
                f"{_guard(grid, geom, cfl):.3g} at t = {t_cur:.6g})"
            )
        tau0 = np.exp(0.5 * t_cur)
        tau1 = np.exp(0.5 * (t_cur + h))
        htau = tau1 - tau0
        k1 = _rhs(geom, tau0)
        z_mid = grid.polar_filter(zeta + 0.5 * htau * k1)
        geom_mid = _geom_of_zeta(profile, grid, z_mid, t_label=t_cur + 0.5 * h)
        k2 = _rhs(geom_mid, tau0 + 0.5 * htau)
        zeta = grid.polar_filter(zeta + htau * k2)
        if not np.all(np.isfinite(zeta)):
            raise CurvatureError(f"flow produced non-finite radii at t = {t_cur:.6g}")
        t_cur += h
        geom = _geom_of_zeta(profile, grid, zeta, t_label=t_cur)
        if remaining - h <= 1e-12 * max(1.0, abs(t_end)):
            return zeta, geom


def _record(series: dict, k: int, geom: SurfaceGeometry, t: float, r0: float):
    w = geom.grid.weights
    dmu_w = geom.dmu * w
    area = geom.area
    i_h2 = float(np.sum((geom.H**2 - 4.0) * dmu_w))
    series["area"][k] = area
    series["I_H2"][k] = i_h2
    series["m_H"][k] = np.sqrt(area / (16.0 * np.pi) ** 3) * (16.0 * np.pi - i_h2)
    series["I_gradH"][k] = np.sum(geom.grad_H2 / geom.H**2 * dmu_w)
    series["I_pinch"][k] = np.sum(geom.pinch2 * dmu_w)
    series["I_R"][k] = np.sum((geom.R + 6.0) * dmu_w)
    series["I_Rc"][k] = np.sum((geom.Rc_nn + 2.0) * dmu_w)
    series["I_K12"][k] = np.sum((geom.K12 + 1.0) * dmu_w)
    series["I_A2"][k] = np.sum((geom.absA2 - 2.0) * dmu_w)
    series["I_prod"][k] = np.sum((geom.prod12 - 1.0) * dmu_w)
    series["chi"][k] = np.sum(geom.K * dmu_w) / (2.0 * np.pi)
    hbar = mean_curvature_average(geom)
    series["hbar"][k] = hbar
    series["hbar2"][k] = np.sum(geom.H**2 * dmu_w) / area
    series["h_min"][k] = np.min(geom.H)
    series["h_max"][k] = np.max(geom.H)
    series["absA_max"][k] = np.sqrt(np.max(geom.absA2))
    series["lam1_min"][k] = np.min(geom.lam1)
    series["r_min"][k] = np.min(geom.surface.f)
    series["r_max"][k] = np.max(geom.surface.f)
    series["gradf_max"][k] = np.sqrt(np.max(geom.grad_f_sigma2))
    series["hdev"][k] = np.sum((geom.H - hbar) ** 2 * dmu_w)
    series["param_res"][k] = np.sum(
        np.abs(geom.dmu / (r0**2 * np.exp(t)) - 1.0) * w
    )
