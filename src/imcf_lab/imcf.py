"""Inverse mean curvature flow of radial graphs.

The flow's state, from the initial surface to the stored track, is the
per-node area radius zeta = lambda(f) of the graph r = f, which evolves by
df/dt = v/H (normal speed 1/H, tilt factor v = sqrt(1 + |grad_sigma f|^2/lambda^2)).
The integrator is explicit midpoint RK2 in zeta and the exponential time
variable tau = e^{t/2}:

    d(zeta)/d(tau) = (2/tau) lambda'(zeta) v / H.

For a coordinate sphere the right side is exactly zeta/tau, whose solutions
are linear in tau, and any second-order Runge-Kutta step reproduces them to
round-off.  The area law |Sigma_t| = |Sigma_0| e^t is therefore exact on
rotationally symmetric data and the scheme's error budget is spent entirely
on genuine anisotropy.

Each substep makes one full ``geometry()`` call, at its end, where the next
substep, the recorded series and the observers read it.  The midpoint feeds
only the right side, which reads lambda', v and H, so it calls
``speed_geometry``, the first part of ``geometry()``, and skips the
diagnostics.  A row therefore makes 1 + substeps full calls and substeps
midpoint calls.

Checks that read the per-node geometry (pinching, the metric-distance chain,
the W^{1,2} Ricci norm, Holder, Gauss and diameter samples) are accumulators
fed by the flow itself: ``run`` hands every observer each stored snapshot's
geometry as it is computed.  ``run`` keeps only the per-step series, a
``FlowSeries`` that ``_record`` fills at every step and that the checks and
the report read as it is, so a sweep row holds no per-node history.  Storing
the snapshots is one more observer, ``SnapshotRecorder``: ``record`` is
``run`` with one attached, and only its track can be replayed
(``FlowTrack.replay`` feeds the same observers afterwards by rebuilding each
snapshot's geometry from its stored zeta).

Stability: each recorded step of size dt is internally split into substeps
obeying the parabolic guard dt <= cfl * h_theta^2 * min(H)^2 * min(lambda)^2
(the linearized flow diffuses with coefficient 1/(H lambda)^2; a guard that is
not finite and positive raises ``StabilityError``), and the grid's
polar azimuthal filter removes the sub-grid polar modes that an explicit
scheme cannot propagate.  Recorded times stay on the uniform grid t_k = k dt.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .ambient import AmbientProfile
from .errors import CurvatureError, ImcfLabError, StabilityError, TrackError
from .sphere_grid import SphereGrid
from .surface import (
    GraphSurface,
    SpeedGeometry,
    SurfaceGeometry,
    geometry,
    integrate,
    speed_geometry,
)

# observer(j, t, geom, P1, P2) at each stored snapshot j; P1 and P2 are the
# running pinch integrals, buffers the flow keeps updating after the call
Observer = Callable[[int, float, SurfaceGeometry, np.ndarray, np.ndarray], None]


@dataclass
class FlowSeries:
    """Per-step scalar reductions along a flow (arrays over the t-grid).

    The only record of a flow's per-step scalars: ``run`` allocates one array
    per field but ``times``, and a field that is also a report column has
    that column's name.
    """

    times: np.ndarray
    area: np.ndarray
    m_H: np.ndarray
    I_gradH: np.ndarray    # int |grad H|^2 / H^2
    I_pinch: np.ndarray    # int (lambda_1 - lambda_2)^2
    I_R: np.ndarray        # int (R + 6)
    I_Rc: np.ndarray       # int (Rc(nu,nu) + 2)
    I_K12: np.ndarray      # int (K12 + 1)
    I_H2: np.ndarray       # int (H^2 - 4)
    I_A2: np.ndarray       # int (|A|^2 - 2)
    I_prod: np.ndarray     # int (lambda_1 lambda_2 - 1)
    chi: np.ndarray
    Hbar2: np.ndarray      # area average of H^2
    h_min: np.ndarray
    h_max: np.ndarray
    absA_max: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    gradf_max: np.ndarray  # max |grad_sigma f|


@dataclass
class FlowTrack:
    """Uniform-grid IMCF history: scalar series plus, on a track from
    ``record``, the per-node snapshots.  ``run``'s track stores none: its
    snapshot arrays have length 0 and it cannot be replayed."""

    profile: AmbientProfile
    grid: SphereGrid
    dt: float
    T: float
    times: np.ndarray
    series: FlowSeries
    r0: float
    snap_indices: np.ndarray
    snap_times: np.ndarray
    # (n_snap, n_theta, n_phi) from ``record``, (0, n_theta, n_phi) from ``run``
    snap_zeta: np.ndarray    # area radii
    snap_P1: np.ndarray      # cumulative trapezoid of 2 lambda_1 / H
    snap_P2: np.ndarray      # cumulative trapezoid of 2 lambda_2 / H

    @property
    def snap_f(self) -> np.ndarray:
        """Radii of the stored snapshots (inverts the whole track per access)."""
        return self.profile.radius_from_area_radius(self.snap_zeta)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def snap_index_of_time(self, t: float) -> int:
        j = int(np.argmin(np.abs(self.snap_times - t)))
        if abs(self.snap_times[j] - t) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"t = {t:.6g} is not a stored snapshot time")
        return j

    def _require_snapshots(self) -> None:
        if len(self.snap_zeta) != len(self.snap_indices):
            raise TrackError(
                "this track stores no snapshots to replay; flow it with imcf.record, not imcf.run"
            )

    def snapshot_geometry(self, j: int) -> SurfaceGeometry:
        """Geometry of stored snapshot j, rebuilt from its zeta (not cached)."""
        self._require_snapshots()
        surface = GraphSurface(self.grid, self.snap_zeta[j], self.profile, self.snap_times[j])
        return geometry(self.profile, surface)

    def geometry_at_time(self, t: float) -> SurfaceGeometry:
        return self.snapshot_geometry(self.snap_index_of_time(t))

    def replay(self, acc: SnapshotAccumulator) -> None:
        """Feed an accumulator the stored snapshots it reads, in order.

        It sees the same arguments ``run`` passed its observer during the
        flow, with the geometry rebuilt from the stored zeta.
        """
        self._require_snapshots()
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
    """Area average of H."""
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
    trajectory; H(t) = 2 lambda'(s)/s = (2/s) sqrt(1 + s^2 - 2 m(s)/s).
    """
    t = np.asarray(t, dtype=float)
    s = s0 * np.exp(0.5 * t)
    return s, 2.0 * profile.warp_at_area_radius(s)[0] / s


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
    zeta = surface.grid.polar_filter(surface.zeta)
    geom = geometry(profile, GraphSurface(surface.grid, zeta, profile, surface.time_tag))
    return _advance(geom, surface.time_tag, dt, cfl, max_substeps).surface


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
    flow computed there (see ``Observer``).  The track keeps the series but
    no per-node snapshots; ``record`` keeps those too.
    """
    times, snap_indices = time_grid(T, dt, snap_every)
    N = len(times) - 1
    grid = surface0.grid

    series = FlowSeries(
        times=times, **{f.name: np.empty(N + 1) for f in fields(FlowSeries) if f.name != "times"}
    )
    snap_pos = {int(k): j for j, k in enumerate(snap_indices)}

    P1 = np.zeros(grid.shape)
    P2 = np.zeros(grid.shape)
    rate1_prev = rate2_prev = None

    geom = geometry(profile, GraphSurface(grid, grid.polar_filter(surface0.zeta), profile))
    r0 = area_radius(geom)
    for k in range(N + 1):
        t_k = times[k]
        _record(series, k, geom)

        rate1 = 2.0 * geom.lam1 / geom.H
        rate2 = 2.0 * geom.lam2 / geom.H
        if rate1_prev is not None:
            P1 += 0.5 * dt * (rate1_prev + rate1)
            P2 += 0.5 * dt * (rate2_prev + rate2)
        rate1_prev, rate2_prev = rate1, rate2

        if k in snap_pos:
            for observe in observers:
                observe(snap_pos[k], float(t_k), geom, P1, P2)

        if k < N:
            try:
                geom = _advance(geom, t_k, dt, cfl, max_substeps)
            except ImcfLabError as exc:
                raise type(exc)(f"at t = {t_k + dt:.6g}: {exc}") from exc

    # one inversion of the per-step extremes of zeta, since r is monotone in s
    series.r_min, series.r_max = profile.radius_from_area_radius(
        np.stack([series.r_min, series.r_max])
    )
    no_snapshots = np.empty((0, *grid.shape))
    return FlowTrack(
        profile=profile,
        grid=grid,
        dt=dt,
        T=float(T),
        times=times,
        series=series,
        r0=r0,
        snap_indices=snap_indices,
        snap_times=times[snap_indices],
        snap_zeta=no_snapshots,
        snap_P1=no_snapshots,
        snap_P2=no_snapshots,
    )


class SnapshotRecorder(SnapshotAccumulator):
    """Copies every stored snapshot's zeta, P1 and P2 as the flow hands them over."""

    def __init__(self, n_snap: int, shape: tuple):
        super().__init__(np.arange(n_snap))
        self.zeta = np.empty((n_snap, *shape))
        self.P1 = np.empty((n_snap, *shape))
        self.P2 = np.empty((n_snap, *shape))

    def take(self, i, j, t, geom, P1, P2) -> None:
        # P1 and P2 are the flow's live buffers: assigning into a slot copies them
        self.zeta[j] = geom.surface.zeta
        self.P1[j] = P1
        self.P2[j] = P2


def record(
    profile: AmbientProfile,
    surface0: GraphSurface,
    T: float,
    dt: float,
    cfl: float = 0.2,
    snap_every: int | None = None,
    max_substeps: int = 500_000,
    observers: Sequence[Observer] = (),
) -> FlowTrack:
    """``run`` with a ``SnapshotRecorder`` attached: the returned track stores
    every snapshot's zeta, P1 and P2, so it can be replayed.  The recorder
    sees each snapshot before ``observers`` do."""
    n_snap = len(time_grid(T, dt, snap_every)[1])
    rec = SnapshotRecorder(n_snap, surface0.grid.shape)
    track = run(
        profile, surface0, T, dt, cfl=cfl, snap_every=snap_every,
        max_substeps=max_substeps, observers=[rec.observe, *observers],
    )
    return replace(track, snap_zeta=rec.zeta, snap_P1=rec.P1, snap_P2=rec.P2)


# -- internals -----------------------------------------------------------------


def _rhs(geom: SpeedGeometry, tau: float) -> np.ndarray:
    # d zeta / d tau along IMCF in the exponential time variable
    return (2.0 / tau) * geom.dlam * geom.v / geom.H


def _guard(grid: SphereGrid, geom: SurfaceGeometry, cfl: float) -> float:
    scale = float(np.min(geom.H) ** 2 * np.min(geom.lam) ** 2)
    return cfl * grid.h_theta**2 * scale


def _advance(geom, t, dt, cfl, max_substeps):
    """Substep geom's surface from t to t + dt; returns the geometry at t + dt."""
    grid, profile, zeta = geom.grid, geom.surface.profile, geom.surface.zeta
    t_end = t + dt
    t_cur = t
    n_sub = 0
    while True:
        remaining = t_end - t_cur
        guard = _guard(grid, geom, cfl)
        # tested before the min: min(remaining, nan) is remaining
        if not (guard > 0 and np.isfinite(guard)):
            raise StabilityError(f"degenerate CFL guard ({guard}) at t = {t_cur:.6g}")
        h = min(remaining, guard)
        n_sub += 1
        if n_sub > max_substeps:
            raise StabilityError(
                f"substep budget {max_substeps} exhausted (guard "
                f"{guard:.3g} at t = {t_cur:.6g})"
            )
        tau0 = np.exp(0.5 * t_cur)
        tau1 = np.exp(0.5 * (t_cur + h))
        htau = tau1 - tau0
        k1 = _rhs(geom, tau0)
        z_mid = grid.polar_filter(zeta + 0.5 * htau * k1)
        # the midpoint feeds only the speed, so it skips geometry()'s diagnostics
        geom_mid = speed_geometry(profile, GraphSurface(grid, z_mid, profile, t_cur + 0.5 * h))
        k2 = _rhs(geom_mid, tau0 + 0.5 * htau)
        zeta = grid.polar_filter(zeta + htau * k2)
        if not np.all(np.isfinite(zeta)):
            raise CurvatureError(f"flow produced non-finite radii at t = {t_cur:.6g}")
        t_cur += h
        geom = geometry(profile, GraphSurface(grid, zeta, profile, t_cur))
        if remaining - h <= 1e-12 * max(1.0, abs(t_end)):
            return geom


def _record(series: FlowSeries, k: int, geom: SurfaceGeometry):
    dmu_w = geom.dmu * geom.grid.weights
    area = geom.area
    i_h2 = float(np.sum((geom.H**2 - 4.0) * dmu_w))
    series.area[k] = area
    series.I_H2[k] = i_h2
    series.m_H[k] = np.sqrt(area / (16.0 * np.pi) ** 3) * (16.0 * np.pi - i_h2)
    series.I_gradH[k] = np.sum(geom.grad_H2 / geom.H**2 * dmu_w)
    series.I_pinch[k] = np.sum(geom.pinch2 * dmu_w)
    series.I_R[k] = np.sum((geom.R + 6.0) * dmu_w)
    series.I_Rc[k] = np.sum((geom.Rc_nn + 2.0) * dmu_w)
    series.I_K12[k] = np.sum((geom.K12 + 1.0) * dmu_w)
    series.I_A2[k] = np.sum((geom.absA2 - 2.0) * dmu_w)
    series.I_prod[k] = np.sum((geom.prod12 - 1.0) * dmu_w)
    series.chi[k] = np.sum(geom.K * dmu_w) / (2.0 * np.pi)
    series.Hbar2[k] = np.sum(geom.H**2 * dmu_w) / area
    series.h_min[k] = np.min(geom.H)
    series.h_max[k] = np.max(geom.H)
    series.absA_max[k] = np.sqrt(np.max(geom.absA2))
    # area radii until ``run`` maps them to r once the flow has ended
    series.r_min[k] = np.min(geom.surface.zeta)
    series.r_max[k] = np.max(geom.surface.zeta)
    series.gradf_max[k] = np.sqrt(np.max(geom.grad_f_sigma2))
