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

The rows of a sweep that share a flow grid (``flow_batches``) flow as one
batch: their zeta is stacked on a leading row axis, shape (k, n_theta,
n_phi), and one ``geometry()`` call serves every row.  Every grid operation
and node-wise formula acts on each row's slice, and every reduction
(``surface.integrate``, the area, ``_record``'s sums, minima and maxima, the
substep guard) is taken per row over the last two axes, so each row's
numbers are bit for bit those of its lone flow.  A row's profile is passed
to ``run`` once: the batch's ``ProfileStack``, built there, calls row i's
s-form and r-map on slice i.  Each row's start is built alone, on its flow
grid; each row substeps at its own guard, and one that reaches t + dt first
holds its zeta meanwhile.  A breakdown of any row ends the batch's flow and
is raised, so a caller that wants every row's own outcome flows the rows of
a batch that raised alone (``harness.run_sequence`` does).  A lone row is
the batch of one: ``run`` and ``record`` on an ``AmbientProfile`` return its
own track.

Each substep makes one full ``geometry()`` call, at its end, where the next
substep, the recorded series and the observers read it.  The midpoint feeds
only the right side, which reads lambda', v and H, so it calls
``speed_geometry``, the first part of ``geometry()``, and skips the
diagnostics.  A batch of k rows whose rows all take one substep per step
therefore makes k + N full calls over N steps (one start per row, then one
stacked call per step) and N midpoint calls; flowed one by one, the rows made
k(1 + N) and kN.

Checks that read the per-node geometry (pinching, the metric-distance chain,
the W^{1,2} Ricci norm, Holder, Gauss and diameter samples) are accumulators
fed by the flow itself: ``run`` hands every observer of a row each stored
snapshot's geometry of that row, views of its slice of the batch, as it is
computed.  ``run`` keeps only the per-step series, a ``FlowSeries`` that
``_record`` fills at every step and that the checks and the report read as
it is, so a sweep row holds no per-node history.  Storing the snapshots is one
more observer, ``SnapshotRecorder``: ``record`` is ``run`` with one attached
to every row, and only its track can be replayed (``FlowTrack.replay`` feeds
the same observers afterwards by rebuilding each snapshot's geometry from its
stored zeta).

Data that is constant on every latitude ring stays so under the flow (the
background is rotationally symmetric), so every column of a full-grid flow
of it repeats one column.  ``flow_grid`` picks the grid a flow runs on: the
meridian ``get_grid(n_theta, 1)`` when the start's zeta is ring-constant
(every shipped scenario), else the scenario's grid (``bumpy`` data).  A
flow reads its start's zeta on that grid (on the meridian, its first
column), so every geometry, the start's included, is computed on the flow's
grid and reaches the observers there, with P1 and P2 on it too.  The intrinsic
diameter reads a column as it is: its lattice is the scenario grid's
phi -> -phi half, built from the column (``surface.intrinsic_diameter``).

Stability: each recorded step of size dt is internally split into substeps
obeying the parabolic guard dt <= CFL * h_theta^2 * min(H)^2 * min(lambda)^2
(the linearized flow diffuses with coefficient 1/(H lambda)^2; a guard that is
not finite and positive raises ``StabilityError``), and the grid's
polar azimuthal filter removes the sub-grid polar modes that an explicit
scheme cannot propagate.  Recorded times stay on the uniform grid t_k = k dt.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .ambient import AmbientProfile
from .errors import CurvatureError, ImcfLabError, StabilityError, TrackError
from .sphere_grid import SphereGrid, get_grid
from .surface import (
    GraphSurface,
    SpeedGeometry,
    SurfaceGeometry,
    geometry,
    speed_geometry,
)

# observer(j, t, geom, P1, P2) at each stored snapshot j, on the flow's grid,
# with one row's geometry; P1 and P2 are that row's running pinch integrals,
# buffers the flow keeps updating after the call
Observer = Callable[[int, float, SurfaceGeometry, np.ndarray, np.ndarray], None]

# a recorded step that needs more substeps than this raises StabilityError
MAX_SUBSTEPS = 500_000

# parabolic CFL factor of the substep guard
CFL = 0.2


@dataclass
class FlowSeries:
    """Per-step scalar reductions along a flow (arrays over the t-grid).

    The only record of a flow's per-step scalars: ``run`` allocates one array
    per field but ``times``, and a field that is also a report column has
    that column's name.  A batch's series has a leading row axis on every
    field but ``times``.
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


_SERIES_FIELDS = tuple(f.name for f in fields(FlowSeries) if f.name != "times")

# the node axes of a field, or of each row of a batch: reductions over them are per row
_NODE_AXES = (-2, -1)


class ProfileStack:
    """The ambient profiles of a batch, row i's at position i.

    Each method maps slice i of its argument's leading row axis with row i's
    profile and stacks the results, so a row gets what it gets alone.
    """

    def __init__(self, profiles):
        self.profiles = tuple(profiles)

    def warp_at_area_radius(self, s):
        out = np.empty((5, *np.shape(s)))
        for i, (p, x) in enumerate(zip(self.profiles, s)):
            for n, part in enumerate(p.warp_at_area_radius(x)):
                out[n, i] = part
        return tuple(out)

    def radius_from_area_radius(self, s):
        return np.stack([p.radius_from_area_radius(x) for p, x in zip(self.profiles, s)])


@dataclass
class FlowTrack:
    """Uniform-grid IMCF history: scalar series plus, on a track from
    ``record``, the per-node snapshots.  ``run``'s track stores none: its
    snapshot arrays have length 0 and it cannot be replayed.

    A batch's track has a ``ProfileStack`` for its profile and a leading
    row axis on r0, on the series' fields and on the snapshot arrays;
    ``split`` gives the rows' own tracks.
    """

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

    def split(self) -> list:
        """A batch track's rows' own tracks, in row order; a lone row's
        track is its own only row."""
        if not isinstance(self.profile, ProfileStack):
            return [self]
        out = []
        for i, profile in enumerate(self.profile.profiles):
            series = {name: getattr(self.series, name)[i] for name in _SERIES_FIELDS}
            out.append(replace(
                self, profile=profile, series=FlowSeries(times=self.times, **series),
                r0=float(self.r0[i]), snap_zeta=self.snap_zeta[i], snap_P1=self.snap_P1[i],
                snap_P2=self.snap_P2[i],
            ))
        return out

    def _require_snapshots(self) -> None:
        if isinstance(self.profile, ProfileStack):
            raise TrackError("this track holds a batch's rows; replay their own, from split()")
        if len(self.snap_zeta) != len(self.snap_indices):
            raise TrackError(
                "this track stores no snapshots to replay; flow it with imcf.record, not imcf.run"
            )

    def snapshot_geometry(self, j: int) -> SurfaceGeometry:
        """Geometry of stored snapshot j, rebuilt from its zeta (not cached)
        on ``flow_grid``'s pick, as ``run`` computed it, the start included:
        it equals the streamed snapshot bit for bit."""
        self._require_snapshots()
        zeta = self.snap_zeta[j]
        flow = flow_grid(self.grid, zeta)
        return geometry(self.profile, GraphSurface(flow, zeta[:, :flow.n_phi]))

    def replay(self, acc: SnapshotAccumulator) -> None:
        """Feed an accumulator the stored snapshots it reads, in order.

        It sees the same arguments ``run`` passed its observer during the
        flow, with the geometry rebuilt from the stored zeta, and P1 and P2
        on that geometry's grid.
        """
        self._require_snapshots()
        for j in acc.indices:
            j = int(j)
            geom = self.snapshot_geometry(j)
            n_phi = geom.grid.n_phi
            acc.observe(
                j, float(self.snap_times[j]), geom,
                self.snap_P1[j][:, :n_phi], self.snap_P2[j][:, :n_phi],
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


def flow_grid(grid: SphereGrid, zeta: np.ndarray) -> SphereGrid:
    """The grid a flow of zeta on ``grid`` runs on: the meridian
    ``get_grid(n_theta, 1)`` when zeta is constant on every latitude ring,
    else ``grid`` itself."""
    if np.all(zeta == zeta[:, :1]):
        return get_grid(grid.n_theta, 1)
    return grid


def flow_batches(surfaces: Sequence[GraphSurface]) -> list[list[int]]:
    """Index lists into ``surfaces`` (the rows' starts), in row order, of the
    rows that flow as one batch: starts that share a grid and ``flow_grid``'s
    pick, made on them unfiltered, as filtering keeps each ring's mean."""
    batches = {}
    for i, s in enumerate(surfaces):
        key = (s.grid, flow_grid(s.grid, s.zeta))
        batches.setdefault(key, []).append(i)
    return list(batches.values())


def snap_interval(n_steps: int, snap_every: int | None) -> int:
    """Steps between stored snapshots: ``snap_every``, or about 400 snapshots."""
    return max(1, n_steps // 400) if snap_every is None else snap_every


def step_count(T: float, dt: float) -> int | None:
    """N = T/dt, or None unless T/dt is finite and whole (to 1e-9 relative)."""
    n = T / dt
    if not np.isfinite(n) or abs(n - round(n)) > 1e-9 * max(1.0, n):
        return None
    return round(n)


def time_grid(T: float, dt: float, snap_every: int | None = None):
    """Recorded times t_k = k dt on [0, T], the last exactly T, and the
    indices k stored as snapshots."""
    if T <= 0:
        raise ValueError("T must be positive")
    N = step_count(T, dt)
    if N is None or N < 1:
        raise ValueError(f"dt = {dt} does not divide T = {T}")
    times = dt * np.arange(N + 1)
    # dt * N may round an ulp short of T; the last recorded time is T itself
    times[-1] = T
    snap_set = set(range(0, N + 1, snap_interval(N, snap_every)))
    snap_set.add(N)
    return times, np.array(sorted(snap_set))


def run(
    profile: AmbientProfile | Sequence[AmbientProfile],
    surface0: GraphSurface | Sequence[GraphSurface],
    T: float,
    dt: float,
    snap_every: int | None = None,
    observers: Sequence = (),
) -> FlowTrack:
    """Flow from t = 0 to T on the uniform grid t_k = k dt.

    A lone row takes its profile, its start and a list of observers and
    returns its own track.  A batch takes its rows' profiles and their
    starts as two lists of one length, in ``flow_batches``' order, and one
    list of observers per row, and returns one track for all its rows (see
    ``FlowTrack``).  Every observer is called at each stored snapshot with
    its row's geometry as the flow computed it (see ``Observer``).  A
    breakdown of any row, or an observer's exception, ends the whole flow
    and is raised; a breakdown's message is the one the row gets alone when
    it is the batch's first.  Lists of unequal length, or rows that do not
    share a grid and a flow grid, raise ``ValueError``.  The track keeps the
    series but no per-node snapshots; ``record`` keeps those too.
    """
    if isinstance(profile, AmbientProfile):
        return _lone(run, profile, surface0, T, dt, snap_every, observers)
    times, snap_indices = time_grid(T, dt, snap_every)
    N = len(times) - 1
    stack = ProfileStack(profile)
    grid = surface0[0].grid
    observers = list(observers) or [()] * len(surface0)

    block = np.empty((len(_SERIES_FIELDS), len(surface0), N + 1))
    series = FlowSeries(times=times, **dict(zip(_SERIES_FIELDS, block)))
    snap_pos = {int(k): j for j, k in enumerate(snap_indices)}

    starts = []
    with _at_time(0.0):
        for p, s in zip(profile, surface0, strict=True):
            flow = flow_grid(s.grid, s.zeta)
            starts.append(geometry(p, GraphSurface(flow, flow.polar_filter(s.zeta[:, :flow.n_phi]))))
    if len({(s.grid, start.grid) for s, start in zip(surface0, starts)}) > 1:
        raise ValueError(
            "a batch's rows must share a grid and a flow grid; imcf.flow_batches groups them"
        )
    r0 = np.array([area_radius(start) for start in starts])
    geom = _stack(starts)
    del starts

    P1, P2 = np.zeros(geom.H.shape), np.zeros(geom.H.shape)
    rate1_prev = rate2_prev = None
    for k in range(N + 1):
        t_k = times[k]
        _record(block, k, geom)

        rate1 = 2.0 * geom.lam1 / geom.H
        rate2 = 2.0 * geom.lam2 / geom.H
        if rate1_prev is not None:
            P1 += 0.5 * dt * (rate1_prev + rate1)
            P2 += 0.5 * dt * (rate2_prev + rate2)
        rate1_prev, rate2_prev = rate1, rate2

        if k in snap_pos:
            _observe(observers, snap_pos[k], float(t_k), geom, P1, P2)

        if k < N:
            with _at_time(t_k + dt):
                geom = _advance(stack, geom, t_k, dt)

    # one inversion per row of the per-step extremes of zeta, since r is monotone in s
    r = stack.radius_from_area_radius(np.stack([series.r_min, series.r_max], axis=1))
    series.r_min, series.r_max = r[:, 0], r[:, 1]
    no_snapshots = np.empty((len(surface0), 0, *grid.shape))
    return FlowTrack(
        profile=stack,
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
        # P1 and P2 are the flow's live buffers: assigning into a slot copies
        # them, and broadcasts a meridian column across the slot's rings
        self.zeta[j] = geom.surface.zeta
        self.P1[j] = P1
        self.P2[j] = P2


def record(
    profile: AmbientProfile | Sequence[AmbientProfile],
    surface0: GraphSurface | Sequence[GraphSurface],
    T: float,
    dt: float,
    snap_every: int | None = None,
    observers: Sequence = (),
) -> FlowTrack:
    """``run`` with a ``SnapshotRecorder`` attached to every row: the
    returned track stores every snapshot's zeta, P1 and P2, so it can be
    replayed.  A row's recorder sees each snapshot before its ``observers``
    do."""
    if isinstance(profile, AmbientProfile):
        return _lone(record, profile, surface0, T, dt, snap_every, observers)
    n_snap = len(time_grid(T, dt, snap_every)[1])
    recs = [SnapshotRecorder(n_snap, s.grid.shape) for s in surface0]
    observers = list(observers) or [()] * len(recs)
    track = run(
        profile, surface0, T, dt, snap_every=snap_every,
        observers=[[rec.observe, *obs] for rec, obs in zip(recs, observers)],
    )
    snaps = {name: np.stack([getattr(rec, name) for rec in recs]) for name in ("zeta", "P1", "P2")}
    return replace(track, snap_zeta=snaps["zeta"], snap_P1=snaps["P1"], snap_P2=snaps["P2"])


# -- internals -----------------------------------------------------------------


def _lone(flow, profile, surface0, T, dt, snap_every, observers) -> FlowTrack:
    """``flow`` (``run`` or ``record``) of a lone row, as the batch of one:
    the row's own track."""
    (track,) = flow([profile], [surface0], T, dt, snap_every, [observers]).split()
    return track


@contextmanager
def _at_time(t: float):
    """Prefix the message of a breakdown inside the block with the flow time t."""
    try:
        yield
    except ImcfLabError as exc:
        raise type(exc)(f"at t = {t:.6g}: {exc}") from exc


_NODE_FIELDS = tuple(f.name for f in fields(SurfaceGeometry) if f.name not in ("surface", "area"))


def _stack(geoms: list) -> SurfaceGeometry:
    """Lone rows' geometries stacked, as copies, into one batch, in order."""
    nodes = {name: np.stack([getattr(g, name) for g in geoms]) for name in _NODE_FIELDS}
    surface = GraphSurface(geoms[0].grid, np.stack([g.surface.zeta for g in geoms]))
    return SurfaceGeometry(surface=surface, area=np.array([g.area for g in geoms]), **nodes)


def _row(geom: SurfaceGeometry, p: int) -> SurfaceGeometry:
    """Row p of a batch geometry as its lone row's geometry, by views: what
    ``_observe`` hands that row's observers."""
    batch = vars(geom)
    nodes = {name: batch[name][p] for name in _NODE_FIELDS}
    surface = GraphSurface(geom.grid, geom.surface.zeta[p])
    return SurfaceGeometry(surface=surface, area=float(geom.area[p]), **nodes)


def _observe(observers, j, t, geom, P1, P2) -> None:
    """Hand each row's observers its snapshot j, its row of the batch."""
    for p, row_observers in enumerate(observers):
        if row_observers:
            row = _row(geom, p)
            for observe in row_observers:
                observe(j, t, row, P1[p], P2[p])


def _column(values) -> np.ndarray:
    """Per-row scalars as an array of shape (k, 1, 1), against a batch's rows."""
    return np.array(values)[:, None, None]


def _rhs(geom: SpeedGeometry, tau) -> np.ndarray:
    # d zeta / d tau along IMCF in the exponential time variable
    return (2.0 / tau) * geom.dlam * geom.v / geom.H


def _guards(grid: SphereGrid, geom: SurfaceGeometry) -> list[float]:
    """Each row's substep guard, CFL h_theta^2 min(H)^2 min(lambda)^2."""
    h_min = np.minimum.reduce(geom.H, axis=_NODE_AXES)
    lam_min = np.minimum.reduce(geom.lam, axis=_NODE_AXES)
    scale = CFL * grid.h_theta**2
    return [scale * float(h**2 * lam**2) for h, lam in zip(h_min, lam_min)]


def _substep(stack, geom: SurfaceGeometry, tau0, htau, t0, hold=False) -> SurfaceGeometry:
    """One RK2 substep of a batch, its rows' profiles ``stack``: row i from
    tau0[i] by htau[i] (per-row scalars as ``_column`` gives them); t0[i] is
    its time t, for the message.  A row that ``hold`` marks keeps its zeta
    bit for bit, which a zero step through ``polar_filter`` would not on the
    2D grid."""
    grid, zeta = geom.grid, geom.surface.zeta
    k1 = _rhs(geom, tau0)
    z_mid = grid.polar_filter(zeta + 0.5 * htau * k1)
    # the midpoint feeds only the speed, so it skips geometry()'s diagnostics
    geom_mid = speed_geometry(stack, GraphSurface(grid, z_mid))
    k2 = _rhs(geom_mid, tau0 + 0.5 * htau)
    z_new = np.where(hold, zeta, grid.polar_filter(zeta + htau * k2))
    finite = np.logical_and.reduce(np.isfinite(z_new), axis=_NODE_AXES)
    if not finite.all():
        t = t0[int(np.argmin(finite))]
        raise CurvatureError(f"flow produced non-finite radii at t = {t:.6g}")
    return geometry(stack, GraphSurface(grid, z_new))


def _advance(stack, geom: SurfaceGeometry, t, dt) -> SurfaceGeometry:
    """Substep every row of a batch, its rows' profiles ``stack``, from t to
    t + dt, each at its own guard (a row that gets there first holds its
    zeta, charged no substeps and its guard untested); returns its geometry
    then."""
    t_end = t + dt
    tol = 1e-12 * max(1.0, abs(t_end))
    t_cur = [t] * len(geom.area)
    moving = [True] * len(t_cur)   # the rows short of t_end
    n_sub = 0
    while any(moving):
        n_sub += 1
        guards = _guards(geom.grid, geom)
        h = [_substep_size(g, n_sub, tc, t_end) if go else 0.0
             for g, tc, go in zip(guards, t_cur, moving)]
        tau0 = [np.exp(0.5 * tc) for tc in t_cur]
        htau = [np.exp(0.5 * (tc + hp)) - tau for tc, hp, tau in zip(t_cur, h, tau0)]
        hold = _column([not go for go in moving])
        geom = _substep(stack, geom, _column(tau0), _column(htau), t_cur, hold)
        moving = [go and t_end - tc - hp > tol for go, tc, hp in zip(moving, t_cur, h)]
        t_cur = [tc + hp for tc, hp in zip(t_cur, h)]
    return geom


def _substep_size(guard: float, n_sub: int, t, t_end) -> float:
    """The size of a row's n_sub-th substep of the step from time t to t_end
    under ``guard``; raises ``StabilityError`` if the guard is not finite and
    positive or the step needs more than ``MAX_SUBSTEPS`` substeps."""
    # tested before the min: min(remaining, nan) is remaining
    if not (guard > 0 and math.isfinite(guard)):
        raise StabilityError(f"degenerate CFL guard ({guard}) at t = {t:.6g}")
    if n_sub > MAX_SUBSTEPS:
        raise StabilityError(
            f"substep budget {MAX_SUBSTEPS} exhausted (guard {guard:.3g} at t = {t:.6g})"
        )
    return min(t_end - t, guard)


def _record(block: np.ndarray, k: int, geom: SurfaceGeometry):
    """Step k of every row's series, from its row of the batch geometry;
    ``block`` holds the series' fields in ``_SERIES_FIELDS`` order on its
    first axis.  Every reduction is per row, over the last two axes, and the
    ten integrals are one reduction."""
    dmu_w = geom.dmu * geom.grid.weights
    H2 = geom.H**2
    densities = (
        H2 - 4.0, geom.grad_H2 / H2, geom.pinch2, geom.R + 6.0, geom.Rc_nn + 2.0,
        geom.K12 + 1.0, geom.absA2 - 2.0, geom.prod12 - 1.0, geom.K, H2,
    )
    i_h2, i_gradh, i_pinch, i_r, i_rc, i_k12, i_a2, i_prod, i_k, i_hh = np.add.reduce(
        np.array(densities) * dmu_w, axis=_NODE_AXES
    )
    area = geom.area
    lo, hi = np.minimum.reduce, np.maximum.reduce
    values = {
        "area": area,
        "m_H": np.sqrt(area / (16.0 * np.pi) ** 3) * (16.0 * np.pi - i_h2),
        "I_gradH": i_gradh,
        "I_pinch": i_pinch,
        "I_R": i_r,
        "I_Rc": i_rc,
        "I_K12": i_k12,
        "I_H2": i_h2,
        "I_A2": i_a2,
        "I_prod": i_prod,
        "chi": i_k / (2.0 * np.pi),
        "Hbar2": i_hh / area,
        "h_min": lo(geom.H, axis=_NODE_AXES),
        "h_max": hi(geom.H, axis=_NODE_AXES),
        "absA_max": np.sqrt(hi(geom.absA2, axis=_NODE_AXES)),
        # area radii until ``run`` maps them to r once the flow has ended
        "r_min": lo(geom.surface.zeta, axis=_NODE_AXES),
        "r_max": hi(geom.surface.zeta, axis=_NODE_AXES),
        "gradf_max": np.sqrt(hi(geom.grad_f_sigma2, axis=_NODE_AXES)),
    }
    block[:, :, k] = [values[name] for name in _SERIES_FIELDS]
