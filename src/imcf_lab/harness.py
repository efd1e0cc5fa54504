"""Sweep runner: class/compatibility checks, stability experiments, reports.

``run_sequence`` executes each scenario row (one flow per epsilon) and
assembles a deterministic report table.  The rows that share a flow grid
flow as one batch (one ``imcf.run`` call on their profiles and starts),
and each row is one pass over its flow: the compatibility, pinching,
metric-distance chain, Holder, Gauss and diameter checks are accumulators
the flow feeds at each stored snapshot, and the mass/roundness diagnostics
come from the flow's per-step series.
Each t-sample's report record reads every column at one stored snapshot,
the nearest.  ``emit`` writes CSV (fixed column order, 12 significant
digits), schema-versioned JSON and a gnuplot script for the CSV.  A failing
row is recorded and never aborts the remaining rows.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import comparison, imcf, mass
from .ambient import validate_profile
from .errors import FitError, WindowError
from .imcf import FlowSeries, FlowTrack, SnapshotAccumulator, area_radius, run, time_grid
from .scenario import Scenario, ScenarioRow
from .surface import intrinsic_diameter
from .sphere_grid import SphereGrid

CSV_COLUMNS = (
    "scenario_id", "eps", "t",
    "area", "m_H",
    "I_gradH", "I_pinch", "I_R", "I_Rc", "I_K12", "I_H2", "I_A2", "I_prod", "Hbar2",
    "l2_hat_g1", "l2_g1_g2", "l2_g2_g3", "l2_g3_model", "l2_hat_model",
    "c_alpha", "gauss_dev", "chi", "diam",
    "mH_T", "mH_inf",
    "class_pass", "compat_pass", "pinch_pass", "row_ok",
)

JSON_SCHEMA = "imcf-lab-report/1"

# the compatibility check's r(t)/t ratios are read from T_STAR on and must lie
# in RATIO_BAND; N_DIAM window snapshots get an intrinsic diameter
T_STAR = 4.0
RATIO_BAND = (0.4, 0.8)
N_DIAM = 5


@dataclass
class ClassReport:
    """Observed flow extrema, initial area and mass, and the profile's floor."""

    H_min: float
    H_max: float
    absA_max: float
    r0: float
    area0: float
    mH0: float
    h_positive: bool
    mH0_nonneg: bool
    scalar_floor_ok: bool

    @property
    def passed(self) -> bool:
        return self.h_positive and self.mH0_nonneg and self.scalar_floor_ok


@dataclass
class CompatReport:
    """Radial-coordinate compatibility of the flow parameterization.

    Also reports the two alternative curvature hypotheses of the stability
    statements: the tangent sectional-curvature floor K12 >= -1 on the
    initial surface, and the W^{1,2} norm of the normal Ricci curvature over
    the window.  Both are informational (either one suffices upstream), so
    only the window checks enter ``passed``.
    """

    C1: float | None           # min r_min(t)/t over t >= T_STAR
    C2: float | None           # max r_max(t)/t over t >= T_STAR
    C3: float                  # max |grad_sigma f| over the window
    ratios_ok: bool | None     # C1, C2 in RATIO_BAND; None before T_STAR
    w12_ricci: float           # W^{1,2} norm of Rc(nu,nu) over Sigma x [a,b]
    k12_min0: float            # min tangent sectional curvature on Sigma_0
    k12_floor_ok: bool         # K12 >= -1 (up to round-off) on Sigma_0
    diam_times: np.ndarray
    diam_values: np.ndarray
    diam_max: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.w12_ricci)) and self.ratios_ok is not False


@dataclass
class RowResult:
    label: str
    eps: float | None
    ok: bool
    error: str | None = None
    diag: FlowSeries | None = None
    sample_steps: dict = field(default_factory=dict)  # t-sample -> step of its snapshot
    class_report: ClassReport | None = None
    compat_report: CompatReport | None = None
    pinch_pass: bool | None = None   # no pinching violation at any node and stored time
    distances: dict = field(default_factory=dict)
    c_alpha: float | None = None
    gauss_dev: dict = field(default_factory=dict)   # t -> value
    diam: dict = field(default_factory=dict)        # t -> value
    mH_T: float | None = None
    mH_inf: float | None = None


@dataclass
class ReportTable:
    scenario: Scenario
    rows: list

    @property
    def any_failed(self) -> bool:
        return any(not r.ok for r in self.rows)


def check_class_membership(track: FlowTrack, scalar_floor_ok: bool = True) -> ClassReport:
    """Observed H range, |A| bound, initial area and mass flags."""
    s = track.series
    H_min = float(np.min(s.h_min))
    mH0 = float(s.m_H[0])
    return ClassReport(
        H_min=H_min,
        H_max=float(np.max(s.h_max)),
        absA_max=float(np.max(s.absA_max)),
        r0=track.r0,
        area0=float(s.area[0]),
        mH0=mH0,
        h_positive=bool(H_min > 0.0),
        mH0_nonneg=bool(mH0 >= -1e-10),
        scalar_floor_ok=scalar_floor_ok,
    )


def _window(snap_times: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.where((snap_times >= a - 1e-12) & (snap_times <= b + 1e-12))[0]


class W12Accumulator(SnapshotAccumulator):
    """Streaming ``w12_normal_ricci``: holds at most three Rc(nu,nu) slices.

    The time derivative at each stored time uses the neighbouring slices with
    the weights ``np.gradient`` gives for the window's spacing: second-order
    three-point inside, one-sided first order at the ends.  The densities
    are differentiated and integrated on the flow's grid.
    """

    def __init__(self, snap_times: np.ndarray, a: float, b: float):
        sel = _window(snap_times, a, b)
        self.window = (a, b)
        self.enough = len(sel) >= 3
        super().__init__(sel if self.enough else [])
        self.t = snap_times[sel]
        self.density = np.empty(len(sel))
        self._u = {}   # i -> Rc(nu,nu)
        if self.enough:
            self._dx = dx = np.diff(self.t)
            dx1, dx2 = dx[:-1], dx[1:]
            self._a = -dx2 / (dx1 * (dx1 + dx2))
            self._b = (dx2 - dx1) / (dx1 * dx2)
            self._c = dx1 / (dx2 * (dx1 + dx2))

    def take(self, i, j, t, geom, P1, P2) -> None:
        self._u[i] = geom.Rc_nn
        if i >= 1:
            self._density_at(i - 1, geom.grid)
        if i == len(self.t) - 1:
            self._density_at(i, geom.grid)
        self._u.pop(i - 2, None)

    def _density_at(self, i: int, grid: SphereGrid) -> None:
        n, u = len(self.t), self._u
        if i == 0:
            u_t = (u[1] - u[0]) / self._dx[0]
        elif i == n - 1:
            u_t = (u[i] - u[i - 1]) / self._dx[-1]
        else:
            u_t = self._a[i - 1] * u[i - 1] + self._b[i - 1] * u[i] + self._c[i - 1] * u[i + 1]
        du_th = grid.dtheta(u[i])
        du_ph = grid.dphi(u[i])
        grad2 = du_th**2 + (du_ph / grid.sin_theta[:, None]) ** 2
        self.density[i] = grid.integrate_sigma(u[i] ** 2 + u_t**2 + grad2)

    def result(self) -> float:
        if not self.enough:
            a, b = self.window
            raise WindowError(f"window [{a}, {b}] holds fewer than 3 stored times")
        self._require_complete()
        return float(np.sqrt(np.trapezoid(self.density, self.t)))


def w12_normal_ricci(track: FlowTrack, a: float, b: float) -> float:
    """W^{1,2} norm of Rc(nu,nu) over Sigma x [a,b], flat product measure.

    Differences in t between stored times, spectral derivatives on the
    sphere, quadrature against d(sigma) dt.  Replays a track from
    ``imcf.record`` through ``W12Accumulator``.
    """
    acc = W12Accumulator(track.snap_times, a, b)
    track.replay(acc)
    return acc.result()


class CompatAccumulator(SnapshotAccumulator):
    """Snapshot part of ``check_coordinate_compatibility`` over window [a, b].

    Reads Sigma_0 (K12 floor), every stored time in the window (W^{1,2}
    Ricci norm) and N_DIAM of them (intrinsic diameter, on the lattice of
    ``grid``, the scenario's: a column is measured as is, and the grid
    gives only the lattice's width); ``result`` adds the series-based
    ratios and gradient bound once the flow has ended.  Two accumulators
    given one ``diameters`` dict compute a snapshot's diameter once.
    """

    def __init__(
        self,
        snap_times: np.ndarray,
        T: float,
        a: float,
        b: float,
        grid: SphereGrid,
        diameters: dict | None = None,
    ):
        self.window = (a, b)
        self.grid = grid
        self.T = float(T)
        self.w12 = W12Accumulator(snap_times, a, b)
        sel = _window(snap_times, a, b)
        self.picks = sel[
            np.unique(np.linspace(0, len(sel) - 1, min(N_DIAM, len(sel))).astype(int))
        ]
        self.diam_times = snap_times[self.picks]
        self._diam = {} if diameters is None else diameters
        # an invalid window fails in result(), so it reads nothing
        self.valid = 0.0 <= a < b <= self.T + 1e-12
        super().__init__(np.union1d([0], sel) if self.valid else [])

    def take(self, i, j, t, geom, P1, P2) -> None:
        if j == 0:
            self.k12_min0 = float(np.min(geom.K12))
        self.w12.observe(j, t, geom, P1, P2)
        if j in self.picks and j not in self._diam:
            self._diam[j] = intrinsic_diameter(geom, self.grid)

    def result(self, series) -> CompatReport:
        a, b = self.window
        if not self.valid:
            raise WindowError(f"window [{a}, {b}] not inside [0, {self.T}]")
        s = series
        in_window = (s.times >= a - 1e-12) & (s.times <= b + 1e-12)
        C3 = float(np.max(s.gradf_max[in_window]))

        late = s.times >= T_STAR
        if np.any(late):
            C1 = float(np.min(s.r_min[late] / s.times[late]))
            C2 = float(np.max(s.r_max[late] / s.times[late]))
            ratios_ok = bool(RATIO_BAND[0] <= C1 and C2 <= RATIO_BAND[1])
        else:
            C1 = C2 = None
            ratios_ok = None

        w12 = self.w12.result()
        self._require_complete()
        diam_vals = np.array([self._diam[int(j)] for j in self.picks])
        return CompatReport(
            C1=C1,
            C2=C2,
            C3=C3,
            ratios_ok=ratios_ok,
            w12_ricci=w12,
            k12_min0=self.k12_min0,
            k12_floor_ok=bool(self.k12_min0 >= -1.0 - 1e-10),
            diam_times=self.diam_times,
            diam_values=diam_vals,
            diam_max=float(np.max(diam_vals)),
        )


def check_coordinate_compatibility(track: FlowTrack, a: float, b: float) -> CompatReport:
    """Radial growth ratios, graph-gradient bound and the W^{1,2} Ricci norm.

    Replays a track from ``imcf.record`` through ``CompatAccumulator``.
    """
    acc = CompatAccumulator(track.snap_times, track.T, a, b, track.grid)
    track.replay(acc)
    return acc.result(track.series)


class SampleAccumulator(SnapshotAccumulator):
    """Holder distance of Sigma_0 to round, and the Gauss deviation and
    intrinsic diameter at each t-sample's snapshot (``snap_of``: t -> j;
    ``grid``, the lattice's width, and ``diameters`` as for
    ``CompatAccumulator``)."""

    def __init__(self, snap_of: dict, grid: SphereGrid, diameters: dict):
        self._snap_of = snap_of
        self.grid = grid
        self._gauss, self._diam = {}, diameters
        super().__init__(sorted({0, *snap_of.values()}))

    def take(self, i, j, t, geom, P1, P2) -> None:
        if j == 0:
            self.r0 = area_radius(geom)
            self.c_alpha = comparison.c_alpha_distance_to_round(geom, r0=self.r0)
        if j in self._snap_of.values():
            self._gauss[j] = comparison.gauss_deviation(geom, self.r0, t)
            if j not in self._diam:
                self._diam[j] = intrinsic_diameter(geom, self.grid)

    def result(self) -> tuple[float, dict, dict]:
        """(c_alpha, gauss deviation by t-sample, diameter by t-sample)."""
        self._require_complete()
        gauss = {t: self._gauss[j] for t, j in self._snap_of.items()}
        diam = {t: self._diam[j] for t, j in self._snap_of.items()}
        return self.c_alpha, gauss, diam


class _RowChecks:
    """The streamed checks of one scenario row: the accumulators its flow
    feeds at the stored snapshots, and the step each t-sample reads."""

    def __init__(self, scn: Scenario, row: ScenarioRow):
        times, snap_indices = time_grid(scn.T, scn.dt)
        snap_times = times[snap_indices]
        # each t-sample's record reads every column at its nearest snapshot
        snap_of = {t: int(np.argmin(np.abs(snap_times - t))) for t in scn.t_samples}
        self.sample_steps = {t: int(snap_indices[j]) for t, j in snap_of.items()}
        diameters = {}
        a, b = scn.compat_window
        grid = row.surface0.grid
        self.compat = CompatAccumulator(snap_times, scn.T, a, b, grid, diameters=diameters)
        self.pinch = mass.PinchAccumulator(snap_times)
        self.chain = comparison.ChainAccumulator(snap_times, m=scn.m or 0.0)
        self.samples = SampleAccumulator(snap_of, grid, diameters)
        accumulators = (self.compat, self.pinch, self.chain, self.samples)
        self.observers = [acc.observe for acc in accumulators]


def _flow_batch(scn: Scenario, rows: list) -> list:
    """Scan each row's profile, then flow ``rows`` as one batch, one ``run``
    call that feeds every row's streamed checks; per row, its profile
    report, its checks and its track.  Raises the first profile scan or
    flow breakdown of any row."""
    reports = [validate_profile(row.profile) for row in rows]
    checks = [_RowChecks(scn, row) for row in rows]
    profiles, starts = [row.profile for row in rows], [row.surface0 for row in rows]
    track = run(profiles, starts, T=scn.T, dt=scn.dt, observers=[c.observers for c in checks])
    return list(zip(reports, checks, track.split()))


def run_row(scn: Scenario, row: ScenarioRow, flow: tuple | None = None) -> RowResult:
    """Finish one scenario row from its share of a batch flow.

    ``flow`` is the row's entry of ``_flow_batch``: its profile report, its
    streamed checks, which saw the flow's own geometry at the stored
    snapshots, and its track.  Without ``flow`` the row is scanned and
    flowed alone, as a batch of one.  So no geometry is rebuilt after the
    flow and the row keeps no per-node history: no snapshots (the flow goes
    through ``run``, not ``record``) and no per-node verdicts.
    A profile scan that raises fails the row before it flows; check errors
    are raised once the flow has ended, in the order the checks are listed
    here.
    Any exception marks the row failed and is recorded as ``Type: message``.
    """
    result = RowResult(label=row.label, eps=row.eps, ok=True)
    try:
        profile_report, checks, track = flow if flow is not None else _flow_batch(scn, [row])[0]
        result.sample_steps = checks.sample_steps
        result.diag = mass.diagnostics(track)
        result.mH_T = float(track.series.m_H[-1])

        result.class_report = check_class_membership(track, scalar_floor_ok=profile_report.passed)
        result.compat_report = checks.compat.result(track.series)
        result.pinch_pass = checks.pinch.result().n_violations == 0
        if scn.T >= 2.0:
            try:
                result.mH_inf = mass.mass_at_infinity(track.times, track.series.m_H)
            except FitError:
                result.mH_inf = None
        result.distances = checks.chain.result()
        result.c_alpha, result.gauss_dev, result.diam = checks.samples.result()
    except Exception as exc:
        result.ok = False
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_sequence(scn: Scenario, workers: int = 1) -> ReportTable:
    """Run all scenario rows; deterministic order.

    The rows that share a flow grid (``imcf.flow_batches``) flow as one
    batch, and each row then finishes its checks (``run_row``).  If any row
    of a batch raises, in its profile scan, its flow or its streamed checks,
    each of the batch's rows runs alone instead, so every row reports what
    it reports alone.  With ``workers`` > 1, a thread pool of that size runs
    the batches concurrently; a sweep whose rows all share one flow grid,
    every shipped scenario's, is one batch and gains nothing from it.
    """
    rows = scn.rows()
    batches = imcf.flow_batches([row.surface0 for row in rows])

    def finish(batch: list) -> list:
        members = [rows[i] for i in batch]
        if len(members) == 1:
            # flowed by run_row itself, which records its failure without a rerun
            return [run_row(scn, members[0])]
        try:
            flows = _flow_batch(scn, members)
        except Exception:
            # some row raised: every row runs alone, so each reports its own outcome
            flows = [None] * len(members)
        return [run_row(scn, row, flow) for row, flow in zip(members, flows)]

    if workers <= 1 or len(batches) == 1:
        done = [finish(batch) for batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(finish, batches))
    results = [None] * len(rows)
    for batch, batch_results in zip(batches, done):
        for i, result in zip(batch, batch_results):
            results[i] = result
    return ReportTable(scenario=scn, rows=results)


# -- emission -------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


def table_rows(report: ReportTable) -> list[dict]:
    """Flatten a report into one dict per (row, t-sample), CSV column keys."""
    scn = report.scenario
    names = {f.name for f in fields(FlowSeries)}
    series_columns = [name for name in CSV_COLUMNS if name in names]
    out = []
    for rr in report.rows:
        flags = {
            "class_pass": rr.class_report.passed if rr.class_report else None,
            "compat_pass": rr.compat_report.passed if rr.compat_report else None,
            "pinch_pass": rr.pinch_pass,
            "row_ok": rr.ok,
        }
        for t in scn.t_samples:
            rec = {name: None for name in CSV_COLUMNS}
            rec["scenario_id"] = scn.id
            rec["eps"] = rr.eps
            rec["t"] = t
            rec.update(flags)
            if rr.ok and rr.diag is not None:
                k = rr.sample_steps[t]
                for name in series_columns:
                    rec[name] = float(getattr(rr.diag, name)[k])
                for key in comparison.CHAIN_KEYS:
                    rec[f"l2_{key}"] = rr.distances.get(key)
                rec["c_alpha"] = rr.c_alpha
                rec["gauss_dev"] = rr.gauss_dev.get(t)
                rec["diam"] = rr.diam.get(t)
                rec["mH_T"] = rr.mH_T
                rec["mH_inf"] = rr.mH_inf
            out.append(rec)
    return out


def report_paths(report_id: str, out_dir) -> list[Path]:
    """The paths ``emit`` writes for ``report_id`` into ``out_dir``: the CSV,
    the JSON and the gnuplot script."""
    return [Path(out_dir) / f"{report_id}.{ext}" for ext in ("csv", "json", "gp")]


def emit(report: ReportTable, out_dir="out") -> list[Path]:
    """Write ``<id>.csv``, ``<id>.json`` and the gnuplot script ``<id>.gp``;
    returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = report.scenario.id
    recs = table_rows(report)
    csv_path, json_path, plot_path = report_paths(base, out_dir)

    lines = [",".join(CSV_COLUMNS)]
    for rec in recs:
        lines.append(",".join(_fmt(rec[c]) for c in CSV_COLUMNS))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    doc = {
        "schema": JSON_SCHEMA,
        "scenario": _scenario_echo(report.scenario),
        "rows": [
            {
                "label": rr.label,
                "eps": rr.eps,
                "ok": rr.ok,
                "error": rr.error,
                "mH_T": rr.mH_T,
                "mH_inf": rr.mH_inf,
                "c_alpha": rr.c_alpha,
                "distances": rr.distances,
                "gauss_dev": {str(k): v for k, v in rr.gauss_dev.items()},
                "diam": {str(k): v for k, v in rr.diam.items()},
                "class_report": _dataclass_echo(rr.class_report),
                "compat_report": _dataclass_echo(rr.compat_report),
                "pinch_pass": rr.pinch_pass,
            }
            for rr in report.rows
        ],
        "table": recs,
    }
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    plot_path.write_text(_plot_script(base), encoding="utf-8")
    return [csv_path, json_path, plot_path]


def _scenario_echo(scn: Scenario) -> dict:
    return dict(scn.__dict__)


def _dataclass_echo(obj):
    if obj is None:
        return None
    out = {}
    for k, v in obj.__dict__.items():
        if isinstance(v, np.ndarray):
            out[k] = v.tolist()
        else:
            out[k] = v
    if hasattr(obj, "passed"):
        out["passed"] = obj.passed
    return out


def _plot_script(base: str) -> str:
    csv = f"{base}.csv"
    cols = {name: i + 1 for i, name in enumerate(CSV_COLUMNS)}
    return f"""# gnuplot script for {csv}
set datafile separator ','
set key autotitle columnhead outside
set term pngcairo size 1200,500
set output '{base}.png'
set multiplot layout 1,2
set title 'Hawking mass along the flow'
set xlabel 't'
set ylabel 'm_H'
plot '{csv}' using {cols['t']}:{cols['m_H']} with points pt 7 notitle
set title 'L2 distance to the model vs eps'
set xlabel 'eps'
set logscale y
set ylabel 'l2(hat, model)'
plot '{csv}' using {cols['eps']}:{cols['l2_hat_model']} with points pt 5 notitle
unset multiplot
"""
