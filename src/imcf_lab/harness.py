"""Sweep runner: class/compatibility checks, stability experiments, reports.

``run_sequence`` executes each scenario row (one flow per epsilon) and
assembles a deterministic report table.  A row is one pass over its flow:
the compatibility, pinching, metric-distance chain, Holder, Gauss and
diameter checks are accumulators the flow feeds at each stored snapshot, and
the mass/roundness diagnostics come from the flow's per-step series.
``emit`` writes CSV (fixed column order, 12 significant digits),
schema-versioned JSON and a gnuplot script for the CSV.  A failing row is recorded and never aborts the
remaining rows.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import comparison, mass
from .ambient import validate_profile
from .errors import FitError, WindowError
from .imcf import FlowTrack, SnapshotAccumulator, area_radius, run, time_grid
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


@dataclass
class DeclaredBounds:
    """Optional scenario-declared flow-class constants."""

    H0: float | None = None
    H1: float | None = None
    A1: float | None = None
    r0: float | None = None
    I0: float | None = None


@dataclass
class ClassReport:
    """Observed flow extrema against the declared class constants."""

    H_min: float
    H_max: float
    absA_max: float
    r0: float
    area0: float
    mH0: float
    h_positive: bool
    mH0_nonneg: bool
    r0_ok: bool
    scalar_floor_ok: bool
    within_declared: bool | None  # None when nothing was declared
    I0_declared: float | None     # carried, never checked

    @property
    def passed(self) -> bool:
        flags = [self.h_positive, self.mH0_nonneg, self.r0_ok, self.scalar_floor_ok]
        if self.within_declared is not None:
            flags.append(self.within_declared)
        return all(flags)


@dataclass
class CompatReport:
    """Radial-coordinate compatibility of the flow parameterization.

    Also reports the two alternative curvature hypotheses of the stability
    statements: the tangent sectional-curvature floor K12 >= -1 on the
    initial surface, and the W^{1,2} norm of the normal Ricci curvature over
    the window.  Both are informational (either one suffices upstream), so
    only the window checks enter ``passed``.
    """

    window: tuple[float, float]
    t_star: float
    C1: float | None           # min r_min(t)/t over t >= t_star
    C2: float | None           # max r_max(t)/t over t >= t_star
    C3: float                  # max |grad_sigma f| over the window
    ratio_band: tuple[float, float]
    ratios_ok: bool | None     # None when the window never reaches t_star
    grad_ok: bool
    w12_ricci: float           # W^{1,2} norm of Rc(nu,nu) over Sigma x [a,b]
    k12_min0: float            # min tangent sectional curvature on Sigma_0
    k12_floor_ok: bool         # K12 >= -1 (up to round-off) on Sigma_0
    diam_times: np.ndarray
    diam_values: np.ndarray
    diam_max: float

    @property
    def passed(self) -> bool:
        flags = [self.grad_ok, bool(np.isfinite(self.w12_ricci))]
        if self.ratios_ok is not None:
            flags.append(self.ratios_ok)
        return all(flags)


@dataclass
class RowResult:
    label: str
    eps: float | None
    ok: bool
    error: str | None = None
    track: FlowTrack | None = None
    diag: mass.MassDiagnostics | None = None
    class_report: ClassReport | None = None
    compat_report: CompatReport | None = None
    pinch_pass: bool | None = None
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


def check_class_membership(
    track: FlowTrack,
    declared: DeclaredBounds | None = None,
    scalar_floor_ok: bool = True,
) -> ClassReport:
    """Observed H range, |A| bound, initial area and mass flags."""
    b = track.class_bounds
    area0 = float(track.series.area[0])
    mH0 = float(track.series.m_H[0])
    r0_declared = declared.r0 if declared is not None else None
    r0 = r0_declared if r0_declared is not None else track.r0
    r0_ok = bool(abs(area0 / (4.0 * np.pi * r0**2) - 1.0) <= 1e-8)
    within = None
    if declared is not None and any(
        v is not None for v in (declared.H0, declared.H1, declared.A1)
    ):
        within = True
        if declared.H0 is not None:
            within &= b.H0 >= declared.H0
        if declared.H1 is not None:
            within &= b.H1 <= declared.H1
        if declared.A1 is not None:
            within &= b.A1 <= declared.A1
    return ClassReport(
        H_min=b.H0,
        H_max=b.H1,
        absA_max=b.A1,
        r0=r0,
        area0=area0,
        mH0=mH0,
        h_positive=bool(b.H0 > 0.0),
        mH0_nonneg=bool(mH0 >= -1e-10),
        r0_ok=r0_ok,
        scalar_floor_ok=scalar_floor_ok,
        within_declared=within,
        I0_declared=declared.I0 if declared is not None else None,
    )


def _window(snap_times: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.where((snap_times >= a - 1e-12) & (snap_times <= b + 1e-12))[0]


class W12Accumulator(SnapshotAccumulator):
    """Streaming ``w12_normal_ricci``: holds at most three Rc(nu,nu) slices.

    The time derivative at each stored time uses the neighbouring slices with
    the weights ``np.gradient`` gives for the window's (possibly nonuniform)
    spacing: second-order central inside, one-sided first order at the ends.
    """

    def __init__(self, grid: SphereGrid, snap_times: np.ndarray, a: float, b: float):
        sel = _window(snap_times, a, b)
        self.window = (a, b)
        self.enough = len(sel) >= 3
        super().__init__(sel if self.enough else [])
        self.grid = grid
        self.t = snap_times[sel]
        self.density = np.empty(len(sel))
        self._u = {}
        if self.enough:
            dx = np.diff(self.t)
            self._uniform = bool((dx == dx[0]).all())
            self._dx = dx[0] if self._uniform else dx
            dx1, dx2 = dx[:-1], dx[1:]
            self._a = -dx2 / (dx1 * (dx1 + dx2))
            self._b = (dx2 - dx1) / (dx1 * dx2)
            self._c = dx1 / (dx2 * (dx1 + dx2))

    def take(self, i, j, t, geom, P1, P2) -> None:
        self._u[i] = geom.Rc_nn
        if i >= 1:
            self._density_at(i - 1)
        if i == len(self.t) - 1:
            self._density_at(i)
        self._u.pop(i - 2, None)

    def _density_at(self, i: int) -> None:
        u, n = self._u, len(self.t)
        if i == 0:
            u_t = (u[1] - u[0]) / (self._dx if self._uniform else self._dx[0])
        elif i == n - 1:
            u_t = (u[i] - u[i - 1]) / (self._dx if self._uniform else self._dx[-1])
        elif self._uniform:
            u_t = (u[i + 1] - u[i - 1]) / (2.0 * self._dx)
        else:
            u_t = self._a[i - 1] * u[i - 1] + self._b[i - 1] * u[i] + self._c[i - 1] * u[i + 1]
        grid = self.grid
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
    sphere, quadrature against d(sigma) dt.  Replays the track through
    ``W12Accumulator``.
    """
    acc = W12Accumulator(track.grid, track.snap_times, a, b)
    track.replay(acc)
    return acc.result()


class CompatAccumulator(SnapshotAccumulator):
    """Snapshot part of ``check_coordinate_compatibility`` over window [a, b].

    Reads Sigma_0 (K12 floor), every stored time in the window (W^{1,2}
    Ricci norm) and n_diam of them (intrinsic diameter); ``result`` adds the
    series-based ratios and gradient bound once the flow has ended.
    """

    def __init__(
        self,
        grid: SphereGrid,
        snap_times: np.ndarray,
        T: float,
        a: float,
        b: float,
        n_diam: int = 5,
    ):
        self.window = (a, b)
        self.T = float(T)
        self.w12 = W12Accumulator(grid, snap_times, a, b)
        sel = _window(snap_times, a, b)
        self.picks = sel[
            np.unique(np.linspace(0, len(sel) - 1, min(n_diam, len(sel))).astype(int))
        ]
        self.diam_times = snap_times[self.picks]
        self._diam = {}
        # an invalid window fails in result(), so it reads nothing
        self.valid = 0.0 <= a < b <= self.T + 1e-12
        super().__init__(np.union1d([0], sel) if self.valid else [])

    def take(self, i, j, t, geom, P1, P2) -> None:
        if j == 0:
            self.k12_min0 = float(np.min(geom.K12))
        self.w12.observe(j, t, geom, P1, P2)
        if j in self.picks:
            self._diam[j] = intrinsic_diameter(geom)

    def result(
        self,
        series,
        t_star: float = 4.0,
        ratio_band: tuple[float, float] = (0.4, 0.8),
        c3_max: float | None = None,
    ) -> CompatReport:
        a, b = self.window
        if not self.valid:
            raise WindowError(f"window [{a}, {b}] not inside [0, {self.T}]")
        s = series
        in_window = (s.times >= a - 1e-12) & (s.times <= b + 1e-12)
        C3 = float(np.max(s.gradf_max[in_window]))

        late = s.times >= t_star
        if np.any(late):
            C1 = float(np.min(s.r_min[late] / s.times[late]))
            C2 = float(np.max(s.r_max[late] / s.times[late]))
            ratios_ok = bool(ratio_band[0] <= C1 and C2 <= ratio_band[1])
        else:
            C1 = C2 = None
            ratios_ok = None

        w12 = self.w12.result()
        self._require_complete()
        diam_vals = np.array([self._diam[int(j)] for j in self.picks])
        return CompatReport(
            window=(a, b),
            t_star=t_star,
            C1=C1,
            C2=C2,
            C3=C3,
            ratio_band=ratio_band,
            ratios_ok=ratios_ok,
            grad_ok=bool(C3 <= c3_max) if c3_max is not None else True,
            w12_ricci=w12,
            k12_min0=self.k12_min0,
            k12_floor_ok=bool(self.k12_min0 >= -1.0 - 1e-10),
            diam_times=self.diam_times,
            diam_values=diam_vals,
            diam_max=float(np.max(diam_vals)),
        )


def check_coordinate_compatibility(
    track: FlowTrack,
    a: float,
    b: float,
    t_star: float = 4.0,
    ratio_band: tuple[float, float] = (0.4, 0.8),
    c3_max: float | None = None,
    n_diam: int = 5,
) -> CompatReport:
    """Radial growth ratios, graph-gradient bound and the W^{1,2} Ricci norm.

    Replays the track through ``CompatAccumulator``.
    """
    acc = CompatAccumulator(track.grid, track.snap_times, track.T, a, b, n_diam)
    track.replay(acc)
    return acc.result(track.series, t_star, ratio_band, c3_max)


def _nearest_snapshot(snap_times: np.ndarray, t: float) -> int:
    return int(np.argmin(np.abs(snap_times - t)))


class SampleAccumulator(SnapshotAccumulator):
    """Holder distance of Sigma_0 to round, and the Gauss deviation and
    intrinsic diameter at the stored snapshot nearest each t-sample."""

    def __init__(self, snap_times: np.ndarray, t_samples):
        self._snap_of = {t: _nearest_snapshot(snap_times, t) for t in t_samples}
        self._gauss, self._diam = {}, {}
        super().__init__(sorted({0, *self._snap_of.values()}))

    def take(self, i, j, t, geom, P1, P2) -> None:
        if j == 0:
            self.r0 = area_radius(geom)
            self.c_alpha = comparison.c_alpha_distance_to_round(geom, r0=self.r0)
        if j in self._snap_of.values():
            self._gauss[j] = comparison.gauss_deviation(geom, self.r0, t)
            self._diam[j] = intrinsic_diameter(geom)

    def result(self) -> tuple[float, dict, dict]:
        """(c_alpha, gauss deviation by t-sample, diameter by t-sample)."""
        self._require_complete()
        gauss = {t: self._gauss[j] for t, j in self._snap_of.items()}
        diam = {t: self._diam[j] for t, j in self._snap_of.items()}
        return self.c_alpha, gauss, diam


def run_row(scn: Scenario, row: ScenarioRow) -> RowResult:
    """Flow one scenario row, streaming every enabled check through the flow.

    Each check's accumulator sees the flow's own geometry at the stored
    snapshots, so no geometry is rebuilt after the flow.  Check errors are
    raised once the flow has ended, in the order the checks are listed here.
    Any exception marks the row failed and is recorded as ``Type: message``.
    """
    result = RowResult(label=row.label, eps=row.eps, ok=True)
    try:
        profile_report = validate_profile(row.profile)
        grid = row.surface0.grid
        times, snap_indices = time_grid(scn.T, scn.dt, scn.snap_every)
        snap_times = times[snap_indices]
        compat = pinch = chain = samples = None
        if scn.checks.get("compat", True):
            a, b = scn.resolved_compat_window()
            compat = CompatAccumulator(grid, snap_times, scn.T, a, b)
        if scn.checks.get("pinch", True):
            pinch = mass.PinchAccumulator(snap_times, grid.shape)
        if scn.checks.get("distances", True):
            chain = comparison.ChainAccumulator(
                snap_times, comparison.sample_indices(len(snap_times)),
                mode=scn.mode, m=scn.m,
            )
            samples = SampleAccumulator(snap_times, scn.resolved_t_samples())
        track = run(
            row.profile,
            row.surface0,
            T=scn.T,
            dt=scn.dt,
            cfl=scn.cfl,
            snap_every=scn.snap_every,
            observers=[
                acc.observe for acc in (compat, pinch, chain, samples) if acc is not None
            ],
        )
        result.track = track
        result.diag = mass.diagnostics(track)
        result.mH_T = float(track.series.m_H[-1])

        if scn.checks.get("class", True):
            result.class_report = check_class_membership(
                track, scalar_floor_ok=profile_report.passed
            )
        if compat is not None:
            result.compat_report = compat.result(track.series)
        if pinch is not None:
            result.pinch_pass = pinch.result().n_violations == 0
        if scn.checks.get("mass_at_infinity", True) and scn.T >= 2.0:
            try:
                result.mH_inf = mass.mass_at_infinity(track.times, track.series.m_H)
            except FitError:
                result.mH_inf = None
        if chain is not None:
            result.distances = chain.result()
            result.c_alpha, result.gauss_dev, result.diam = samples.result()
    except Exception as exc:
        result.ok = False
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_sequence(scn: Scenario, workers: int = 1) -> ReportTable:
    """Run all scenario rows (optionally concurrently); deterministic order."""
    rows = scn.rows()
    if workers <= 1 or len(rows) == 1:
        results = [run_row(scn, row) for row in rows]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda r: run_row(scn, r), rows))
    return ReportTable(scenario=scn, rows=results)


# -- emission -------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    v = float(value)
    if not np.isfinite(v):
        return "nan"
    return f"{v:.12g}"


def _series_at(diag: mass.MassDiagnostics, t: float, name: str) -> float:
    k = int(np.argmin(np.abs(diag.times - t)))
    return float(getattr(diag, name)[k])


def table_rows(report: ReportTable) -> list[dict]:
    """Flatten a report into one dict per (row, t-sample), CSV column keys."""
    scn = report.scenario
    out = []
    for rr in report.rows:
        flags = {
            "class_pass": rr.class_report.passed if rr.class_report else None,
            "compat_pass": rr.compat_report.passed if rr.compat_report else None,
            "pinch_pass": rr.pinch_pass,
            "row_ok": rr.ok,
        }
        for t in scn.resolved_t_samples():
            rec = {name: None for name in CSV_COLUMNS}
            rec["scenario_id"] = scn.id
            rec["eps"] = rr.eps
            rec["t"] = t
            rec.update(flags)
            if rr.ok and rr.diag is not None:
                for name in (
                    "area", "m_H", "I_gradH", "I_pinch", "I_R", "I_Rc",
                    "I_K12", "I_H2", "I_A2", "I_prod", "chi", "Hbar2",
                ):
                    rec[name] = _series_at(rr.diag, t, name)
                rec["l2_hat_g1"] = rr.distances.get("hat_g1")
                rec["l2_g1_g2"] = rr.distances.get("g1_g2")
                rec["l2_g2_g3"] = rr.distances.get("g2_g3")
                rec["l2_g3_model"] = rr.distances.get("g3_model")
                rec["l2_hat_model"] = rr.distances.get("hat_model")
                rec["c_alpha"] = rr.c_alpha
                rec["gauss_dev"] = rr.gauss_dev.get(t)
                rec["diam"] = rr.diam.get(t)
                rec["mH_T"] = rr.mH_T
                rec["mH_inf"] = rr.mH_inf
            out.append(rec)
    return out


def emit(report: ReportTable, formats=("csv", "json", "plot"), out_dir="out") -> list[Path]:
    """Write the report in the requested formats; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    base = report.scenario.id
    recs = table_rows(report)

    if "csv" in formats:
        path = out_dir / f"{base}.csv"
        lines = [",".join(CSV_COLUMNS)]
        for rec in recs:
            lines.append(",".join(_fmt(rec[c]) for c in CSV_COLUMNS))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    if "json" in formats:
        path = out_dir / f"{base}.json"
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
        path.write_text(
            json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n",
            encoding="utf-8",
        )
        written.append(path)

    if "plot" in formats:
        path = out_dir / f"{base}.gp"
        path.write_text(_plot_script(base), encoding="utf-8")
        written.append(path)
    return written


def _scenario_echo(scn: Scenario) -> dict:
    echo = dict(scn.__dict__)
    echo["t_samples"] = scn.resolved_t_samples()
    echo["compat_window"] = list(scn.resolved_compat_window())
    return echo


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


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (set, tuple)):
        return list(obj)
    return str(obj)


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
