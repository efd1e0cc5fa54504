#!/usr/bin/env python3
"""Sweep benchmark for imcf-lab: time to report, memory and failure rate.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each sweep is a fresh process running
``imcf-lab run`` on the workload's scenario, generated from the seed, with
one worker and BLAS pinned to at most 2 threads.  The loop is closed: one
sweep at a time, until S seconds have passed and at least two sweeps ran.  Every sweep's report is
checked (``check.py``).

--trace 0 reports the end-to-end metrics: set-up time, sweep time, flow steps
per second and peak RSS.  Set-up is also timed in extra processes that stop
after set-up, so each run has several set-up samples.
--trace 1 alternates untraced sweeps with traced ones and reports per-layer
figures from the spans (``tracer.py``), plus the tracing overhead: traced
minus untraced sweep time.  One more sweep runs with tracemalloc for the
per-row allocation peak.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (scenario rows) and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from check import check_sweep, read_csv
from tracer import layer_stats
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
N_SETUP = 6            # set-up-only processes per run
MIN_SWEEPS = 2         # untraced sweeps per run, however long they take
HARD_LIMIT_S = 170.0   # a run ends within this many seconds
BLAS_THREADS = min(os.cpu_count() or 1, 2)

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "scenario.load_scenario.s": "s",
    "scenario.rows.s": "s",
    "ambient.validate_profile.s": "s",
    "ambient.radius_from_area_radius.calls": "count",
    "ambient.radius_from_area_radius.s": "s",
    "ambient.warp_curvature.calls": "count",
    "ambient.warp_curvature.s": "s",
    "sphere_grid.polar_filter.calls": "count",
    "sphere_grid.polar_filter.s": "s",
    "sphere_grid.theta_derivs.s": "s",
    "sphere_grid.phi_derivs.s": "s",
    "sphere_grid.dtheta.s": "s",
    "sphere_grid.dphi.s": "s",
    "surface.geometry.flow_calls": "count",
    "surface.geometry.post_calls": "count",
    "surface.geometry.self_s": "s",
    "surface.intrinsic_diameter.s": "s",
    "imcf.run.s": "s",
    "imcf.run.self_s": "s",
    "imcf.substeps_per_step": "ratio",
    "imcf.snapshot_geometry.calls": "count",
    "imcf.snapshot_geometry.hit_ratio": "ratio",
    "imcf.track_bytes": "bytes",
    "mass.diagnostics.s": "s",
    "mass.pinch_bounds_check.s": "s",
    "mass.mass_at_infinity.s": "s",
    "comparison.distance_chain.s": "s",
    "comparison.assemble.s": "s",
    "comparison.l2_distance.s": "s",
    "comparison.c_alpha_distance_to_round.s": "s",
    "comparison.gauss_deviation.s": "s",
    "harness.check_class_membership.s": "s",
    "harness.check_coordinate_compatibility.s": "s",
    "harness.w12_normal_ricci.s": "s",
    "harness.run_row.s": "s",
    "harness.run_row.checks_s": "s",
    "harness.run_row.peak_alloc_mb": "MB",
    "harness.emit.s": "s",
    "harness.emit.bytes": "bytes",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts the benchmark's processes one at a time and collects samples."""

    def __init__(self, workload, seed: int, work: Path, t_start: float):
        self.workload = workload
        self.scenario = workload.scenario(seed)
        self.work = work
        self.t_start = t_start
        self.scenario_path = work / f"{workload.name}.json"
        self.scenario_text = json.dumps(self.scenario, indent=2, sort_keys=True) + "\n"
        self.scenario_path.write_text(self.scenario_text, encoding="utf-8")
        ref_scn = REFERENCE / f"{workload.name}.json"
        self.columns, ref_records = read_csv(REFERENCE / f"{workload.name}.csv")
        same = ref_scn.read_text(encoding="utf-8") == self.scenario_text
        self.reference = ref_records if same else None
        self.env = child_env()
        self.n = 0
        self.samples: dict[str, list] = {
            "setup_s": [], "sweep_s": [], "steps_per_s": [], "peak_rss_mb": [],
            "trace_sweep_s": [], "layers": [], "peak_alloc_mb": [],
        }
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def child(self, mode: str) -> tuple[int | None, dict, Path]:
        """Run one child process; returns (exit code or None, stats, out dir)."""
        self.n += 1
        out = self.work / f"out{self.n}"
        stats_path = self.work / f"stats{self.n}.json"
        timeout = HARD_LIMIT_S - (time.monotonic() - self.t_start)
        cmd = [sys.executable, str(BENCH / "child.py"), mode,
               str(self.scenario_path), str(out), str(stats_path)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, timeout=max(timeout, 1.0),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return None, {}, out
        try:
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            stats = {}
        if stats.get("setup_end") is not None:
            stats["setup_s"] = stats["setup_end"] - t0
            if stats.get("sweep_end") is not None:
                stats["sweep_s"] = stats["sweep_end"] - stats["setup_end"]
        if proc.returncode not in (0, 2):
            stats["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return proc.returncode, stats, out

    def setup(self) -> None:
        code, stats, _ = self.child("setup")
        if code == 0 and "setup_s" in stats:
            self.samples["setup_s"].append(stats["setup_s"])
        else:
            self.reasons.append(f"set-up process failed: {stats.get('error', code)}")

    def sweep(self, mode: str) -> None:
        code, stats, out = self.child(mode)
        n_rows = len(self.scenario.get("epsilons") or [None])
        self.attempted += n_rows
        if code is None:
            verdicts = [f"timed out after {HARD_LIMIT_S:g} s"] * n_rows
        elif "sweep_s" not in stats:
            verdicts = [f"sweep did not finish: {stats.get('error', code)}"] * n_rows
        else:
            verdicts = check_sweep(self.scenario, self.workload.exact_model, code, out,
                                   self.columns, self.reference)
        shutil.rmtree(out, ignore_errors=True)
        bad = [v for v in verdicts if v is not None]
        self.failed += len(bad)
        self.reasons.extend(bad)
        if "sweep_s" not in stats:
            return
        if mode == "sweep":
            self.samples["setup_s"].append(stats["setup_s"])
            self.samples["peak_rss_mb"].append(stats["maxrss_kb"] / 1024.0)
            ok_steps = (n_rows - len(bad)) * self.workload.steps_per_row()
            self.samples["steps_per_s"].append(ok_steps / stats["sweep_s"])
            if not bad:
                self.samples["sweep_s"].append(stats["sweep_s"])
            return
        spans = json.loads(
            (self.work / f"stats{self.n}.spans.json").read_text(encoding="utf-8")
        )
        layers = layer_stats(spans, self.workload.steps_per_row())
        if mode == "trace":
            self.samples["layers"].append(layers)
            if not bad:
                self.samples["trace_sweep_s"].append(stats["sweep_s"])
        else:
            self.samples["peak_alloc_mb"].append(layers["harness.run_row.peak_alloc_mb"])


def summary(values: list[float], unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    tail = [q for q in (50, 75, 90, 95, 99) if n * (100 - q) / 100 >= 10]
    if tail:
        cut = statistics.quantiles(values, n=100, method="inclusive")[tail[-1] - 1]
        text += f", p{tail[-1]} {cut:.6g} {unit}"
    return text + f", min {min(values):.6g}, max {max(values):.6g}, n = {n}"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(runner: Runner, seed: int) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "workload": runner.workload.name,
        "scenario_sha256": hashlib.sha256(runner.scenario_text.encode()).hexdigest(),
        "reference_compared": runner.reference is not None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "imcf_lab" / "cli.py").is_file():
        print(f"no imcf_lab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    t_start = time.monotonic()
    compileall.compile_dir(str(SRC), quiet=1)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work, t_start)
        runner.child("setup")  # warm-up: byte code and the page cache
        t_measure = time.monotonic()
        if args.trace:
            for mode in ("sweep", "trace", "alloc"):
                runner.sweep(mode)
            while time.monotonic() - t_measure < args.seconds:
                runner.sweep("trace")
                runner.sweep("sweep")
        else:
            for _ in range(N_SETUP):
                runner.setup()
            for k in itertools.count():
                if k >= MIN_SWEEPS and time.monotonic() - t_measure >= args.seconds:
                    break
                runner.sweep("sweep")
        prov = provenance(runner, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    s = runner.samples
    correct = runner.failed == 0 and not runner.reasons
    failed_frac = runner.failed / runner.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} rows attempted, {runner.failed} failed")
    for reason in sorted(set(runner.reasons)):
        print(f"  check failed: {reason}")
    metrics = {}
    if args.trace:
        layers = {name: statistics.median(d[name] for d in s["layers"])
                  for name in PER_LAYER if s["layers"] and name in s["layers"][0]}
        if s["peak_alloc_mb"]:
            layers["harness.run_row.peak_alloc_mb"] = statistics.median(s["peak_alloc_mb"])
        if s["trace_sweep_s"] and s["sweep_s"]:
            traced, plain = statistics.median(s["trace_sweep_s"]), statistics.median(s["sweep_s"])
            layers.update({"trace.sweep_s": traced, "trace.overhead_s": traced - plain,
                           "trace.overhead_frac": (traced - plain) / plain})
        for name, unit in PER_LAYER.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
                print(f"  {name:44s} {layers[name]:.6g} {unit}")
    else:
        for name, unit in END_TO_END.items():
            if s[name]:
                metrics[name] = {"value": statistics.median(s[name]), "unit": unit}
                print(f"  {name:12s} {summary(s[name], unit)}")
            else:
                print(f"  {name:12s} no sample")
        print(f"  {'failed_frac':12s} {failed_frac:.6g} ratio "
              f"({runner.failed} of {runner.attempted} rows)")
    missing = set(PER_LAYER if args.trace else END_TO_END) - set(metrics)
    correct = correct and not missing
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
