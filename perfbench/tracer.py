"""Span tracer that times calls into imcf_lab from outside the package.

Each traced function is replaced, under the name its caller looks it up, by a
wrapper that records one span: name, start, end, parent span and row id, plus
an optional value (bytes, peak allocation).  Spans live in flat in-memory lists
and are written once, when the traced process ends.  ``layer_stats`` turns a
span file into the per-layer figures.

The span name is the function's defining module and name (``surface.geometry``),
while the patch goes where the caller resolves it (``imcf_lab.imcf.geometry``),
so spans see exactly the calls the program makes and nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from pathlib import Path

# (span name, object holding the name the caller looks up, attribute)
# Objects are given as dotted paths below the imcf_lab package.
TRACED = (
    ("scenario.load_scenario", "cli", "load_scenario"),
    ("scenario.rows", "scenario.Scenario", "rows"),
    ("harness.run_sequence", "cli", "run_sequence"),
    ("harness.run_row", "harness", "run_row"),
    ("ambient.validate_profile", "harness", "validate_profile"),
    ("imcf.run", "harness", "run"),
    ("imcf.snapshot_geometry", "imcf.FlowTrack", "snapshot_geometry"),
    ("surface.geometry", "imcf", "geometry"),
    ("surface.intrinsic_diameter", "harness", "intrinsic_diameter"),
    ("ambient.radius_from_area_radius", "ambient.HyperbolicProfile", "radius_from_area_radius"),
    ("ambient.radius_from_area_radius", "ambient._OdeWarpProfile", "radius_from_area_radius"),
    ("ambient.radius_from_area_radius", "ambient.TabulatedProfile", "radius_from_area_radius"),
    ("ambient.warp_curvature", "ambient.AmbientProfile", "warp_curvature"),
    ("sphere_grid.polar_filter", "sphere_grid.SphereGrid", "polar_filter"),
    ("sphere_grid.theta_derivs", "sphere_grid.SphereGrid", "theta_derivs"),
    ("sphere_grid.phi_derivs", "sphere_grid.SphereGrid", "phi_derivs"),
    ("sphere_grid.dtheta", "sphere_grid.SphereGrid", "dtheta"),
    ("sphere_grid.dphi", "sphere_grid.SphereGrid", "dphi"),
    ("mass.diagnostics", "mass", "diagnostics"),
    ("mass.pinch_bounds_check", "mass", "pinch_bounds_check"),
    ("mass.mass_at_infinity", "mass", "mass_at_infinity"),
    ("comparison.distance_chain", "comparison", "distance_chain"),
    ("comparison.assemble", "comparison", "assemble"),
    ("comparison.l2_distance", "comparison", "l2_distance"),
    ("comparison.c_alpha_distance_to_round", "comparison", "c_alpha_distance_to_round"),
    ("comparison.gauss_deviation", "comparison", "gauss_deviation"),
    ("harness.check_class_membership", "harness", "check_class_membership"),
    ("harness.check_coordinate_compatibility", "harness", "check_coordinate_compatibility"),
    ("harness.w12_normal_ricci", "harness", "w12_normal_ricci"),
    ("harness.emit", "cli", "emit"),
)


def resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _track_bytes(track) -> float:
    return float(track.snap_f.nbytes + track.snap_P1.nbytes + track.snap_P2.nbytes)


def _written_bytes(paths) -> float:
    return float(sum(Path(p).stat().st_size for p in paths))


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, alloc: bool = False):
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.row: list[int] = []
        self.value: list[float] = []
        self._stack = [-1]
        self._row_id = -1
        self.alloc = alloc

    def _span(self, name: str, fn, value=None, enter=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter()
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.row.append(self._row_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if value is not None:
                self.value[idx] = value(out)
            return out

        return wrapper

    def _enter_row(self):
        self._row_id += 1
        if self.alloc:
            tracemalloc.reset_peak()

    def install(self, package) -> None:
        """Patch every entry of TRACED inside the imported imcf_lab package."""
        for name, owner, attr in TRACED:
            holder = resolve(package, owner)
            fn = getattr(holder, attr)
            value = enter = None
            if name == "imcf.run":
                value = _track_bytes
            elif name == "harness.emit":
                value = _written_bytes
            elif name == "harness.run_row":
                enter = self._enter_row
                if self.alloc:
                    value = lambda _out: float(tracemalloc.get_traced_memory()[1])
            setattr(holder, attr, self._span(name, fn, value, enter))
        if self.alloc:
            tracemalloc.start()

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "row": self.row, "value": self.value,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def layer_stats(doc: dict, steps_per_row: int) -> dict:
    """Per-layer figures of one traced sweep, keyed by metric name.

    Self time is a span's duration minus the time its direct children cover;
    the process is single-threaded, so children never overlap.
    """
    names, name, parent, row, value = (
        doc["names"], doc["name"], doc["parent"], doc["row"], doc["value"]
    )
    ids = {n: i for i, n in enumerate(names)}
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    child_time = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    for i, n in enumerate(name):
        calls[n] += 1
        total[n] += dur[i]
        self_s[n] += dur[i] - child_time[i]
    out = {}
    for n, i in ids.items():
        out[f"{n}.calls"] = float(calls[i])
        out[f"{n}.s"] = total[i]
        out[f"{n}.self_s"] = self_s[i]

    def values(span_name):
        return [value[i] for i, n in enumerate(name) if n == ids[span_name]]

    geom, run, snap = ids["surface.geometry"], ids["imcf.run"], ids["imcf.snapshot_geometry"]
    # a flow that raised records no track size, so only finished rows count
    finished = {row[i] for i, n in enumerate(name) if n == run and value[i] > 0}
    flow_calls = dict.fromkeys(finished, 0)
    post_calls = 0
    for i, n in enumerate(name):
        if n == geom and parent[i] >= 0:
            if name[parent[i]] == run and row[i] in finished:
                flow_calls[row[i]] += 1
            elif name[parent[i]] == snap:
                post_calls += 1
    # the flow makes one geometry() call to start and two per RK2 substep
    substeps = sum((c - 1) / 2 for c in flow_calls.values())
    snap_calls = calls[snap]
    out.update({
        "surface.geometry.flow_calls": float(sum(flow_calls.values())),
        "surface.geometry.post_calls": float(post_calls),
        "imcf.substeps_per_step": (
            substeps / (len(finished) * steps_per_row) if finished else 0.0
        ),
        "imcf.snapshot_geometry.hit_ratio": (
            (snap_calls - post_calls) / snap_calls if snap_calls else 0.0
        ),
        "imcf.track_bytes": sum(values("imcf.run")),
        "harness.emit.bytes": sum(values("harness.emit")),
        "harness.run_row.peak_alloc_mb": max(values("harness.run_row"), default=0.0) / 2**20,
        # post-flow checks: everything in a row but the flow and the profile scan
        "harness.run_row.checks_s": (
            out["harness.run_row.s"] - out["imcf.run.s"] - out["ambient.validate_profile.s"]
        ),
    })
    return out
