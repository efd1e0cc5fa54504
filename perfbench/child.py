"""One process of the benchmark: ``imcf-lab run`` with stage clocks.

    python3 perfbench/child.py MODE SCENARIO OUT_DIR STATS_FILE

MODE is one of
  setup  import imcf_lab, ``load_scenario`` and ``Scenario.rows()``, then stop
  sweep  the CLI's ``run`` command on SCENARIO with one worker
  trace  as sweep, with a span at every call listed in ``tracer.TRACED``
  alloc  as trace, plus tracemalloc's peak per row (slow, so its times are unused)

STATS_FILE gets the monotonic clock at the end of set-up (the first
``Scenario.rows()`` return) and at the end of the sweep (``emit`` return), the
exit code and ``ru_maxrss``.  The monotonic clock is shared by the processes
of the machine, so the parent times set-up from the moment it started this
process.  Spans go to STATS_FILE with suffix ``.spans.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import imcf_lab
import imcf_lab.cli

from tracer import Tracer


def _clock_after(holder, attr: str, marks: dict, key: str) -> None:
    """Wrap holder.attr so that its first return stores the clock in marks."""
    inner = getattr(holder, attr)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        marks.setdefault(key, time.monotonic())
        return out

    setattr(holder, attr, wrapper)


def main(mode: str, scenario: str, out_dir: str, stats_file: str) -> int:
    tracer = None
    if mode in ("trace", "alloc"):
        tracer = Tracer(alloc=mode == "alloc")
        tracer.install(imcf_lab)
    marks: dict = {}
    # outermost wrappers, so the clocks also cover the traced spans
    _clock_after(imcf_lab.scenario.Scenario, "rows", marks, "setup_end")
    _clock_after(imcf_lab.cli, "emit", marks, "sweep_end")

    if mode == "setup":
        imcf_lab.cli.load_scenario(scenario).rows()
        code = 0
    else:
        code = imcf_lab.cli.main(
            ["run", scenario, "--out", out_dir, "--workers", "1", "--quiet"]
        )

    stats = {
        "exit_code": code,
        "setup_end": marks.get("setup_end"),
        "sweep_end": marks.get("sweep_end"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(Path(stats_file).with_suffix(".spans.json"))
    Path(stats_file).write_text(json.dumps(stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in ("setup", "sweep", "trace", "alloc"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
