#!/usr/bin/env python3
"""Write the reference reports that the output check compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (default: all) this runs one sweep of the default-seed
scenario and stores the scenario file and the CSV it produced under
``perfbench/reference/``.  Rerun it only for a change that is meant to alter
the reported numbers, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, REFERENCE, child_env
from workloads import DEFAULT_SEED, WORKLOADS


def main(names: list[str]) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        scenario = WORKLOADS[name].scenario(DEFAULT_SEED)
        text = json.dumps(scenario, indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            work = Path(tmp)
            (work / "scenario.json").write_text(text, encoding="utf-8")
            cmd = [sys.executable, str(BENCH / "child.py"), "sweep", "scenario.json",
                   "out", "stats.json"]
            code = subprocess.run(cmd, cwd=work, env=child_env()).returncode
            print(f"{name}: exit code {code}")
            shutil.copyfile(work / "out" / f"{scenario['id']}.csv", REFERENCE / f"{name}.csv")
        (REFERENCE / f"{name}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
