"""The benchmark runs the scenario documents that ``perfbench/workloads.py``
generates: each must stay a valid scenario, or ``perfbench/run.py`` breaks
on a new scenario rule that no other test notices."""

import importlib.util
import sys
from pathlib import Path

import pytest

from imcf_lab.scenario import scenario_from_dict

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclass looks its module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 123])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_document_is_a_valid_scenario(name, seed):
    doc = workloads.WORKLOADS[name].scenario(seed)
    assert scenario_from_dict(doc).id == name
