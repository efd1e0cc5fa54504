"""The benchmark runs the scenario documents that ``perfbench/workloads.py``
generates: each must stay a valid scenario whose rows build, or
``perfbench/run.py`` breaks on a new scenario rule that no other test
notices.  With the shipped scenarios, they also set every scenario key."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from imcf_lab.scenario import FIELDS, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclass looks its module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 123])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_document_is_a_valid_scenario(name, seed):
    scn = scenario_from_dict(workloads.WORKLOADS[name].scenario(seed))
    assert scn.id == name
    assert len(scn.rows()) == len(scn.epsilons or [None])


def test_every_top_level_key_is_set_by_a_shipped_document():
    """A key that no shipped scenario and no seed-0 benchmark document sets is
    a value no one changes, and belongs in the code, not the schema."""
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in (ROOT / "scenarios").glob("*.json")]
    docs += [w.scenario(0) for w in workloads.WORKLOADS.values()]
    unset = {f.name for f in FIELDS} - {key for doc in docs for key in doc}
    assert not unset, sorted(unset)


def test_every_surface_type_builds_its_own_graph():
    """A ``surface.type`` value whose graph another value also builds is a
    second name for one object: each allowed type, at a nonzero amplitude,
    gives initial area radii that no other type gives."""
    (surface,) = [f for f in FIELDS if f.name == "surface"]
    (kind,) = [f for f in surface.fields if f.name == "type"]
    graphs = {}
    for name in kind.allowed:
        doc = {"id": "x", "profile": {"kind": "hyperbolic"},
               "surface": {"type": name, "amplitude": 0.05},
               "T": 0.1, "dt": 0.025, "grid": {"n_theta": 16, "n_phi": 32}}
        (row,) = scenario_from_dict(doc).rows()
        graphs[name] = row.surface0.zeta.tobytes()
    assert len(set(graphs.values())) == len(graphs), sorted(graphs)
