"""The benchmark's tracer patches names inside the package: every name it
lists must still resolve, and its per-row byte count must accept the track
that ``imcf.run`` returns.  Otherwise ``perfbench/run.py --trace 1`` breaks
on a refactor of ``src/`` that no other test notices."""

import importlib.util
from pathlib import Path

import pytest

import imcf_lab
import imcf_lab.cli  # noqa: F401  (the tracer patches names in it)
from imcf_lab import imcf
from imcf_lab.scenario import scenario_from_dict

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "name, owner, attr", tracer.TRACED, ids=[f"{o}.{a}" for _, o, a in tracer.TRACED]
)
def test_every_traced_name_resolves(name, owner, attr):
    assert hasattr(tracer.resolve(imcf_lab, owner), attr), name


def test_track_bytes_accepts_a_run_track():
    """A mass-aspect row, whose track maps zeta to r through the ODE profile."""
    scn = scenario_from_dict({"id": "t", "epsilons": [0.1], "T": 0.02, "dt": 0.005,
                              "surface": {"type": "round"},
                              "grid": {"n_theta": 8, "n_phi": 8}})
    row = scn.rows()[0]
    track = imcf.run(row.profile, row.surface0, T=scn.T, dt=scn.dt)
    assert tracer._track_bytes(track) >= 0.0
