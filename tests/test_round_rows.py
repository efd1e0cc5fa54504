"""Every round row of the shipped scenarios and the benchmark workloads,
run as a 16x32 copy at dt 0.004, against its closed-form report columns
(``oracles.round_row``), and the error of the report's time rule for the
distance chain against the exact integral."""

import json
from pathlib import Path

import numpy as np
import pytest

from imcf_lab.harness import run_row
from imcf_lab.scenario import scenario_from_dict

from .oracles import round_row
from .test_benchmark_inputs import workloads

ROOT = Path(__file__).resolve().parents[1]
SERIES = ("area", "m_H", "Hbar2", "I_H2", "I_A2", "I_prod", "I_Rc", "I_K12", "I_R", "chi")
REL = 1e-12
# absolute floors, for the columns whose exact value is 0 (m = 0, m' = 0, or
# I_H2 at s = 2m): the masses against 1e-12, the chain against 1e-20 (a
# squared distance; measured at most 3e-28), and the integrals against 1e-12
# of 16 pi, their scale.  The floor also covers I_R = 16 pi m' where m' is
# small but not 0: R + 6 cancels R ~ -6, so its round-off is absolute (1.2e-12
# relative on the rpi_sweep eps = 0.0125 row).
FLOOR = {"m_H": 1e-12, "mH_T": 1e-12, "l2_hat_model": 1e-20}
FLOOR_INTEGRAL = 16.0 * np.pi * 1e-12
# intrinsic_diameter's lattice overestimate on round spheres
DIAM_OVER = 0.09


def _documents():
    docs = {name: json.loads((ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
            for name in ("hyperbolic_round", "adss_round", "rpi_sweep")}
    docs["checks-heavy"] = workloads.WORKLOADS["checks-heavy"].scenario(0)
    for doc in docs.values():
        doc.update(grid={"n_theta": 16, "n_phi": 32}, dt=0.004)
    return docs


DOCS = _documents()
CASES = [(name, i) for name, doc in DOCS.items() for i in range(len(doc.get("epsilons", [None])))]


def _close(got, exact, col):
    floor = FLOOR.get(col, FLOOR_INTEGRAL if col.startswith("I_") else 0.0)
    return abs(got - exact) <= max(REL * abs(exact), floor)


@pytest.mark.parametrize("name, i", CASES, ids=[f"{n}-{i}" for n, i in CASES])
def test_round_row_matches_its_closed_forms(name, i):
    scn = scenario_from_dict(DOCS[name])
    row = scn.rows()[i]
    result = run_row(scn, row)
    assert result.ok, result.error
    mass = row.profile._mass
    exact = round_row(lambda s: mass(s)[0], lambda s: mass(s)[1], scn.area_radius,
                      scn.T, scn.dt, scn.m or 0.0)
    for t, k in result.sample_steps.items():
        assert exact["times"][k] == pytest.approx(t, abs=1e-12)
        for col in SERIES:
            got, want = float(getattr(result.diag, col)[k]), float(exact[col][k])
            assert _close(got, want, col), (col, t, got, want)
        s = scn.area_radius * np.exp(0.5 * exact["times"][k])
        assert np.pi * s * (1.0 - REL) <= result.diam[t] <= np.pi * s * (1.0 + DIAM_OVER)
    assert _close(result.mH_T, exact["mH_T"], "mH_T")
    assert _close(result.distances["hat_model"], exact["l2_hat_model"], "l2_hat_model")


# The chain's 101-point trapezoid in t against the exact hat -> model
# distance, relative, on the round rows whose distance is not 0: the PMT
# mass-aspect family (the shipped pmt_sweep with its mass_aspect ambients)
# and rpi_sweep.  Measured: -4.054e-5 ... -4.009e-5 and +2.614e-4 ... +3.776e-4.
TRAPEZOID_ERROR = {"pmt-mass-aspect": (-4.06e-5, -4.00e-5), "rpi-sweep": (2.6e-4, 3.8e-4)}


def _chain_documents():
    pmt = json.loads((ROOT / "scenarios" / "pmt_sweep.json").read_text(encoding="utf-8"))
    del pmt["amplitude_factor"]
    pmt.update(id="pmt-mass-aspect", family="mass_aspect")
    rpi = json.loads((ROOT / "scenarios" / "rpi_sweep.json").read_text(encoding="utf-8"))
    return {doc["id"]: doc for doc in (pmt, rpi)}


CHAIN_DOCS = _chain_documents()
CHAIN_CASES = [(name, eps) for name, doc in CHAIN_DOCS.items() for eps in doc["epsilons"] if eps > 0]


@pytest.mark.parametrize("name, eps", CHAIN_CASES, ids=[f"{n}-{e}" for n, e in CHAIN_CASES])
def test_the_reports_time_rule_error_on_round_rows(name, eps):
    """The report's l2_hat_model is the trapezoid ``round_row`` gives
    (``test_round_row_matches_its_closed_forms``); its error against the
    quadrature stays in the measured band."""
    scn = scenario_from_dict(CHAIN_DOCS[name])
    (row,) = [r for r in scn.rows() if r.eps == eps]
    mass = row.profile._mass
    args = (lambda s: mass(s)[0], lambda s: mass(s)[1], scn.area_radius, scn.T, scn.dt, scn.m or 0.0)
    trapezoid = round_row(*args)["l2_hat_model"]
    exact = round_row(*args, exact=True)["l2_hat_model"]
    lo, hi = TRAPEZOID_ERROR[name]
    assert lo <= (trapezoid - exact) / exact <= hi
