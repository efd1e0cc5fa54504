"""Tests of the benchmark's output check against doctored copies of a reference.

    python3 -m pytest -q perfbench/test_check.py
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from check import check_sweep, read_csv
from workloads import DEFAULT_SEED, WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference"
PMT = WORKLOADS["pmt-sweep"]


def _write_report(out: Path, scenario: dict, columns: list[str], records: list[dict],
                  rows_ok: list[bool]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    base = out / scenario["id"]
    with open(base.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    doc = {"schema": "imcf-lab-report/1", "rows": [{"ok": ok, "error": None} for ok in rows_ok]}
    base.with_suffix(".json").write_text(json.dumps(doc), encoding="utf-8")
    base.with_suffix(".gp").write_text("", encoding="utf-8")


@pytest.fixture
def pmt(tmp_path):
    """(check function, reference records) for the pmt-sweep reference."""
    scenario = PMT.scenario(DEFAULT_SEED)
    columns, records = read_csv(REFERENCE / "pmt-sweep.csv")

    def check(recs, exit_code=0, reference=True):
        _write_report(tmp_path / "out", scenario, columns, recs, [True, True])
        ref = records if reference else None
        return check_sweep(scenario, PMT.exact_model, exit_code, tmp_path / "out", columns, ref)

    return check, records


def _edit(records, index, column, value):
    out = [dict(r) for r in records]
    out[index][column] = value
    return out


def test_reference_passes(pmt):
    check, records = pmt
    assert check(records) == [None, None]


def test_perturbation_beyond_tolerance_is_rejected(pmt):
    check, records = pmt
    m_h = float(records[2]["m_H"])
    verdicts = check(_edit(records, 2, "m_H", repr(m_h * (1.0 + 1e-8))))
    assert verdicts[0] is not None and "m_H" in verdicts[0]
    assert verdicts[1] is None


def test_perturbation_within_tolerance_passes(pmt):
    check, records = pmt
    area = float(records[7]["area"])
    assert check(_edit(records, 7, "area", repr(area * (1.0 + 1e-12)))) == [None, None]


def test_round_off_below_the_floor_passes(pmt):
    check, records = pmt
    # the eps = 0 row's L^2 distance is round-off near 1e-26
    assert check(_edit(records, 6, "l2_hat_model", "5e-26")) == [None, None]


def test_verdict_column_must_match_exactly(pmt):
    check, records = pmt
    verdicts = check(_edit(records, 1, "pinch_pass", "false"))
    assert verdicts[0] is not None


def test_exit_code_must_match_row_status(pmt):
    check, records = pmt
    assert check(records, exit_code=2) == ["exit code 2, want 0"] * 2


def test_rigidity_oracle_without_reference(pmt):
    check, records = pmt
    verdicts = check(_edit(records, 8, "m_H", "1e-9"), reference=False)
    assert verdicts[1] is not None and "rigid" in verdicts[1]


def test_monotonicity_oracle_without_reference(pmt):
    check, records = pmt
    recs = [dict(r) for r in records]
    for r in recs[5:]:
        r["mH_T"] = "0.5"  # the eps = 0 row now has the larger m_H(T)
    verdicts = check(recs, reference=False)
    assert verdicts[1] is not None


def test_missing_report_fails_every_row(tmp_path):
    scenario = PMT.scenario(DEFAULT_SEED)
    columns, records = read_csv(REFERENCE / "pmt-sweep.csv")
    verdicts = check_sweep(scenario, False, 0, tmp_path / "absent", columns, records)
    assert all(v is not None for v in verdicts)


@pytest.mark.parametrize("seed", [1, 2, 7, 123])
def test_seeded_scenarios_keep_the_sweep_shape(seed):
    doc = PMT.scenario(seed)
    eps = doc["epsilons"]
    assert eps[-1] == 0.0 and all(b < a for a, b in zip(eps, eps[1:]))
    assert doc == PMT.scenario(seed)
    bumpy = WORKLOADS["bumpy-2d"].scenario(seed)["surface"]["amplitude"]
    assert 0.045 <= bumpy <= 0.055


def test_default_seed_gives_the_reference_scenario():
    for name, workload in WORKLOADS.items():
        text = json.dumps(workload.scenario(DEFAULT_SEED), indent=2, sort_keys=True) + "\n"
        assert text == (REFERENCE / f"{name}.json").read_text(encoding="utf-8")
