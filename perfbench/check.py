"""Output check of one sweep: exit code, report files, reference and oracles.

``check_sweep`` returns one verdict per scenario row: ``None`` when the row
passed, else the reason it failed.  A row fails when the program raised in it
(``row_ok`` false), when its CSV records differ from the reference beyond the
tolerance, or when it breaks one of the paper's oracles:

* rows with eps = 0, and single rows of exact model data, sit at rigidity:
  m_H and m_H(T) vanish to round-off and the L^2 distance to the model is at
  round-off;
* along a sweep's strictly decreasing eps list, m_H(T) and l2_hat_model
  strictly decrease.

The reference is a CSV taken at the default seed.  It applies when the
generated scenario equals the scenario the reference was taken from.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REL_TOL = 1e-10
# absolute floors for values at round-off size, per column; the eps = 0 rows
# hold m_H near 1e-16, I_gradH near 1e-22 and the L^2 distances near 1e-25
FLOORS = {
    "m_H": 1e-13, "mH_T": 1e-13, "mH_inf": 1e-13,
    "I_gradH": 1e-20, "I_pinch": 1e-20, "gauss_dev": 1e-20,
    "l2_hat_g1": 1e-22, "l2_g1_g2": 1e-22, "l2_g2_g3": 1e-22,
    "l2_g3_model": 1e-22, "l2_hat_model": 1e-22,
    "c_alpha": 1e-18,
}
DEFAULT_FLOOR = 1e-12
TEXT_COLUMNS = {"scenario_id"}
VERDICT_COLUMNS = {"class_pass", "compat_pass", "pinch_pass", "row_ok"}
RIGIDITY = {"m_H": 1e-12, "mH_T": 1e-12, "l2_hat_model": 1e-18}
REPORT_SCHEMA = "imcf-lab-report/1"


def read_csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def cell_matches(column: str, got: str, want: str) -> bool:
    if column in TEXT_COLUMNS or column in VERDICT_COLUMNS or got == want:
        return got == want
    a, b = _num(got), _num(want)
    if a is None or b is None:
        return False
    floor = FLOORS.get(column, DEFAULT_FLOOR)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), floor)


def compare_reference(records: list[dict], reference: list[dict]) -> list[str]:
    """Mismatch messages, one per differing cell."""
    if len(records) != len(reference):
        return [f"{len(records)} records, reference has {len(reference)}"]
    bad = []
    for i, (got, want) in enumerate(zip(records, reference)):
        for column, value in want.items():
            if not cell_matches(column, got.get(column, ""), value):
                bad.append(f"record {i} {column}: {got.get(column)!r} != reference {value!r}")
    return bad


def _rows_of(records: list[dict], n_rows: int) -> list[list[dict]]:
    per = len(records) // n_rows
    return [records[i * per:(i + 1) * per] for i in range(n_rows)]


def check_sweep(scenario: dict, exact_model: bool, exit_code: int, out_dir,
                columns: list[str], reference: list[dict] | None) -> list[str | None]:
    """Verdict per scenario row; see the module docstring.

    ``columns`` is the expected CSV header; ``reference`` holds the reference
    records, or None where no reference applies.
    """
    eps_list = scenario.get("epsilons") or [None]
    n_rows = len(eps_list)
    base = Path(out_dir) / scenario["id"]
    csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".json")
    if not (csv_path.is_file() and json_path.is_file() and base.with_suffix(".gp").is_file()):
        return [f"report missing (exit code {exit_code})"] * n_rows

    header, records = read_csv(csv_path)
    if header != columns:
        return ["CSV header differs from the expected columns"] * n_rows
    n_t = len(scenario.get("t_samples") or [0] * 5)
    if len(records) != n_rows * n_t:
        return [f"{len(records)} CSV records, want {n_rows * n_t}"] * n_rows
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    if doc.get("schema") != REPORT_SCHEMA or len(doc.get("rows", [])) != n_rows:
        return ["JSON report schema or row count is wrong"] * n_rows

    rows = _rows_of(records, n_rows)
    verdicts: list[str | None] = [None] * n_rows
    any_failed = False
    for i, (eps, recs) in enumerate(zip(eps_list, rows)):
        ok = {r["row_ok"] for r in recs} == {"true"}
        any_failed |= not ok
        if not ok:
            verdicts[i] = f"row_ok=false: {doc['rows'][i].get('error')}"
        elif doc["rows"][i].get("ok") is not True:
            verdicts[i] = "JSON row not ok while CSV row_ok=true"
        elif any(r["scenario_id"] != scenario["id"] or _num(r["eps"]) != eps for r in recs):
            verdicts[i] = "scenario_id or eps column does not match the scenario"
    want_code = 2 if any_failed else 0
    if exit_code != want_code:
        return [f"exit code {exit_code}, want {want_code}"] * n_rows

    if reference is not None:
        for i, want in enumerate(_rows_of(reference, n_rows)):
            bad = compare_reference(rows[i], want)
            if bad and verdicts[i] is None:
                verdicts[i] = f"differs from reference: {bad[0]}"

    for i, (eps, recs) in enumerate(zip(eps_list, rows)):
        if verdicts[i] is not None or not (eps == 0.0 or (eps is None and exact_model)):
            continue
        for r in recs:
            for column, tol in RIGIDITY.items():
                value = _num(r[column])
                if value is None or not abs(value) <= tol:
                    verdicts[i] = f"not rigid: {column} = {r[column]} at t = {r['t']}"
    for i in range(1, n_rows):
        if verdicts[i] is not None or verdicts[i - 1] is not None:
            continue
        for column in ("mH_T", "l2_hat_model"):
            if not _num(rows[i][0][column]) < _num(rows[i - 1][0][column]):
                verdicts[i] = f"{column} does not strictly decrease in eps"
    return verdicts
