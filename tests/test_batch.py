"""A sweep's rows flow as one stacked batch: every report cell must be the
cell of the row flowed alone, string for string.

``run_sequence`` flows the rows that share a flow grid in one ``imcf.run``
call, their zeta stacked on a leading row axis; ``run_row(scn, row)`` flows
a row alone, as the batch of one.  The tests compare the two paths on every
shipped scenario (at 16x32), on a ``bumpy`` pair on its 2D grid, on a batch
whose rows take different numbers of substeps and on batches whose middle
row breaks down mid-flow or fails a streamed check (the batch then runs each
row alone), and count the ``geometry()`` calls a batch makes.
The batched geometry and series are also checked, bit for bit, against the
lone geometry and the plain per-row reductions they replace.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from imcf_lab import comparison, imcf
from imcf_lab.cli import main as cli_main
from imcf_lab.harness import ReportTable, emit, run_row, run_sequence
from imcf_lab.scenario import Scenario, scenario_from_dict
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import SurfaceGeometry, geometry, make_graph, speed_geometry

from .oracles import lone_series_entries
from .test_s_form import PROFILES

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scenarios").glob("*.json"))
SMALL_GRID = {"n_theta": 16, "n_phi": 32}

# bumpy data (amplitudes 0.05 and 0.025) flows on the scenario's 2D grid
BUMPY_PAIR = {
    "id": "bumpy-pair", "mode": "PMT", "family": "combined", "epsilons": [0.1, 0.05],
    "surface": {"type": "bumpy", "area_radius": 1.0}, "T": 0.1, "dt": 0.001,
    "grid": SMALL_GRID,
}
# at dt = 0.04 on 16x32 the eps = 0.4 row takes one substep per step and the
# eps = 0 row, closer to the horizon, more: their guards differ
UNEVEN_GUARDS = {
    "id": "uneven-guards", "mode": "RPI", "m": 0.5, "family": "mass_aspect",
    "epsilons": [0.4, 0.0], "surface": {"type": "round", "area_radius": 1.0},
    "T": 0.32, "dt": 0.04, "grid": SMALL_GRID,
}
THREE_ROWS = {
    "id": "three-rows", "mode": "PMT", "family": "combined", "epsilons": [0.1, 0.05, 0.0],
    "T": 0.25, "dt": 2.5e-3, "grid": SMALL_GRID,
}


@pytest.mark.parametrize("shape", [(16, 1), (16, 32)], ids=["meridian", "2d"])
def test_a_batched_geometry_is_each_rows_lone_geometry_bit_for_bit(shape):
    """Every profile kind of the s-form tests in one batch, each row on its
    own perturbed start (ring-constant on the meridian, bumpy on the 2D
    grid): every field of geometry() and speed_geometry() on the batch is
    the row's lone field, and the area is the row's."""
    grid = get_grid(*shape)
    formula = "round" if shape[1] == 1 else "bumpy"
    profiles, surfaces = [], []
    for n, kind in enumerate(sorted(PROFILES)):
        profile, s0 = PROFILES[kind]()
        rbar = float(profile.radius_from_area_radius(s0))
        profiles.append(profile)
        surfaces.append(make_graph(profile, grid, rbar, formula, 0.02 * (n + 1)))
    stack, batch = imcf.stack_rows(profiles, surfaces)
    full, fast = geometry(stack, batch), speed_geometry(stack, batch)
    for i, (profile, surface) in enumerate(zip(profiles, surfaces)):
        lone = geometry(profile, surface)
        assert full.area[i] == lone.area
        for f in dataclasses.fields(SurfaceGeometry):
            if f.name not in ("surface", "area"):
                want = getattr(lone, f.name)
                assert np.array_equal(getattr(full, f.name)[i], want), f.name
                if hasattr(fast, f.name):
                    assert np.array_equal(getattr(fast, f.name)[i], want), f.name


def test_a_batchs_series_are_the_lone_rows_sums_bit_for_bit():
    """At every stored step, each row's recorded series entries equal the
    plain per-row reductions of the geometry its observers saw."""
    scn = scenario_from_dict(THREE_ROWS)
    rows = scn.rows()
    times, snap_indices = imcf.time_grid(scn.T, scn.dt)
    seen = [{} for _ in rows]

    def observer(i):
        def observe(j, t, geom, P1, P2):
            seen[i][int(snap_indices[j])] = lone_series_entries(geom)
        return observe

    profile, surface0 = imcf.stack_rows([r.profile for r in rows], [r.surface0 for r in rows])
    observers = [[observer(i)] for i in range(len(rows))]
    track = imcf.run(profile, surface0, T=scn.T, dt=scn.dt, observers=observers)
    for row, entries, lone in zip(rows, seen, track.split()):
        assert len(entries) == len(snap_indices)
        for step, want in entries.items():
            for name, value in want.items():
                got = getattr(lone.series, name)[step]
                if name in ("r_min", "r_max"):
                    value = row.profile.radius_from_area_radius(np.array([value]))[0]
                assert got == value, (row.label, step, name)


def _reports(report: ReportTable, out: Path) -> dict:
    """The CSV and JSON text ``emit`` writes for a report."""
    emit(report, out_dir=out)
    return {ext: (out / f"{report.scenario.id}.{ext}").read_text() for ext in ("csv", "json")}


def _batched_and_alone(scn: Scenario, tmp_path: Path):
    """The reports of the batched sweep and of every row flowed alone."""
    batched = run_sequence(scn)
    alone = ReportTable(scenario=scn, rows=[run_row(scn, row) for row in scn.rows()])
    texts = _reports(batched, tmp_path / "batched"), _reports(alone, tmp_path / "alone")
    return batched, alone, *texts


def _count_speed_calls(monkeypatch) -> list:
    """A list that gets one entry per ``speed_geometry`` call of the flow."""
    calls, real = [], imcf.speed_geometry

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(imcf, "speed_geometry", counted)
    return calls


@pytest.mark.parametrize(
    "doc",
    [{**json.loads(p.read_text()), "grid": SMALL_GRID} for p in SHIPPED]
    + [BUMPY_PAIR, UNEVEN_GUARDS],
    ids=[p.stem for p in SHIPPED] + ["bumpy-pair", "uneven-guards"],
)
def test_every_cell_of_a_batched_sweep_is_the_cell_of_its_row_alone(doc, tmp_path):
    scn = scenario_from_dict(doc)
    batched, alone, got, want = _batched_and_alone(scn, tmp_path)
    assert all(rr.ok for rr in alone.rows), [rr.error for rr in alone.rows]
    assert len(imcf.flow_batches([row.surface0 for row in scn.rows()])) == 1
    assert got["csv"] == want["csv"]
    assert got["json"] == want["json"]


def test_the_bumpy_pair_flows_on_its_2d_grid():
    rows = scenario_from_dict(BUMPY_PAIR).rows()
    grid = rows[0].surface0.grid
    assert imcf.flow_grid(grid, grid.polar_filter(rows[0].surface0.zeta)) is grid


def test_the_uneven_pair_takes_different_substep_counts(monkeypatch):
    """The precondition of the uneven-guards case: each row alone takes its
    own number of substeps (one per speed_geometry call), and only one of
    them takes one per step."""
    scn = scenario_from_dict(UNEVEN_GUARDS)
    calls = _count_speed_calls(monkeypatch)
    substeps = []
    for row in scn.rows():
        calls.clear()
        imcf.run(row.profile, row.surface0, T=scn.T, dt=scn.dt)
        substeps.append(len(calls))
    n_steps = round(scn.T / scn.dt)
    assert substeps[0] == n_steps < substeps[1]


def _narrow_middle_domain(monkeypatch, s_max: float) -> None:
    """Every ``Scenario.rows`` call gives its middle row a profile whose
    area-radius domain ends at s_max, which the flow crosses mid-flow."""
    real = Scenario.rows

    def rows(self):
        built = real(self)
        middle = built[len(built) // 2].profile
        middle.s_domain = (middle.s_domain[0], s_max)
        return built

    monkeypatch.setattr(Scenario, "rows", rows)


def test_a_row_that_breaks_down_mid_flow_fails_alone_and_the_others_go_on(monkeypatch, tmp_path):
    """The middle row leaves its profile's domain at t ~ 0.08 (zeta grows
    like e^{t/2} from 1): it reports the error it reports alone, and every
    other cell is its lone row's."""
    _narrow_middle_domain(monkeypatch, 1.04)
    scn = scenario_from_dict(THREE_ROWS)
    batched, alone, got, want = _batched_and_alone(scn, tmp_path)
    first, middle, last = batched.rows
    assert first.ok and last.ok and not middle.ok
    assert middle.error == alone.rows[1].error
    found = re.fullmatch(
        r"DomainError: at t = ([0-9.e-]+): area radius \S+ outside profile domain .*", middle.error
    )
    assert found and 0.0 < float(found.group(1)) < scn.T, middle.error
    assert got["csv"] == want["csv"]
    assert got["json"] == want["json"]


class CheckBroke(Exception):
    pass


@pytest.mark.parametrize("flow", [imcf.run, imcf.record], ids=["run", "record"])
def test_a_lone_flow_raises_its_observers_exception(flow):
    row = scenario_from_dict(THREE_ROWS).rows()[0]

    def observe(j, t, geom, P1, P2):
        if j == 3:
            raise CheckBroke(f"snapshot {j}")

    with pytest.raises(CheckBroke, match="snapshot 3"):
        flow(row.profile, row.surface0, T=0.25, dt=2.5e-3, observers=[observe])


def test_a_row_whose_check_raises_fails_alone_and_the_others_go_on(monkeypatch, tmp_path):
    """The middle row's metric-distance chain raises at its tenth stored
    snapshot: the row reports that error, as it does alone, and every other
    cell is its lone row's."""
    middle, real_rows = [], Scenario.rows
    real_take = comparison.ChainAccumulator.take

    def rows(self):
        built = real_rows(self)
        middle.append(built[len(built) // 2].profile)
        return built

    def take(self, i, j, t, geom, P1, P2):
        if j == 10 and geom.surface.profile is middle[-1]:
            raise CheckBroke(f"chain broke at snapshot {j}")
        real_take(self, i, j, t, geom, P1, P2)

    monkeypatch.setattr(Scenario, "rows", rows)
    monkeypatch.setattr(comparison.ChainAccumulator, "take", take)
    scn = scenario_from_dict(THREE_ROWS)
    batched, alone, got, want = _batched_and_alone(scn, tmp_path)
    assert [rr.ok for rr in batched.rows] == [True, False, True]
    assert batched.rows[1].error == alone.rows[1].error == "CheckBroke: chain broke at snapshot 10"
    assert got["csv"] == want["csv"]
    assert got["json"] == want["json"]


def test_the_cli_reports_every_row_of_a_batch_with_a_failed_row(monkeypatch, tmp_path):
    _narrow_middle_domain(monkeypatch, 1.04)
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_ROWS), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    lines = (out / "three-rows.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 5
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert flags == ["true"] * 5 + ["false"] * 5 + ["true"] * 5
    doc = json.loads((out / "three-rows.json").read_text())
    assert [row["ok"] for row in doc["rows"]] == [True, False, True]
    assert (out / "three-rows.gp").exists()


def test_a_batch_makes_one_geometry_call_per_step_for_all_its_rows(monkeypatch):
    """k ring-constant rows, N steps of one substep each: one full
    ``geometry()`` call per row for its start (alone, on the scenario's
    grid), then one per step and one midpoint ``speed_geometry()`` per step
    for the whole batch, where the rows alone make k (1 + N) and k N."""
    scn = scenario_from_dict(THREE_ROWS)
    k, n_steps = len(scn.epsilons), round(scn.T / scn.dt)
    full, real = [], imcf.geometry

    def geometry(profile, surface):
        full.append(surface.grid.n_phi)
        return real(profile, surface)

    monkeypatch.setattr(imcf, "geometry", geometry)
    midpoint = _count_speed_calls(monkeypatch)

    report = run_sequence(scn)
    assert all(rr.ok for rr in report.rows)
    assert len(midpoint) == n_steps           # one substep per step
    assert len(full) == k + n_steps
    assert full[:k] == [SMALL_GRID["n_phi"]] * k and set(full[k:]) == {1}

    full.clear()
    midpoint.clear()
    for row in scn.rows():
        assert run_row(scn, row).ok
    assert (len(full), len(midpoint)) == (k * (1 + n_steps), k * n_steps)
