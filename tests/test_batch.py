"""A sweep's rows flow as one stacked batch: every report cell must be the
cell of the row flowed alone, string for string.

``run_sequence`` flows the rows that share a flow grid in one ``imcf.run``
call, their zeta stacked on a leading row axis; ``run_row(scn, row)`` flows
a row alone, as the batch of one.  The tests compare the two paths on every
shipped scenario (at 16x32), on a ``bumpy`` pair on its 2D grid, on a batch
whose rows take different numbers of substeps and on batches whose middle
row breaks down mid-flow or fails a streamed check (the batch then runs each
row alone), count the ``geometry()`` calls a batch makes and check the grid
of every field its grid operations get.
The batched geometry and series are also checked, bit for bit, against the
lone geometry and the plain per-row reductions they replace.  A row that
reaches t + dt first holds its zeta while the others substep on: a 2D pair
with uneven substep counts is checked against its lone flows, bit for bit,
and so are the hold itself and the substep budget of a batch.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from imcf_lab import comparison, harness, imcf
from imcf_lab.ambient import HyperbolicProfile
from imcf_lab.cli import main as cli_main
from imcf_lab.errors import StabilityError
from imcf_lab.harness import ReportTable, emit, run_row, run_sequence
from imcf_lab.scenario import Scenario, scenario_from_dict
from imcf_lab.sphere_grid import SphereGrid, get_grid
from imcf_lab.surface import SurfaceGeometry, geometry, make_graph, speed_geometry

from .oracles import lone_series_entries, stacked
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
    stack, batch = stacked(profiles, surfaces)
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

    profiles, starts = [r.profile for r in rows], [r.surface0 for r in rows]
    observers = [[observer(i)] for i in range(len(rows))]
    track = imcf.run(profiles, starts, T=scn.T, dt=scn.dt, observers=observers)
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


def _bumpy_2d_pair(amplitude: float):
    """Hyperbolic bumpy rows of ``amplitude`` at area radii 1.0 and 0.5 on
    16x32: their profiles and starts."""
    grid = get_grid(16, 32)
    profiles = [HyperbolicProfile(), HyperbolicProfile()]
    surfaces = [
        make_graph(p, grid, float(np.arcsinh(s)), "bumpy", amplitude)
        for p, s in zip(profiles, (1.0, 0.5))
    ]
    return profiles, surfaces


@pytest.mark.parametrize("amplitude, substeps", [(0.02, [2, 4]), (0.1, [4, 6])])
def test_a_row_that_arrives_first_on_the_2d_grid_holds_its_zeta_bit_for_bit(
    monkeypatch, amplitude, substeps
):
    """Two bumpy rows on 16x32 that alone take different numbers of
    substeps over two steps (one per ``speed_geometry`` call): while the
    slow row substeps on, the fast one holds its zeta.  Every series field,
    r0 and the geometry each row's observer sees at every stored snapshot
    are the lone flow's.  At amplitude 0.1 the held zeta is not a fixed
    point of ``polar_filter``, so the case fails if the hold is lost."""
    profiles, surfaces = _bumpy_2d_pair(amplitude)
    assert imcf.flow_batches(surfaces) == [[0, 1]]
    assert imcf.flow_grid(surfaces[0].grid, surfaces[0].zeta) is surfaces[0].grid

    def observer(seen):
        def observe(j, t, geom, P1, P2):
            fields = dataclasses.fields(geom)
            nodes = {f.name: np.array(getattr(geom, f.name)) for f in fields if f.name != "surface"}
            seen[j] = {"t": t, "zeta": geom.surface.zeta.copy(), "P1": P1.copy(), "P2": P2.copy()}
            seen[j].update(nodes)
        return observe

    calls = _count_speed_calls(monkeypatch)
    lone_seen, lone_tracks, lone_substeps = [{}, {}], [], []
    for profile, surface, seen in zip(profiles, surfaces, lone_seen):
        calls.clear()
        lone_tracks.append(imcf.run(profile, surface, T=0.1, dt=0.05, observers=[observer(seen)]))
        lone_substeps.append(len(calls))
    assert lone_substeps == substeps
    batch_seen = [{}, {}]
    observers = [[observer(seen)] for seen in batch_seen]
    batch = imcf.run(profiles, surfaces, T=0.1, dt=0.05, observers=observers)

    for got, want, got_seen, want_seen in zip(batch.split(), lone_tracks, batch_seen, lone_seen):
        assert got.r0 == want.r0
        for name in imcf._SERIES_FIELDS:
            assert np.array_equal(getattr(got.series, name), getattr(want.series, name)), name
        assert sorted(got_seen) == sorted(want_seen) == list(range(len(want.snap_indices)))
        for j, seen in want_seen.items():
            for name, value in seen.items():
                assert np.array_equal(got_seen[j][name], value), (j, name)


def test_a_held_row_keeps_its_zeta_where_the_filter_would_move_it():
    """``_substep``'s hold on the 2D grid, on a start that ``polar_filter``
    moves by round-off: the held row keeps its zeta bit for bit, and the
    moving row gets what it gets with no row held."""
    profiles, surfaces = _bumpy_2d_pair(0.02)
    grid, zeta = surfaces[1].grid, surfaces[1].zeta
    assert not np.array_equal(grid.polar_filter(zeta), zeta)
    stack, batch = stacked(profiles, surfaces)
    geom = geometry(stack, batch)
    tau0, htau = imcf._column([1.0, 1.0]), imcf._column([0.01, 0.0])
    held = imcf._substep(stack, geom, tau0, htau, [0.0, 0.0], hold=imcf._column([False, True]))
    free = imcf._substep(stack, geom, tau0, htau, [0.0, 0.0])
    assert np.array_equal(held.surface.zeta[1], zeta)
    assert np.array_equal(held.surface.zeta[0], free.surface.zeta[0])
    assert not np.array_equal(free.surface.zeta[1], zeta)


def test_a_batch_charges_the_substep_budget_to_the_rows_still_moving(monkeypatch):
    """With a budget of one substep per step, the uneven pair's fast row
    flows alone cleanly and the batch raises the slow row's lone message:
    the fast row, waiting through the slow row's second substep, is charged
    nothing and its guard is not tested."""
    monkeypatch.setattr(imcf, "MAX_SUBSTEPS", 1)
    scn = scenario_from_dict(UNEVEN_GUARDS)
    fast, slow = scn.rows()
    imcf.run(fast.profile, fast.surface0, T=scn.T, dt=scn.dt)
    with pytest.raises(StabilityError) as lone:
        imcf.run(slow.profile, slow.surface0, T=scn.T, dt=scn.dt)
    with pytest.raises(StabilityError) as batch:
        imcf.run([fast.profile, slow.profile], [fast.surface0, slow.surface0], T=scn.T, dt=scn.dt)
    assert str(batch.value) == str(lone.value)
    assert str(lone.value) == (
        "at t = 0.04: substep budget 1 exhausted (guard 0.0323 at t = 0.0308425)"
    )


def test_flow_batches_groups_the_starts_as_given(monkeypatch):
    """A bumpy sweep whose last row has amplitude 0: the two bumpy rows
    share the 2D grid and the ring-constant row flows on the meridian,
    decided without filtering any start."""
    scn = scenario_from_dict({**BUMPY_PAIR, "id": "bumpy-three", "epsilons": [0.1, 0.05, 0.0]})
    surfaces = [row.surface0 for row in scn.rows()]
    calls, real = [], SphereGrid.polar_filter

    def counted(self, field):
        calls.append(1)
        return real(self, field)

    monkeypatch.setattr(SphereGrid, "polar_filter", counted)
    assert imcf.flow_batches(surfaces) == [[0, 1], [2]]
    assert calls == []


@pytest.mark.parametrize(
    "n_phi, formulas",
    [((32, 64), ("round", "round")), ((32, 32), ("bumpy", "round"))],
    ids=["grids", "flow-grids"],
)
@pytest.mark.parametrize("flow", [imcf.run, imcf.record], ids=["run", "record"])
def test_a_batch_whose_rows_do_not_share_their_grids_raises(flow, n_phi, formulas):
    """Round rows on 16x32 and 16x64, which both flow on the 16x1 meridian,
    and a bumpy and a round row on 16x32, which flow on different grids:
    ``flow_batches`` puts them in different batches, and a batch of both
    is refused instead of flowed on its first row's grid."""
    profiles = [HyperbolicProfile(), HyperbolicProfile()]
    surfaces = [
        make_graph(p, get_grid(16, n), float(np.arcsinh(1.0)), formula, 0.02)
        for p, n, formula in zip(profiles, n_phi, formulas)
    ]
    assert imcf.flow_batches(surfaces) == [[0], [1]]
    with pytest.raises(ValueError, match=(
        r"^a batch's rows must share a grid and a flow grid; imcf.flow_batches groups them$"
    )):
        flow(profiles, surfaces, T=0.02, dt=0.01)


@pytest.mark.parametrize("flow", [imcf.run, imcf.record], ids=["run", "record"])
def test_a_batch_takes_one_start_per_profile(flow):
    """Two profiles and one start are refused, not flowed as one row with a
    track that names two."""
    profile = HyperbolicProfile()
    surface = make_graph(profile, get_grid(8, 8), float(np.arcsinh(1.0)))
    with pytest.raises(ValueError, match="shorter"):
        flow([profile, profile], [surface], T=0.02, dt=0.01)


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
    real_init = harness._RowChecks.__init__
    real_take = comparison.ChainAccumulator.take

    def rows(self):
        built = real_rows(self)
        middle.append(built[len(built) // 2])
        return built

    def init(self, scn, row):
        # tag the middle row's chain, which sees only its row's geometry
        real_init(self, scn, row)
        self.chain.middle = row is middle[-1]

    def take(self, i, j, t, geom, P1, P2):
        if j == 10 and self.middle:
            raise CheckBroke(f"chain broke at snapshot {j}")
        real_take(self, i, j, t, geom, P1, P2)

    monkeypatch.setattr(Scenario, "rows", rows)
    monkeypatch.setattr(harness._RowChecks, "__init__", init)
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
    ``geometry()`` call per row for its start (alone), then one per step and
    one midpoint ``speed_geometry()`` per step for the whole batch, every
    one on the meridian, where the rows alone make k (1 + N) and k N."""
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
    assert full == [1] * (k + n_steps)

    full.clear()
    midpoint.clear()
    for row in scn.rows():
        assert run_row(scn, row).ok
    assert (len(full), len(midpoint)) == (k * (1 + n_steps), k * n_steps)


@pytest.mark.parametrize("doc,n_phi", [(THREE_ROWS, 1), (BUMPY_PAIR, SMALL_GRID["n_phi"])],
                         ids=["ring-constant", "bumpy"])
def test_every_grid_operation_of_a_sweep_runs_on_its_flow_grid(monkeypatch, doc, n_phi):
    """Every field that ``geometry()``, ``speed_geometry()`` and
    ``polar_filter`` get in a sweep, the start's included, has the flow
    grid's n_phi: the meridian's 1 for ring-constant rows, the scenario's
    for ``bumpy`` rows."""
    seen = []

    def spied(real):
        def call(first, field):
            seen.append((real.__name__, np.shape(getattr(field, "zeta", field))[-1]))
            return real(first, field)

        return call

    monkeypatch.setattr(imcf, "geometry", spied(imcf.geometry))
    monkeypatch.setattr(imcf, "speed_geometry", spied(imcf.speed_geometry))
    monkeypatch.setattr(SphereGrid, "polar_filter", spied(SphereGrid.polar_filter))
    report = run_sequence(scenario_from_dict(doc))
    assert all(rr.ok for rr in report.rows)
    assert {name for name, _ in seen} == {"geometry", "speed_geometry", "polar_filter"}
    assert {width for _, width in seen} == {n_phi}
