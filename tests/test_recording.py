"""Snapshot storage is asked for: ``run`` keeps no per-node track, ``record``
keeps every snapshot exactly as the flow handed it to its observers, and only
a recorded track can be replayed."""

import tracemalloc

import numpy as np
import pytest

from imcf_lab import imcf
from imcf_lab.ambient import HyperbolicProfile
from imcf_lab.comparison import distance_chain
from imcf_lab.errors import TrackError
from imcf_lab.harness import check_coordinate_compatibility, run_row, w12_normal_ricci
from imcf_lab.mass import pinch_bounds_check
from imcf_lab.scenario import scenario_from_dict
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import make_graph

from .oracles import ProbeField, weak_ricci_pairing
from .test_streaming import BASE, DOCS, _scenario


@pytest.fixture(scope="module")
def p2_row():
    """The combined family's eps = 0.1 row (mass-aspect ambient, round graph of amplitude 0.05) at 32x64."""
    scn = _scenario("p2-mass-aspect")
    return scn, scn.rows()[0]


def _p2_row():
    """That row at 32x64 flowed to T = 0.4 (400 steps)."""
    scn = scenario_from_dict({"id": "p2", **BASE, **DOCS["p2-mass-aspect"], "T": 0.4})
    return scn, scn.rows()[0]


def _row_peak(scn, row) -> int:
    """The tracemalloc peak of ``run_row`` on a built row, in bytes."""
    tracemalloc.start()
    try:
        result = run_row(scn, row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok, result.error
    return peak


def test_sweep_row_holds_less_than_one_snapshot_track():
    """A row running every check, 401 snapshots at 32x64, peaks below the
    bytes that the flow's zeta, P1 and P2 snapshots alone would take."""
    scn, row = _p2_row()
    n_snap = len(imcf.time_grid(scn.T, scn.dt)[1])
    assert n_snap == 401
    track_bytes = 3 * n_snap * row.surface0.zeta.size * 8
    peak = _row_peak(scn, row)
    assert peak < track_bytes, (peak, track_bytes)


def test_sweep_row_memory_does_not_grow_with_its_snapshots(monkeypatch):
    """401 and 51 snapshots of the same row peak within a quarter of the
    2 x 350 x 2048 bytes that two boolean verdicts per node and extra snapshot
    would add: no check keeps per-node history.  No scenario sets the
    snapshot interval, so the test sets the flow's own."""
    peaks = {}
    for every, n_snap in ((1, 401), (8, 51)):
        scn, row = _p2_row()
        monkeypatch.setattr(imcf, "snap_interval", lambda n_steps, snap_every: every)
        assert len(imcf.time_grid(scn.T, scn.dt)[1]) == n_snap
        peaks[n_snap] = _row_peak(scn, row)
    verdict_bytes = 2 * (401 - 51) * row.surface0.zeta.size
    assert abs(peaks[401] - peaks[51]) < verdict_bytes / 4, (peaks, verdict_bytes)


def test_record_stores_what_the_observers_received(p2_row):
    scn, row = p2_row
    seen = {}

    def observe(j, t, geom, P1, P2):
        seen[j] = (geom.surface.zeta.copy(), P1.copy(), P2.copy())

    track = imcf.record(row.profile, row.surface0, T=scn.T, dt=scn.dt, observers=[observe])
    assert sorted(seen) == list(range(len(track.snap_indices)))
    # a slot holds the scenario's grid; a later snapshot arrives as the
    # meridian column, which the slot repeats on every ring
    shape = row.surface0.grid.shape
    for j, (zeta, P1, P2) in seen.items():
        assert np.array_equal(track.snap_zeta[j], np.broadcast_to(zeta, shape))
        assert np.array_equal(track.snap_P1[j], np.broadcast_to(P1, shape))
        assert np.array_equal(track.snap_P2[j], np.broadcast_to(P2, shape))
    # the later snapshots are not the live buffers' final state
    assert not np.array_equal(track.snap_P1[1], track.snap_P1[-1])
    plain = imcf.run(row.profile, row.surface0, T=scn.T, dt=scn.dt)
    for name in vars(plain.series):
        assert np.array_equal(getattr(plain.series, name), getattr(track.series, name)), name


def test_run_track_stores_no_snapshots_and_cannot_be_replayed(p2_row):
    scn, row = p2_row
    track = imcf.run(row.profile, row.surface0, T=scn.T, dt=scn.dt)
    empty = (0, *row.surface0.grid.shape)
    assert track.snap_zeta.shape == track.snap_P1.shape == track.snap_P2.shape == empty
    assert len(track.snap_indices) == len(track.snap_times) == 201
    # the mass-aspect inverse accepts the empty stack
    assert track.snap_f.shape == empty
    acc = imcf.SnapshotRecorder(len(track.snap_indices), row.surface0.grid.shape)
    checks = {
        "replay": lambda: track.replay(acc),
        "snapshot_geometry": lambda: track.snapshot_geometry(0),
        "pinch_bounds_check": lambda: pinch_bounds_check(track),
        "distance_chain": lambda: distance_chain(track),
        "w12_normal_ricci": lambda: w12_normal_ricci(track, 0.1, 0.2),
        "check_coordinate_compatibility": lambda: check_coordinate_compatibility(track, 0.1, 0.2),
        "weak_ricci_pairing": lambda: weak_ricci_pairing(track, ProbeField.constant(), 0.0, 0.1),
    }
    for name, call in checks.items():
        with pytest.raises(TrackError, match="imcf.record, not imcf.run"):
            call()


@pytest.mark.parametrize("T", [0.02, 0.01], ids=["3-snapshots", "2-snapshots"])
def test_an_unsplit_batch_track_cannot_be_replayed(T):
    """A batch's track from ``record`` holds its rows on a leading axis: a
    replay must name ``split()``, also when the batch has as many rows as
    stored snapshots (T = 0.01: 2 and 2)."""
    grid = get_grid(8, 8)
    profiles = [HyperbolicProfile(), HyperbolicProfile()]
    surfaces = [make_graph(p, grid, float(np.arcsinh(s))) for p, s in zip(profiles, (1.0, 0.5))]
    track = imcf.record(profiles, surfaces, T=T, dt=0.01)
    acc = imcf.SnapshotRecorder(len(track.snap_indices), grid.shape)
    calls = [lambda: track.replay(acc)] + [
        lambda j=j: track.snapshot_geometry(j) for j in range(len(track.snap_indices))
    ]
    for call in calls:
        with pytest.raises(TrackError, match=r"split\(\)"):
            call()
    for lone in track.split():
        lone.snapshot_geometry(1)


@pytest.mark.parametrize("flow", [imcf.run, imcf.record], ids=["run", "record"])
def test_a_lone_rows_track_splits_into_itself(flow):
    grid = get_grid(8, 8)
    profile = HyperbolicProfile()
    track = flow(profile, make_graph(profile, grid, float(np.arcsinh(1.0))), T=0.02, dt=0.01)
    parts = track.split()
    assert len(parts) == 1 and parts[0] is track
