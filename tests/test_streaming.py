"""Streaming checks: what a sweep row accumulates during its flow must equal
what the replayed track and the full-grid reference paths give afterwards."""

from types import SimpleNamespace

import numpy as np
import pytest

from imcf_lab import harness, imcf
from imcf_lab.cli import main as cli_main
from imcf_lab.errors import ValidationError
from imcf_lab.comparison import (
    assemble,
    c_alpha_distance_to_round,
    default_time_indices,
    gauss_deviation,
    l2_distance,
)
from imcf_lab.harness import W12Accumulator, run_row, run_sequence
from imcf_lab.mass import PinchAccumulator, pinch_bounds_check
from imcf_lab.scenario import scenario_from_dict
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import intrinsic_diameter

GRID32 = {"n_theta": 32, "n_phi": 64}
BASE = {"T": 0.2, "dt": 1e-3, "grid": GRID32, "checks": {"mass_at_infinity": False}}
DOCS = {
    "hyperbolic-round": {
        "mode": "PMT",
        "profile": {"kind": "hyperbolic"},
        "surface": {"type": "round", "area_radius": 1.0},
    },
    "adss-round": {
        "mode": "RPI",
        "m": 1.0,
        "profile": {"kind": "adss", "m": 1.0, "s_min": 1.6, "s_max": 16.0},
        "surface": {"type": "round", "area_radius": 2.0},
    },
    # the combined family at eps = 0.1: mass-aspect ambient, p2 graph of amplitude 0.05
    "p2-mass-aspect": {
        "mode": "PMT",
        "family": "combined",
        "epsilons": [0.1],
        "amplitude_factor": 0.5,
        "surface": {"type": "round", "area_radius": 1.0},
    },
}
REL = 1e-12


def _scenario(name):
    return scenario_from_dict({"id": name, **BASE, **DOCS[name]})


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.fixture(scope="module", params=sorted(DOCS))
def streamed_row(request):
    """One row of each data set, with its full geometry(), midpoint
    speed_geometry() and RK2 right-side calls counted, and the track its
    flow returned (the row itself keeps only the series)."""
    scn = _scenario(request.param)
    row = scn.rows()[0]
    counts = dict.fromkeys(("geometry", "speed_geometry", "_rhs"), 0)
    tracks = []

    def run(*args, **kwargs):
        tracks.append(imcf.record(*args, **kwargs))
        return tracks[-1]

    def counted(name):
        real = getattr(imcf, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            mp.setattr(imcf, name, counted(name))
        mp.setattr(harness, "run", run)
        result = run_row(scn, row)
    assert result.ok, result.error
    return scn, result, tracks[0], counts


def test_row_makes_only_the_flows_geometry_calls(streamed_row):
    _, _, track, counts = streamed_row
    # two right-side evaluations per RK2 substep
    substeps = counts["_rhs"] // 2
    assert counts["_rhs"] % 2 == 0
    assert substeps >= track.n_steps
    # one full call to start and one at the end of each substep; the
    # midpoint needs only the speed
    assert counts["geometry"] == 1 + substeps
    assert counts["speed_geometry"] == substeps


def test_streamed_checks_match_replay(streamed_row):
    scn, result, track, _ = streamed_row
    a, b = scn.resolved_compat_window()
    replayed = harness.check_coordinate_compatibility(track, a, b)
    streamed = result.compat_report
    assert _close(streamed.w12_ricci, replayed.w12_ricci)
    assert _close(streamed.k12_min0, replayed.k12_min0)
    assert np.array_equal(streamed.diam_times, replayed.diam_times)
    for s, r in zip(streamed.diam_values, replayed.diam_values):
        assert _close(s, r)
    assert result.pinch_pass == (pinch_bounds_check(track).n_violations == 0)

    geom0 = track.snapshot_geometry(0)
    assert _close(result.c_alpha, c_alpha_distance_to_round(geom0, r0=track.r0))
    assert list(result.gauss_dev) == scn.resolved_t_samples()
    for t in scn.resolved_t_samples():
        j = int(np.argmin(np.abs(track.snap_times - t)))
        geom = track.snapshot_geometry(j)
        ref = gauss_deviation(geom, track.r0, float(track.snap_times[j]))
        assert _close(result.gauss_dev[t], ref)
        assert _close(result.diam[t], intrinsic_diameter(geom))


def test_streamed_chain_matches_full_grid_reference(streamed_row):
    scn, result, track, _ = streamed_row
    g3, model = ("g3_pmt", "hyperbolic_model") if scn.mode == "PMT" else ("g3_rpi", "adss_model")
    idx = default_time_indices(track)
    grids = {
        label: assemble(track, label, m=scn.m, time_indices=idx)
        for label in ("hat", "g1", "g2", g3, model)
    }
    ref = grids[model]
    pairs = {
        "hat_g1": ("hat", "g1"),
        "g1_g2": ("g1", "g2"),
        "g2_g3": ("g2", g3),
        "g3_model": (g3, model),
        "hat_model": ("hat", model),
    }
    assert set(result.distances) == set(pairs)
    for key, (x, y) in pairs.items():
        expected = l2_distance(grids[x], grids[y], ref, track)
        assert _close(result.distances[key], expected), (key, result.distances[key], expected)


def test_streamed_pinch_report_matches_replay():
    scn = _scenario("p2-mass-aspect")
    row = scn.rows()[0]
    times, snap = imcf.time_grid(scn.T, scn.dt)
    acc = PinchAccumulator(times[snap], row.surface0.grid.shape)
    track = imcf.record(row.profile, row.surface0, T=scn.T, dt=scn.dt, observers=[acc.observe])
    streamed, replayed = acc.result(), pinch_bounds_check(track)
    assert np.array_equal(streamed.lower_ok, replayed.lower_ok)
    assert np.array_equal(streamed.upper_ok, replayed.upper_ok)
    assert _close(streamed.worst_lower, replayed.worst_lower)
    assert _close(streamed.worst_upper, replayed.worst_upper)
    # the anisotropic data makes the margins genuinely nonzero
    assert min(streamed.worst_lower, streamed.worst_upper) < 0.0


@pytest.mark.parametrize(
    "times",
    [np.arange(7) * 0.25, np.array([0.0, 0.1, 0.3, 0.35, 0.7, 0.71])],
    ids=["uniform", "nonuniform"],
)
def test_w12_window_matches_np_gradient(times):
    """The 3-slice window reproduces the full-history np.gradient quadrature."""
    grid = get_grid(8, 16)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((len(times), *grid.shape))
    acc = W12Accumulator(grid, times, float(times[0]), float(times[-1]))
    for j, t in enumerate(times):
        acc.observe(j, float(t), SimpleNamespace(Rc_nn=u[j]), None, None)

    u_t = np.gradient(u, times, axis=0)
    density = [
        grid.integrate_sigma(
            u[i] ** 2 + u_t[i] ** 2 + grid.dtheta(u[i]) ** 2
            + (grid.dphi(u[i]) / grid.sin_theta[:, None]) ** 2
        )
        for i in range(len(times))
    ]
    expected = float(np.sqrt(np.trapezoid(density, times)))
    assert _close(acc.result(), expected)


FAST_DOC = {
    "id": "raising-check",
    "mode": "PMT",
    "family": "combined",
    "epsilons": [0.1, 0.0],
    "T": 0.25,
    "dt": 2.5e-3,
    "grid": {"n_theta": 16, "n_phi": 32},
    "checks": {"mass_at_infinity": False, "compat": False},
}


def _raise_once(monkeypatch):
    """Make the first row's class check raise a plain ValueError."""
    real = harness.check_class_membership
    calls = []

    def check(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("injected check failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "check_class_membership", check)


def test_any_check_exception_fails_only_its_row(monkeypatch):
    _raise_once(monkeypatch)
    report = run_sequence(scenario_from_dict(dict(FAST_DOC)))
    first, second = report.rows
    assert not first.ok
    assert first.error == "ValueError: injected check failure"
    assert second.ok and second.class_report is not None
    assert report.any_failed


def test_check_error_is_raised_after_the_flow_in_check_order():
    """A streamed check that fails reports its error once the flow has ended:
    earlier checks keep their results and later ones are not reported.  The
    scenario rules reject this window up front, so it is set after the row
    is built, to reach the compatibility check's own guard."""
    scn = scenario_from_dict(dict(FAST_DOC, epsilons=[0.0], checks={"mass_at_infinity": False}))
    (built,) = scn.rows()
    scn.compat_window = [0.1, 0.1001]
    with pytest.raises(ValidationError, match="fewer than 3 stored times"):
        scn.validate()
    row = run_row(scn, built)
    assert not row.ok
    assert row.error == "WindowError: window [0.1, 0.1001] holds fewer than 3 stored times"
    assert row.diag is not None and row.class_report is not None
    assert row.compat_report is None and row.pinch_pass is None and row.distances == {}


def test_cli_exits_2_when_a_check_raises(monkeypatch, tmp_path):
    import json

    _raise_once(monkeypatch)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(FAST_DOC), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet", "--format", "csv"]) == 2
    lines = (out / "raising-check.csv").read_text().strip().split("\n")
    # both rows are reported; the failed one carries no numbers
    assert len(lines) == 1 + 2 * 5
    assert lines[1].endswith(",false") and lines[-1].endswith(",true")
