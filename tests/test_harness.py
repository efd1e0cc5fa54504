import json

import numpy as np
import pytest

from imcf_lab import comparison, harness, imcf
from imcf_lab.errors import WindowError
from imcf_lab.harness import (
    CSV_COLUMNS,
    check_class_membership,
    check_coordinate_compatibility,
    emit,
    run_row,
    run_sequence,
    table_rows,
    w12_normal_ricci,
)
from imcf_lab.imcf import record, run
from imcf_lab.scenario import scenario_from_dict
from imcf_lab.surface import intrinsic_diameter, make_graph

from .oracles import lifted_geometry, snap_index_of_time

RBAR = float(np.arcsinh(1.0))

FAST = {"T": 0.25, "dt": 2.5e-3, "grid": {"n_theta": 16, "n_phi": 32}}


def _fast_scenario(**over):
    doc = {"id": "fast", "mode": "PMT", "family": "combined",
           "epsilons": [0.1, 0.0], **FAST}
    doc.update(over)
    return scenario_from_dict(doc)


def test_class_membership_hyperbolic_round(hyp_round_track):
    rep = check_class_membership(hyp_round_track)
    assert rep.passed
    assert abs(rep.H_max - 2 * np.sqrt(2.0)) < 1e-9
    assert abs(rep.mH0) < 1e-12
    assert rep.h_positive and rep.mH0_nonneg


def test_class_membership_adss(adss_round_track):
    rep = check_class_membership(adss_round_track)
    assert rep.passed
    assert abs(rep.mH0 - 1.0) < 1e-10
    assert abs(rep.r0 - 2.0) < 1e-12


def test_class_membership_flags_negative_mass(hyperbolic, grid32):
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    track = run(hyperbolic, surf, T=0.05, dt=1e-3)
    rep = check_class_membership(track)
    assert rep.mH0 < 0
    assert not rep.mH0_nonneg
    assert not rep.passed


def test_w12_normal_ricci_closed_form(hyp_round_track):
    """Rc(nu,nu) = -2 on hyperbolic round: norm = sqrt(16 pi (b - a))."""
    val = w12_normal_ricci(hyp_round_track, 0.0, 0.5)
    assert abs(val - np.sqrt(16 * np.pi * 0.5)) < 1e-9


def test_w12_window_too_short(hyp_round_track):
    with pytest.raises(WindowError):
        w12_normal_ricci(hyp_round_track, 0.0, 0.5e-3)


def test_compat_report_round(hyp_round_track):
    rep = check_coordinate_compatibility(hyp_round_track, 0.0, 0.5)
    assert rep.C3 < 1e-10
    assert rep.ratios_ok is None  # window never reaches t_star = 4
    assert np.isfinite(rep.w12_ricci)
    assert rep.passed
    assert rep.diam_max < 2 * np.pi
    # in exact hyperbolic space the tangent sectional curvature is exactly -1
    assert rep.k12_floor_ok
    assert abs(rep.k12_min0 + 1.0) < 1e-12


def test_compat_window_error(hyp_round_track):
    with pytest.raises(WindowError):
        check_coordinate_compatibility(hyp_round_track, 0.2, 5.0)


def test_row_computes_each_snapshot_diameter_once(monkeypatch):
    """The t-samples {0, T/4, T/2, 3T/4, T} and the compat picks over
    [T/2, T] share T/2, 3T/4 and T: 7 distinct snapshots, 7 diameters."""
    scn = _fast_scenario(epsilons=[0.0])
    real = harness.intrinsic_diameter
    measured, tracks = [], []

    def diameter(geom, grid):
        measured.append(geom.area)
        return real(geom, grid)

    def run(*args, **kwargs):
        # the row flows as a batch of one; keep its own track
        batch = record(*args, **kwargs)
        tracks.extend(batch.split())
        return batch

    monkeypatch.setattr(harness, "intrinsic_diameter", diameter)
    monkeypatch.setattr(harness, "run", run)
    result = run_row(scn, scn.rows()[0])
    assert result.ok, result.error
    assert len(measured) == len(set(measured)) == 7
    (track,) = tracks
    for t, d in result.diam.items():
        assert d == real(lifted_geometry(track, snap_index_of_time(track, t)), track.grid)
    for t, d in zip(result.compat_report.diam_times, result.compat_report.diam_values):
        assert d == real(lifted_geometry(track, snap_index_of_time(track, t)), track.grid)


def test_run_sequence_rows_and_columns(tmp_path):
    scn = _fast_scenario()
    report = run_sequence(scn)
    assert [r.eps for r in report.rows] == [0.1, 0.0]
    assert all(r.ok for r in report.rows)
    recs = table_rows(report)
    assert len(recs) == 2 * len(scn.t_samples)
    assert list(recs[0]) == list(CSV_COLUMNS)


def test_run_sequence_failure_isolation():
    # amplitude 0.9 drives H <= 0 at t = 0; later rows must still run
    scn = _fast_scenario(family="ellipsoid", epsilons=[0.9, 0.01])
    report = run_sequence(scn)
    assert not report.rows[0].ok
    assert "CurvatureError" in report.rows[0].error
    assert report.rows[1].ok
    assert report.any_failed


def test_emit_csv_json_plot(tmp_path):
    scn = _fast_scenario()
    report = run_sequence(scn)
    paths = emit(report, out_dir=tmp_path)
    names = {p.name for p in paths}
    assert names == {"fast.csv", "fast.json", "fast.gp"}
    csv_text = (tmp_path / "fast.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * len(scn.t_samples)
    doc = json.loads((tmp_path / "fast.json").read_text())
    assert doc["schema"] == "imcf-lab-report/1"
    assert len(doc["rows"]) == 2
    assert "fast.csv" in (tmp_path / "fast.gp").read_text()


def test_csv_cells_keep_the_sign_of_an_infinity():
    assert [harness._fmt(v) for v in (np.inf, -np.inf, np.nan)] == ["inf", "-inf", "nan"]
    assert [harness._fmt(v) for v in (None, True, 0.1)] == ["", "true", "0.1"]


def test_emit_deterministic(tmp_path):
    scn = _fast_scenario()
    a = emit(run_sequence(scn), out_dir=tmp_path / "a")
    b = emit(run_sequence(scn), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "fast.csv").read_bytes() == (
        tmp_path / "b" / "fast.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "fast.json").read_bytes() == (
        tmp_path / "b" / "fast.json"
    ).read_bytes()


def test_plot_script_renders(tmp_path):
    """Smoke: the emitted gnuplot script runs against its CSV when gnuplot exists."""
    import shutil
    import subprocess

    scn = _fast_scenario()
    emit(run_sequence(scn), out_dir=tmp_path)
    script = tmp_path / "fast.gp"
    assert "fast.csv" in script.read_text()
    gnuplot = shutil.which("gnuplot")
    if gnuplot is None:
        pytest.skip("gnuplot not installed")
    subprocess.run([gnuplot, script.name], cwd=tmp_path, check=True, timeout=60)
    assert (tmp_path / "fast.png").exists()


# a bumpy sweep whose eps = 0 row is round: its rows flow in two batches,
# the bumpy row on the 16x32 grid and the round one on the meridian
TWO_BATCHES = {"family": "combined", "epsilons": [0.1, 0.0],
               "surface": {"type": "bumpy", "area_radius": 1.0}, "T": 0.1, "dt": 1e-3}


@pytest.mark.parametrize("over", [{}, TWO_BATCHES], ids=["one-batch", "two-batches"])
def test_run_sequence_workers_match_serial(over):
    """Every CSV cell of a sweep whose batches run on a pool of two workers
    is the serial sweep's."""
    scn = _fast_scenario(**over)
    assert len(imcf.flow_batches([row.surface0 for row in scn.rows()])) == (2 if over else 1)
    serial = table_rows(run_sequence(scn, workers=1))
    parallel = table_rows(run_sequence(scn, workers=2))
    assert len(serial) == len(parallel) == 2 * len(scn.t_samples)
    for r1, r2 in zip(serial, parallel):
        assert r1["row_ok"] and r2["row_ok"]
        cells = [[harness._fmt(r[c]) for c in CSV_COLUMNS] for r in (r1, r2)]
        assert cells[0] == cells[1]


def test_monotone_stability_columns_fast():
    scn = _fast_scenario(epsilons=[0.1, 0.05, 0.0])
    report = run_sequence(scn)
    mh = [r.mH_T for r in report.rows]
    l2 = [r.distances["hat_model"] for r in report.rows]
    ca = [r.c_alpha for r in report.rows]
    assert mh[0] > mh[1] > abs(mh[2])
    assert l2[0] > l2[1] > l2[2]
    assert ca[0] > ca[1] >= ca[2]


def test_record_reads_every_column_at_one_snapshot():
    """A t-sample between snapshots: m_H and gauss_dev come from the same
    surface.  802 steps store every second one, and T/4 falls on step 200.5."""
    doc = {"id": "x", "profile": {"kind": "hyperbolic"},
           "surface": {"type": "round", "amplitude": 0.05}, "T": 0.401, "dt": 0.0005,
           "grid": {"n_theta": 16, "n_phi": 32}}
    scn = scenario_from_dict(doc)
    t_sample = scn.t_samples[1]
    rec = next(r for r in table_rows(run_sequence(scn)) if r["t"] == t_sample)
    row = scn.rows()[0]
    tr = record(row.profile, row.surface0, T=scn.T, dt=scn.dt)
    assert t_sample not in tr.snap_times
    gauss = [comparison.gauss_deviation(tr.snapshot_geometry(j), tr.r0, float(t))
             for j, t in enumerate(tr.snap_times)]
    j = gauss.index(rec["gauss_dev"])
    assert rec["m_H"] == tr.series.m_H[tr.snap_indices[j]]
    assert rec["diam"] == intrinsic_diameter(lifted_geometry(tr, j), tr.grid)


# dt * N rounds one ulp below T for these pairs: 2/49 * 49 = 1.9999999999999998
UNROUNDED = {"id": "u", "profile": {"kind": "hyperbolic"}, "grid": {"n_theta": 8, "n_phi": 8}}


def test_a_step_that_rounds_short_of_t_still_fits_m_h_at_infinity():
    """The fit runs whenever T >= 2, and the flow's last recorded time is T."""
    scn = scenario_from_dict({**UNROUNDED, "T": 2.0, "dt": 2.0 / 49})
    (row,) = run_sequence(scn).rows
    assert row.ok, row.error
    assert row.mH_inf is not None


def test_a_step_that_rounds_short_of_t_star_still_sets_the_ratios():
    """T = T_STAR reads the compatibility ratios at the last recorded time."""
    scn = scenario_from_dict({**UNROUNDED, "T": harness.T_STAR, "dt": harness.T_STAR / 49})
    (row,) = run_sequence(scn).rows
    assert row.ok, row.error
    rep = row.compat_report
    assert rep.C1 is not None and rep.C2 is not None and rep.ratios_ok is not None
