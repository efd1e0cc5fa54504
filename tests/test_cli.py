import copy
import json

import pytest

from imcf_lab import ambient, cli
from imcf_lab.cli import main
from imcf_lab.scenario import Scenario

FAST_DOC = {
    "id": "cli-fast",
    "mode": "PMT",
    "family": "combined",
    "epsilons": [0.1, 0.0],
    "T": 0.25,
    "dt": 2.5e-3,
    "grid": {"n_theta": 16, "n_phi": 32},
    "checks": {"mass_at_infinity": False, "compat": False},
}


def _write(tmp_path, doc):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_oracle_prints_reference_table(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "hyperbolic" in out and "adss" in out
    assert "2.82842712" in out  # H(0) = 2 sqrt(2) for the unit round sphere


def test_verify_ok(tmp_path, capsys):
    p = _write(tmp_path, FAST_DOC)
    assert main(["verify", str(p)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_verify_flags_bad_profile(tmp_path):
    doc = {
        "id": "bad-floor",
        "profile": {"kind": "mass_aspect",
                    "points": {"s": [0.8, 1.5, 3.0], "m": [0.2, 0.05, 0.0]}},
        "T": 0.25, "dt": 2.5e-3, "grid": {"n_theta": 16, "n_phi": 32},
    }
    assert main(["verify", str(_write(tmp_path, doc))]) == 1


def test_run_writes_outputs(tmp_path):
    p = _write(tmp_path, FAST_DOC)
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == 0
    assert (out / "cli-fast.csv").exists()
    assert (out / "cli-fast.json").exists()
    assert (out / "cli-fast.gp").exists()


def test_run_format_selection(tmp_path):
    p = _write(tmp_path, FAST_DOC)
    out = tmp_path / "только_csv"
    assert main(["run", str(p), "--out", str(out), "--format", "csv", "--quiet"]) == 0
    assert (out / "cli-fast.csv").exists()
    assert not (out / "cli-fast.json").exists()


def test_run_grid_and_dt_overrides(tmp_path):
    p = _write(tmp_path, FAST_DOC)
    out = tmp_path / "out2"
    code = main([
        "run", str(p), "--out", str(out), "--seed-grid", "8x16",
        "--dt", "0.00625", "--quiet", "--format", "csv",
    ])
    assert code == 0


def test_run_rejects_bad_scenario(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    assert main(["run", str(p)]) == 1


def test_run_rejects_bad_grid_override(tmp_path):
    p = _write(tmp_path, FAST_DOC)
    assert main(["run", str(p), "--seed-grid", "banana", "--quiet"]) == 1


def test_run_solver_failure_exit_code(tmp_path):
    doc = dict(FAST_DOC)
    doc["id"] = "cli-fail"
    doc["family"] = "ellipsoid"
    doc["epsilons"] = [0.9, 0.01]
    p = _write(tmp_path, doc)
    assert main(["run", str(p), "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_run_deterministic_csv(tmp_path):
    p = _write(tmp_path, FAST_DOC)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(p), "--out", str(a), "--quiet", "--format", "csv"]) == 0
    assert main(["run", str(p), "--out", str(b), "--quiet", "--format", "csv"]) == 0
    assert (a / "cli-fast.csv").read_bytes() == (b / "cli-fast.csv").read_bytes()


def _doc_with(field, value):
    """FAST_DOC with the dotted key ``field`` set to ``value``; for profile and
    surface keys, the same scenario with an explicit hyperbolic profile in
    place of the sweep."""
    doc = copy.deepcopy(FAST_DOC)
    if field.startswith(("profile", "surface")):
        del doc["epsilons"], doc["family"]
        doc["profile"] = {"kind": "hyperbolic"}
    *path, last = field.split(".")
    node = doc
    for name in path:
        node = node.setdefault(name, {})
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "field, value",
    [("T", float("nan")), ("dt", float("nan")), ("snap_every", 2.5),
     ("cfl", float("nan")), ("cfl", float("inf")),
     ("grid.n_theta", float("nan")), ("grid.n_theta", 16.5), ("checks.pinch", "no"),
     ("surface.area_radius", "1"), ("surface.amplitude", "0.1"),
     ("m", "1"), ("profile", {"kind": "adss"}),
     ("compat_window", [0.05, 0.1, 0.2]), ("epsilons", ["a"]), ("t_samples", "abc"),
     ("family", ["x"]),
     ("profile", {"kind": "mass_aspect", "points": {"s": [0.8, 1.5, 3.0], "m": [0.0, 0.1]}}),
     ("out", 5),
     ("profile", {"kind": "nope"}),
     ("profile", {"kind": "hyperbolic", "m": 1.0}),
     ("profile", {"kind": "hyperbolic", "points": {"s": [0.8, 1.5], "m": [0.0, 0.1]}}),
     ("T", 2.5e-3),  # one step of dt
     ("surface", {"type": "p2", "amplitude": 5.0})],  # negative initial radius
)
def test_run_rejects_bad_time_grid_value_in_one_line(tmp_path, capsys, monkeypatch, field, value):
    p = _write(tmp_path, _doc_with(field, value))
    monkeypatch.chdir(tmp_path)  # no --out: the scenario's own "out" is used
    assert main(["run", str(p), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1
    assert field in err
    assert list(tmp_path.iterdir()) == [p]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_row_building_errors_are_scenario_errors(tmp_path, capsys, command):
    """A profile that cannot be built (s_min inside the horizon) exits 1 in one line."""
    doc = {"id": "below-horizon", "mode": "RPI", "m": 1.0,
           "profile": {"kind": "adss", "m": 1.0, "s_min": 0.1},
           "surface": {"area_radius": 2.0}, "T": 0.25, "dt": 2.5e-3,
           "grid": {"n_theta": 16, "n_phi": 32}}
    p = _write(tmp_path, doc)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1
    assert "horizon" in err
    assert not (tmp_path / "o").exists()


def _one_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("T", [2000, 1400])
def test_long_horizon_is_a_scenario_error_before_any_profile(tmp_path, capsys, monkeypatch, command, T):
    """The family's s-domain end 1.3 e^{T/2} overflows (T = 2000) or passes
    what a profile can tabulate (T = 1400): one line, exit 1, and no profile
    is built."""
    built = []

    def build(self, *args, **kwargs):
        built.append(type(self).__name__)
        raise RuntimeError("a profile was built")

    monkeypatch.setattr(ambient.AmbientProfile, "__init__", build)
    monkeypatch.setattr(ambient._OdeWarpProfile, "__init__", build)
    doc = {"id": "b", "epsilons": [0.1], "T": T, "dt": 1, "grid": {"n_theta": 8, "n_phi": 8}}
    p = _write(tmp_path, doc)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 1
    assert "tabulated to" in _one_line(capsys, "scenario error: T = ")
    assert built == []


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_foreign_exception_exits_2_in_one_line(tmp_path, capsys, monkeypatch, command):
    def rows(self):
        raise ValueError("injected")

    monkeypatch.setattr(Scenario, "rows", rows)
    p = _write(tmp_path, FAST_DOC)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 2
    err = _one_line(capsys, "internal error: ValueError: injected (at test_cli.py:")
    assert err.rstrip().endswith(" in rows)")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_compat_window_without_3_stored_times_is_a_scenario_error(
    tmp_path, capsys, monkeypatch, command
):
    """Stored every 0.1, [T/2, T] = [0.1, 0.2] holds 2 times: one line, exit 1,
    and no sweep (before, the row flowed and then failed with a WindowError)."""

    def run_sequence(*args, **kwargs):
        raise RuntimeError("the sweep ran")

    monkeypatch.setattr(cli, "run_sequence", run_sequence)
    doc = {"id": "snap", "profile": {"kind": "hyperbolic"}, "T": 0.2, "dt": 0.001,
           "snap_every": 100, "grid": {"n_theta": 16, "n_phi": 32}}
    p = _write(tmp_path, doc)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 1
    assert "fewer than 3 stored times" in _one_line(capsys, "scenario error: compat_window")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_dipping_tabulated_spline_is_a_scenario_error(tmp_path, capsys, command):
    """Increasing samples whose spline has lambda' < 0 near r = 2.5 cannot be
    read as a mass aspect: one line, exit 1 (before, ``run`` failed the row
    and exited 2)."""
    doc = {"id": "dip", "T": 0.25, "dt": 2.5e-3, "grid": {"n_theta": 16, "n_phi": 32},
           "profile": {"kind": "tabulated", "r": [0.5, 1.0, 1.5, 2.0, 2.5],
                       "lam": [1.0, 1.01, 1.02, 3.0, 3.01]}}
    p = _write(tmp_path, doc)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 1
    assert "lambda' <= 0" in _one_line(capsys, "scenario error: ")
    assert not (tmp_path / "o").exists()


def test_bad_format_is_rejected_before_the_sweep(tmp_path, capsys, monkeypatch):
    def run_sequence(*args, **kwargs):
        raise RuntimeError("the sweep ran")

    monkeypatch.setattr(cli, "run_sequence", run_sequence)
    p = _write(tmp_path, FAST_DOC)
    out = tmp_path / "o"
    assert main(["run", str(p), "--out", str(out), "--format", "csv,pdf"]) == 1
    assert "'pdf'" in _one_line(capsys, "unknown format(s): ")
    assert not out.exists()
