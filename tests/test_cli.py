import argparse
import copy
import json
import re
from pathlib import Path

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
}


def _write(tmp_path, doc):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_run_and_verify_are_the_only_commands(capsys):
    """The round-flow closed forms live in the tests' ``round_row``: there is
    no ``oracle`` command printing a second copy of them."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle"])
    assert exc.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


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


def test_a_second_run_into_one_out_dir_says_it_overwrote_each_report(tmp_path, capsys):
    """A report already at its path is replaced, and ``run`` says so; with
    ``--quiet`` it prints nothing either way."""
    p = _write(tmp_path, FAST_DOC)
    out = tmp_path / "out"
    paths = [out / f"cli-fast.{ext}" for ext in ("csv", "json", "gp")]
    assert main(["run", str(p), "--out", str(out)]) == 0
    first = capsys.readouterr().out.splitlines()
    assert first[-3:] == [f"  wrote {path}" for path in paths]
    csv = paths[0].read_text(encoding="utf-8")
    assert main(["run", str(p), "--out", str(out)]) == 0
    second = capsys.readouterr().out.splitlines()
    assert second[-3:] == [f"  overwrote {path}" for path in paths]
    assert second[:-3] == first[:-3]
    assert paths[0].read_text(encoding="utf-8") == csv
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_grid_and_dt_are_not_run_options(tmp_path, capsys):
    """The grid and the time step are set only in the scenario file."""
    p = _write(tmp_path, FAST_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(p), "--out", str(tmp_path / "o"), "--seed-grid", "8x16", "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed-grid 8x16" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_bad_scenario(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    assert main(["run", str(p)]) == 1


def test_run_solver_failure_exit_code(tmp_path):
    doc = dict(FAST_DOC)
    doc["id"] = "cli-fail"
    doc["family"] = "ellipsoid"
    doc["epsilons"] = [0.9, 0.01]
    p = _write(tmp_path, doc)
    assert main(["run", str(p), "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_run_into_a_file_is_an_io_failure(tmp_path, capsys):
    """--out naming an existing regular file: the sweep runs, then writing its
    reports fails with one line and exit 3."""
    p = _write(tmp_path, FAST_DOC)
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == 3
    assert "File exists" in _one_line(capsys, "IO failure: [Errno 17] ")


def test_run_deterministic_csv(tmp_path):
    p = _write(tmp_path, FAST_DOC)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(p), "--out", str(a), "--quiet"]) == 0
    assert main(["run", str(p), "--out", str(b), "--quiet"]) == 0
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
     ("cfl", 0.2), ("cfl", 0.05),  # the CFL factor is the constant imcf.CFL
     ("grid.n_theta", float("nan")), ("grid.n_theta", 16.5),
     ("checks", {"pinch": False}),  # every check always runs
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
     ("surface", {"type": "round", "amplitude": 5.0})],  # negative initial radius
)
def test_run_rejects_bad_time_grid_value_in_one_line(tmp_path, capsys, monkeypatch, field, value):
    p = _write(tmp_path, _doc_with(field, value))
    monkeypatch.chdir(tmp_path)  # no --out: reports would go to ./out
    assert main(["run", str(p), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1
    assert field in err
    assert list(tmp_path.iterdir()) == [p]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_row_building_errors_are_scenario_errors(tmp_path, capsys, command):
    """A row that cannot be built (its area radius below the AdSS model's
    domain floor, 1.05 horizon radii = 1.05 at m = 1) exits 1 in one line."""
    doc = {"id": "below-horizon", "mode": "RPI", "m": 1.0,
           "surface": {"area_radius": 0.9}, "T": 0.25, "dt": 2.5e-3,
           "grid": {"n_theta": 16, "n_phi": 32}}
    p = _write(tmp_path, doc)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1
    assert "area radius 0.9 outside profile domain [1.05," in err
    assert not (tmp_path / "o").exists()


def _one_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("text, says", [
    (b'{"id": "\xff\xfe"}', "can't decode byte 0xff"),
    (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth"),
    (json.dumps(FAST_DOC).replace('"T": 0.25', '"T": 0.25, "T": 0.02').encode(),
     "key 'T' is given twice"),
], ids=["not-utf-8", "nested-too-deep", "key-given-twice"])
def test_a_file_that_is_not_one_json_document_is_a_scenario_error(
    tmp_path, capsys, monkeypatch, command, text, says
):
    """A file that is not UTF-8, JSON nested past the decoder's depth and an
    object with a repeated key exit 1 in one line and write nothing."""
    p = tmp_path / "scn.json"
    p.write_bytes(text)
    monkeypatch.chdir(tmp_path)  # no --out: reports would go to ./out
    assert main([command, str(p), *(["--quiet"] if command == "run" else [])]) == 1
    assert says in _one_line(capsys, "scenario error: ")
    assert list(tmp_path.iterdir()) == [p]


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
    """Three steps store every step, and [T/2, T] = [0.0015, 0.003] holds 2 of
    them: one line, exit 1, and no sweep (before, the row flowed and then
    failed with a WindowError)."""

    def run_sequence(*args, **kwargs):
        raise RuntimeError("the sweep ran")

    monkeypatch.setattr(cli, "run_sequence", run_sequence)
    doc = {"id": "snap", "profile": {"kind": "hyperbolic"}, "T": 0.003, "dt": 0.001,
           "grid": {"n_theta": 16, "n_phi": 32}}
    p = _write(tmp_path, doc)
    assert main([command, str(p), *(["--out", str(tmp_path / "o")] if command == "run" else [])]) == 1
    assert "at least 4 steps" in _one_line(capsys, "scenario error: dt = 0.001")


@pytest.mark.parametrize("key, value", [("t_samples", [0.0, 0.125, 0.25]),
                                        ("compat_window", [0.125, 0.25]), ("snap_every", 1)])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_scenario_sets_no_sampling_schedule(tmp_path, capsys, monkeypatch, command, key, value):
    """The report times, the compatibility window and the snapshot interval
    follow from T and dt alone: a document that sets one exits 1 in one line
    naming it, and writes nothing."""
    p = _write(tmp_path, dict(FAST_DOC, **{key: value}))
    monkeypatch.chdir(tmp_path)  # no --out: reports would go to ./out
    assert main([command, str(p), "--quiet"] if command == "run" else [command, str(p)]) == 1
    assert key in _one_line(capsys, "scenario error: ")
    assert list(tmp_path.iterdir()) == [p]


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


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("doc, key", [
    ({"mode": "RPI", "m": 0.5, "profile": {"kind": "adss", "m": 1.0},
      "surface": {"area_radius": 2.0}}, "unknown profile kind 'adss'"),
    ({"mode": "RPI", "m": 1.0, "profile": {"kind": "hyperbolic"}}, "RPI reads no profile"),
    ({"mode": "RPI", "m": 1.0, "profile": {"kind": "mass_aspect",
      "points": {"s": [1.6, 2.1], "m": [1.0, 1.0]}}}, "RPI reads no profile"),
    ({"profile": {"kind": "adss"}}, "unknown profile kind 'adss'"),
    ({"family": "ellipsoid"}, "family"),
    ({"m": 3.0}, "m is"),
    ({"epsilons": [0.1, 0.0], "surface": {"amplitude": 0.3}}, "surface.amplitude"),
    ({"mode": "RPI", "m": 0.5, "epsilons": [0.1], "surface": {"type": "bumpy"}}, "surface.type"),
    ({"profile": {"kind": "hyperbolic"}, "surface": {"type": "bumpy"}}, "surface.type"),
    ({"family": "ellipsoid", "epsilons": [0.1], "amplitude_factor": 3.0}, "amplitude_factor"),
], ids=["rpi-adss-other-m", "rpi-hyperbolic", "rpi-mass-aspect", "pmt-adss",
        "family-without-sweep", "pmt-m",
        "sweep-amplitude", "rpi-sweep-type", "round-row-type", "ellipsoid-factor"])
def test_a_key_no_row_reads_is_a_scenario_error(tmp_path, capsys, monkeypatch, command, doc, key):
    """Every key changes some run: a key that no row would read (or a profile
    in RPI mode, whose rows are measured against AdS-Schwarzschild of mass m)
    exits 1 in one line and writes nothing."""
    p = _write(tmp_path, {"id": "inert", "T": 0.25, "dt": 2.5e-3,
                          "grid": {"n_theta": 16, "n_phi": 32}, **doc})
    monkeypatch.chdir(tmp_path)  # no --out: reports would go to ./out
    assert main([command, str(p), *(["--quiet"] if command == "run" else [])]) == 1
    assert key in _one_line(capsys, "scenario error: ")
    assert list(tmp_path.iterdir()) == [p]


@pytest.mark.parametrize("bad_id", ["../escaped", "it's", ".hidden", "a/b", ""])
def test_an_id_that_is_not_a_plain_file_name_is_a_scenario_error(tmp_path, capsys, bad_id):
    """The id names the report files: one that leaves --out or needs quoting
    in the gnuplot script exits 1 in one line and writes nothing."""
    p = _write(tmp_path, {**FAST_DOC, "id": bad_id})
    out = tmp_path / "o" / "out"
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == 1
    assert "not starting with ." in _one_line(capsys, "scenario error: id must be ")
    assert not (tmp_path / "o").exists()


def _run_options(text):
    """The options in the ``imcf-lab run`` synopsis of ``text``."""
    synopsis = text.split("imcf-lab run ")[1].split("imcf-lab verify")[0]
    return sorted(set(re.findall(r"--[a-z-]+", synopsis)))


def test_run_synopsis_lists_the_parser_options():
    """The README and the cli docstring show exactly the options ``run`` takes."""
    (sub,) = (a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = sorted(
        o for a in sub.choices["run"]._actions for o in a.option_strings if o not in ("-h", "--help")
    )
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert _run_options(readme.split("## Command line")[1]) == options
    assert _run_options(cli.__doc__) == options
