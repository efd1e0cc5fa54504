import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcf_lab import cli, scenario
from imcf_lab.ambient import validate_profile
from imcf_lab.errors import ParseError, ValidationError
from imcf_lab.harness import _scenario_echo, _window
from imcf_lab.imcf import time_grid
from imcf_lab.mass import hawking_mass
from imcf_lab.scenario import FIELDS, REQUIRED, Field, load_scenario, scenario_from_dict
from imcf_lab.surface import geometry


def test_minimal_scenario_defaults():
    scn = scenario_from_dict({"id": "minimal", "profile": {"kind": "hyperbolic"}})
    assert scn.n_theta == 64 and scn.n_phi == 128
    assert scn.dt == 1e-3
    assert scn.T == 2.0
    assert scn.resolved_t_samples() == [0.0, 0.5, 1.0, 1.5, 2.0]
    rows = scn.rows()
    assert len(rows) == 1 and rows[0].eps is None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError, match="bogus"):
        scenario_from_dict({"id": "x", "bogus": 1})


def test_unknown_nested_keys_rejected():
    with pytest.raises(ParseError, match="extra"):
        scenario_from_dict({"id": "x", "surface": {"type": "round", "extra": 1}})
    with pytest.raises(ParseError, match="whatever"):
        scenario_from_dict({"id": "x", "checks": {"whatever": True}})


def test_unknown_profile_kind_named():
    with pytest.raises(ParseError, match="nope"):
        scenario_from_dict({"id": "x", "profile": {"kind": "nope"}}).rows()


def test_epsilons_strictly_decreasing():
    with pytest.raises(ValidationError, match="strictly decreasing"):
        scenario_from_dict({"id": "x", "epsilons": [0.1, 0.1]})


def test_rpi_needs_mass():
    with pytest.raises(ValidationError, match="target mass"):
        scenario_from_dict({"id": "x", "mode": "RPI", "epsilons": [0.1, 0.05]})


def test_grid_must_be_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        scenario_from_dict({"id": "x", "grid": {"n_theta": 60, "n_phi": 128}})


def test_dt_must_divide_T():
    with pytest.raises(ValidationError, match="divide"):
        scenario_from_dict({"id": "x", "T": 1.0, "dt": 3e-4})


def test_profile_and_family_exclusive():
    with pytest.raises(ValidationError, match="not both"):
        scenario_from_dict(
            {"id": "x", "profile": {"kind": "hyperbolic"}, "epsilons": [0.1, 0.05]}
        )


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(p)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


def test_shipped_scenarios_parse_and_validate():
    for name in ("pmt_sweep", "rpi_sweep", "hyperbolic_round", "adss_round",
                 "ellipsoid_hyperbolic"):
        scn = load_scenario(f"scenarios/{name}.json")
        scn.validate()
        assert _reparse_echo(scn) == _scenario_echo(scn), name


def test_pmt_family_rows_monotone_floor():
    scn = scenario_from_dict(
        {"id": "pmt", "mode": "PMT", "family": "combined",
         "epsilons": [0.1, 0.05, 0.0], "T": 1.0, "dt": 1e-3,
         "grid": {"n_theta": 16, "n_phi": 32}}
    )
    rows = scn.rows()
    assert [r.eps for r in rows] == [0.1, 0.05, 0.0]
    masses = []
    for row in rows:
        assert validate_profile(row.profile).passed
        masses.append(hawking_mass(geometry(row.profile, row.surface0)))
    # initial Hawking mass positive and decreasing with eps; zero at eps = 0
    assert masses[0] > masses[1] > abs(masses[2])
    assert rows[2].profile.kind == "hyperbolic"


def test_rpi_family_rows():
    scn = scenario_from_dict(
        {"id": "rpi", "mode": "RPI", "m": 0.5, "epsilons": [0.1, 0.0],
         "T": 1.0, "dt": 1e-3, "grid": {"n_theta": 16, "n_phi": 32}}
    )
    rows = scn.rows()
    assert rows[1].profile.kind == "adss"
    for row in rows:
        assert validate_profile(row.profile).passed
    m0 = hawking_mass(geometry(rows[0].profile, rows[0].surface0))
    assert 0.35 < m0 < 0.5  # m - eps * rho(s0) with rho(s0) ~ 1


def test_explicit_mass_aspect_points_profile():
    scn = scenario_from_dict(
        {"id": "pts", "profile": {"kind": "mass_aspect",
         "points": {"s": [0.8, 1.5, 3.0, 6.0], "m": [0.0, 0.1, 0.2, 0.22]}},
         "T": 1.0, "dt": 1e-3, "grid": {"n_theta": 16, "n_phi": 32}}
    )
    row = scn.rows()[0]
    assert row.profile.kind == "mass_aspect"
    assert validate_profile(row.profile).passed


def test_scenario_json_roundtrip(tmp_path):
    doc = {"id": "rt", "mode": "PMT", "epsilons": [0.2, 0.1],
           "T": 0.5, "dt": 1e-3, "grid": {"n_theta": 16, "n_phi": 32}}
    p = tmp_path / "rt.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    scn = load_scenario(p)
    assert scn.id == "rt"
    assert len(scn.rows()) == 2


def test_memory_estimate_rejects_huge_rows_before_allocating():
    """Only the estimate runs: nothing here builds a grid or a flow."""
    with pytest.raises(ValidationError, match="memory"):
        scenario_from_dict({"id": "x", "grid": {"n_theta": 2**40, "n_phi": 128}})
    with pytest.raises(ValidationError, match="memory"):
        scenario_from_dict({"id": "x", "T": 1e9, "dt": 1e-9})


def test_memory_estimate_counts_no_snapshot_track(monkeypatch):
    """The default 64x128 row (T = 2, dt = 1e-3, 402 snapshots) needs about
    11 MB; storing zeta, P1 and P2 per snapshot would make it 84 MB.  Only
    the estimate runs, under a 32 MB machine."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 32 * 2**20 // 4096}
    monkeypatch.setattr(scenario.os, "sysconf", pages.__getitem__)
    scn = scenario_from_dict({"id": "x"})
    assert (scn.n_theta, scn.n_phi, scn.T, scn.dt) == (64, 128, 2.0, 1e-3)
    with pytest.raises(ValidationError, match="memory"):
        scenario_from_dict({"id": "x", "grid": {"n_theta": 2**40, "n_phi": 128}})


@pytest.mark.parametrize(
    "T, dt, snap_every, window",
    [
        (0.2, 1e-3, 100, None),     # stores 0.1 and 0.2 in [0.1, 0.2]
        (0.2, 1e-3, 50, None),      # 0.1, 0.15, 0.2
        (0.2, 1e-3, 67, None),      # 0.134 and the last step
        (0.2, 1e-3, 51, None),      # 0.102, 0.153 and the last step
        (0.2, 1e-3, None, [0.0, 0.002]),
        (0.2, 1e-3, None, [0.0, 0.001]),
        (0.3, 0.1, None, [0.1, 0.3]),
        (0.3, 0.1, None, [0.15, 0.3]),
        (2.0, 2.5e-3, 7, [0.5, 0.55]),
        (2.0, 2.5e-3, 7, [0.5, 0.6]),
    ],
)
def test_compat_window_rule_counts_the_times_the_check_selects(T, dt, snap_every, window):
    """The rule counts the stored times in the window as ``harness._window``
    selects them from the flow's own time grid."""
    doc = {"id": "w", "profile": {"kind": "hyperbolic"}, "T": T, "dt": dt,
           "snap_every": snap_every, "compat_window": window}
    times, snaps = time_grid(T, dt, snap_every)
    a, b = window or (0.5 * T, T)
    if len(_window(times[snaps], a, b)) >= 3:
        scenario_from_dict(doc)
    else:
        with pytest.raises(ValidationError, match="fewer than 3 stored times"):
            scenario_from_dict(doc)
    scenario_from_dict({**doc, "checks": {"compat": False}})


def _allowed(allowed) -> str:
    return allowed if isinstance(allowed, str) else ", ".join(map(json.dumps, allowed))


def _cell(value) -> str:
    if value is REQUIRED:
        return "required"
    return "-" if value is None else json.dumps(value)


def _schema_rows(fields) -> list:
    """README rows of a field table, then of each object field's own tables."""
    rows = [
        f"| `{f.name}` | {f.type} | {_allowed(f.allowed)} | {_cell(f.default)} | {f.doc} |"
        for f in fields
    ]
    for f in fields:
        if f.type == "object":
            tables = f.fields.values() if isinstance(f.fields, dict) else [f.fields]
            for table in tables:
                rows += _schema_rows(table)
    return rows


def test_readme_key_tables_match_the_field_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files")[1].split("\n## ")[0]
    listed = [line for line in section.splitlines() if line.startswith("| `")]
    assert listed == _schema_rows(FIELDS)


# -- fuzzing the parser: only scenario_from_dict runs, never rows() ---------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_OBJECTS = st.sampled_from([
    {}, {"kind": "hyperbolic"}, {"kind": "adss", "m": 0.5}, {"type": "bumpy", "amplitude": 0.1},
    {"kind": "mass_aspect", "points": {"s": [0.8, 1.5, 3.0], "m": [0.0, 0.1, 0.2]}},
])
_NUMBER = (st.sampled_from([0.0, 2.5e-3, 0.05, 0.25, 0.5, 1.0, 2.0]) | st.floats(-10, 10)
           | st.sampled_from([math.inf, -math.inf, math.nan]))


def _typed(field):
    """Values of the field's own JSON type, so that many fuzzed documents are valid."""
    return {
        "number": _NUMBER,
        "integer": st.sampled_from([8, 16, 32]) | st.integers(-4, 2**12),
        "boolean": st.booleans(),
        "string": (st.sampled_from(field.allowed) if isinstance(field.allowed, tuple) and field.allowed
                   else st.text(max_size=6)),
        "numbers": st.lists(_NUMBER, max_size=4) | st.sampled_from([[0.1, 0.0], [0.0, 0.25]]),
        "object": _OBJECTS,
    }[field.type]


_BASES = (
    {"id": "sweep", "epsilons": [0.1, 0.0], "T": 0.25, "dt": 2.5e-3,
     "grid": {"n_theta": 16, "n_phi": 32}, "checks": {"compat": False}},
    {"id": "explicit", "profile": {"kind": "adss", "m": 1.0, "s_min": 1.6},
     "surface": {"type": "p2", "area_radius": 2.0, "amplitude": 0.05}, "T": 0.5},
    {"id": "rpi", "mode": "RPI", "m": 0.5, "epsilons": [0.1], "t_samples": [0.0, 1.0],
     "compat_window": [1.0, 2.0], "snap_every": 10},
)


def _key_paths(fields, prefix=()):
    for f in fields:
        yield (*prefix, f.name), f
        if f.type == "object":
            tables = f.fields.values() if isinstance(f.fields, dict) else [f.fields]
            for table in tables:
                yield from _key_paths(table, (*prefix, f.name))


_KIND = Field("kind", "string", REQUIRED, "", ("hyperbolic", "adss", "nope"))
_PATHS = [*_key_paths(FIELDS), (("profile", "kind"), _KIND), (("bogus",), _KIND)]


_KIND_TABLES = next(f.fields for f in FIELDS if f.name == "profile")
_PROFILE_DOCS = {
    "hyperbolic": {"kind": "hyperbolic"},
    "adss": {"kind": "adss", "m": 1.0},
    "mass_aspect": {"kind": "mass_aspect", "points": {"s": [1.0, 2.0], "m": [0.0, 0.1]}},
    "tabulated": {"kind": "tabulated", "r": [1.0, 2.0, 3.0, 4.0], "lam": [1.0, 2.0, 3.0, 4.0]},
}


def _set(doc, path, value):
    *path, last = path
    for name in path:
        doc = doc.setdefault(name, {})
    doc[last] = value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_number_key_rejects_non_finite_values(value):
    for path, field in _key_paths(FIELDS):
        if field.type not in ("number", "numbers"):
            continue
        bases = [{"id": "x"}]
        if path[0] == "profile":  # under the kind whose table has the key
            bases = [{"id": "x", "profile": copy.deepcopy(_PROFILE_DOCS[kind])}
                     for kind, table in _KIND_TABLES.items() if path[1] in {f.name for f in table}]
        for base in bases:
            _set(base, path, [value] if field.type == "numbers" else value)
            with pytest.raises(ParseError, match=".".join(path)):
                scenario_from_dict(base)


@st.composite
def _documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(0, 2))):
        (*path, last), field = draw(st.sampled_from(_PATHS))
        node = doc
        for name in path:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        node[last] = draw(_JSON if draw(st.integers(0, 3)) == 0 else _typed(field))
    return doc


def _reparse_echo(scn):
    doc = dict(_scenario_echo(scn))
    doc["grid"] = {"n_theta": doc.pop("n_theta"), "n_phi": doc.pop("n_phi")}
    return _scenario_echo(scenario_from_dict(doc))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=_documents() | _JSON)
def test_fuzzed_documents_fail_cleanly_or_round_trip(doc):
    try:
        scn = scenario_from_dict(doc)
    except (ParseError, ValidationError) as exc:
        assert "\n" not in str(exc)
        return
    json.dumps(_scenario_echo(scn), allow_nan=False)  # a valid echo is strict JSON
    assert _reparse_echo(scn) == _scenario_echo(scn)


# -- fuzzing the CLI: ``verify`` also builds the rows, so the documents are cut small --


def _small(doc):
    """The document with its grid sizes cut to at most 32 (16x32 when it
    gives none) and at most two epsilons, so that ``verify`` builds only
    small rows."""
    if not isinstance(doc, dict):
        return doc
    doc = copy.deepcopy(doc)
    grid = doc.setdefault("grid", {"n_theta": 16, "n_phi": 32})
    if isinstance(grid, dict):
        for key, size in grid.items():
            if type(size) is int and size > 32:
                grid[key] = 32
    if isinstance(doc.get("epsilons"), list):
        doc["epsilons"] = doc["epsilons"][:2]
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=_documents() | _JSON)
def test_fuzzed_documents_drive_the_cli_cleanly(doc):
    """``imcf-lab verify`` on any document: exit 0 or 1, at most one line on
    stderr, and never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(json.dumps(_small(doc)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path)])
    assert code in (0, 1), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
