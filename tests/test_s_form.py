"""The area-radius state: the s-form geometry against the r-path it replaced,
and guards on what the flow loop may call."""

import json

import numpy as np
import pytest

from imcf_lab import imcf
from imcf_lab.ambient import AdSSProfile, HyperbolicProfile, MassAspectProfile, TabulatedProfile
from imcf_lab.cli import main as cli_main
from imcf_lab.harness import run_sequence
from imcf_lab.scenario import scenario_from_dict
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import geometry, make_graph

from .oracles import r_path_geometry
from .test_streaming import BASE, DOCS

GRIDS = [(32, 64), (64, 128)]
FORMULAS = ("round", "p2", "ellipsoid", "bumpy")
FIELDS = ("H", "g11", "g12", "g22", "dmu", "K", "Rc_nn", "K12", "absA2")


def _tabulated_sinh(n_knots):
    r = np.linspace(0.3, 3.0, n_knots)
    return TabulatedProfile(r, np.sinh(r))


def _mass_aspect():
    # the PMT family's shape at eps = 0.1
    m = lambda s: 0.1 * np.tanh((s - 0.75) / 0.5)
    dm = lambda s: 0.2 / np.cosh((s - 0.75) / 0.5) ** 2
    return MassAspectProfile(m, dm, (0.75, 4.0))


# (profile, area radius of the unperturbed sphere)
PROFILES = {
    "hyperbolic": lambda: (HyperbolicProfile(), 1.0),
    "adss": lambda: (AdSSProfile(1.0, s_domain=(1.05, 16.0)), 2.0),
    "mass_aspect": lambda: (_mass_aspect(), 1.0),
    "tabulated": lambda: (_tabulated_sinh(1600), 1.0),
}


def _worst(geom, ref, name):
    """Largest pointwise gap in one field, relative to the field's max (g12
    vanishes on round data, hence the floor)."""
    scale = max(float(np.max(np.abs(ref[name]))), 1e-12)
    return float(np.max(np.abs(getattr(geom, name) - ref[name]))) / scale


def _geometries(profile, s0, grid, formula):
    rbar = float(profile.radius_from_area_radius(s0))
    surf = make_graph(profile, grid, rbar, formula, 0.05)
    return geometry(profile, surf), r_path_geometry(profile, grid, surf.f)


@pytest.mark.parametrize("shape", GRIDS, ids=["32x64", "64x128"])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_s_form_geometry_matches_r_path(kind, shape):
    """Differentiating zeta and applying the chain rule reproduces the
    geometry computed from the radii, on every profile kind and graph."""
    profile, s0 = PROFILES[kind]()
    grid = get_grid(*shape)
    # a tabulated warp is a cubic spline, so zeta = lambda(f) is only C^2
    # across its knots and its spectral derivatives converge at the knot
    # spacing (checked below) instead of spectrally
    tol, tol_small = (1e-8, 1e-5) if kind == "tabulated" else (1e-9, 1e-6)
    for formula in FORMULAS:
        geom, ref = _geometries(profile, s0, grid, formula)
        for name in FIELDS:
            assert _worst(geom, ref, name) <= tol, (formula, name)
        assert abs(geom.area - ref["area"]) <= tol * ref["area"]
        if formula == "round":
            # umbilic and constant: both second-order-small fields are round-off
            assert np.max(geom.pinch2) <= 1e-20
            assert np.max(geom.grad_H2) <= 1e-20
        else:
            assert _worst(geom, ref, "pinch2") <= tol_small, formula
            assert _worst(geom, ref, "grad_H2") <= tol_small, formula


def test_tabulated_gap_shrinks_with_knot_spacing():
    grid = get_grid(32, 64)
    gaps = []
    for n_knots in (400, 1600):
        geom, ref = _geometries(_tabulated_sinh(n_knots), 1.0, grid, "p2")
        gaps.append(_worst(geom, ref, "K"))
    assert gaps[1] < gaps[0] / 4.0


_KNOTS = np.linspace(0.3, 3.0, 64)
FLOW_DOCS = {
    **DOCS,
    "p2-tabulated": {
        "mode": "PMT",
        "profile": {"kind": "tabulated", "r": _KNOTS.tolist(), "lam": np.sinh(_KNOTS).tolist()},
        "surface": {"type": "p2", "area_radius": 1.0, "amplitude": 0.05},
    },
}


@pytest.mark.parametrize("name", sorted(FLOW_DOCS))
def test_flow_inverts_the_warp_at_most_once(name, monkeypatch):
    """The step loop runs in zeta: only the per-step r_min/r_max need radii."""
    row = scenario_from_dict({"id": name, **BASE, **FLOW_DOCS[name]}).rows()[0]
    cls = type(row.profile)
    real = cls.radius_from_area_radius
    calls = []

    def counted(self, s):
        calls.append(np.shape(s))
        return real(self, s)

    monkeypatch.setattr(cls, "radius_from_area_radius", counted)
    track = imcf.record(row.profile, row.surface0, T=0.05, dt=1e-3)
    assert len(calls) <= 1
    assert track.series.r_min[-1] == pytest.approx(np.min(track.snap_f[-1]), rel=1e-12)
    assert track.series.r_max[-1] == pytest.approx(np.max(track.snap_f[-1]), rel=1e-12)


LEAVING_DOC = {
    "id": "leaves-s-max",
    "mode": "RPI",
    "m": 1.0,
    # zeta = 2 e^{t/2} crosses s_max = 2.1 at t = 2 ln 1.05 ~ 0.098
    "profile": {"kind": "adss", "m": 1.0, "s_min": 1.6, "s_max": 2.1},
    "surface": {"type": "round", "area_radius": 2.0},
    "T": 0.25,
    "dt": 2.5e-3,
    "grid": {"n_theta": 16, "n_phi": 32},
    "checks": {"mass_at_infinity": False},
}


def test_flow_leaving_the_s_domain_fails_its_row():
    (row,) = run_sequence(scenario_from_dict(dict(LEAVING_DOC))).rows
    assert not row.ok
    assert row.error.startswith("DomainError: at t = 0.1: area radius")


def test_cli_exits_2_when_the_flow_leaves_the_s_domain(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(LEAVING_DOC), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet", "--format", "csv"]) == 2
