"""Scenario files: experiment configuration for the harness.

A scenario is a UTF-8 JSON document whose schema is the field table
``FIELDS`` (type, allowed values, default and doc of every key) plus the
cross-field ``RULES``.  It describes either a single ambient profile + initial
surface, or an epsilon-family sweep.  Shipped families:

    mass_aspect  PMT: ambient mass aspect m_eps(s) = eps * tanh((s - s_lo)/ell)
                 with round initial data; RPI: m_eps(s) = m - eps * rho(s) with
                 rho a smooth nonincreasing ramp from ~1 to ~0 (both keep
                 m_eps nondecreasing, so the scalar-curvature floor holds).
    ellipsoid    exact model ambient with the ``surface.type`` graph at amplitude
                 eps (the default ``round`` is f = rbar (1 + eps P2(cos theta))).
    combined     mass_aspect ambient plus ellipsoid amplitude amplitude_factor * eps
                 (default for PMT sweeps: every stability column is then
                 strictly positive and strictly decreasing in eps).

eps = 0 rows degrade to the exact model ambient with round data.  The exact
model of a mode (``Scenario.model_profile``) is hyperbolic space for PMT and,
for RPI, AdS-Schwarzschild of the scenario's mass m on the row's s-domain,
kept outside 1.05 horizon radii.  An explicit ``hyperbolic`` profile is the
PMT model and takes no key; an RPI row reads no profile.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .ambient import (
    S_TABULATED_MAX,
    AdSSProfile,
    AmbientProfile,
    HyperbolicProfile,
    MassAspectProfile,
    TabulatedProfile,
    horizon_radius,
)
from .errors import ParseError, ValidationError
from .imcf import FlowSeries, step_count
from .sphere_grid import get_grid
from .surface import GraphSurface, make_graph

REQUIRED = ...  # default of a key the document must give


@dataclass(frozen=True)
class Field:
    """One key of a scenario object.  ``allowed`` names a test in ``RANGES``
    (applied to each item of a list) or lists the allowed values.  An
    ``object`` has its own ``fields``, or one table per value of its ``kind``
    key.  A ``None`` default lets the key be absent or null, and its reader
    derives the value the doc names."""

    name: str
    type: str
    default: object
    doc: str
    allowed: str | tuple = ()
    fields: tuple | dict = ()


_FILE_NAME = "ASCII letters, digits, ., _ or -, not starting with ."
RANGES = {
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    # a report's file name, so it names no other directory and needs no quoting
    _FILE_NAME: lambda x: re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9._-]*", x) is not None,
    "a power of two >= 8": lambda n: n >= 8 and n & (n - 1) == 0,
}

_GRID = (
    Field("n_theta", "integer", 64, "Gauss-Legendre latitude nodes", "a power of two >= 8"),
    Field("n_phi", "integer", 128, "uniform longitude nodes", "a power of two >= 8"),
)
_SURFACE = (
    Field("type", "string", "round", "initial graph; round with an amplitude is "
          "f = rbar (1 + amplitude P2(cos theta))", allowed=("round", "ellipsoid", "bumpy")),
    Field("area_radius", "number", 1.0, "area radius s0 of the unperturbed sphere", "> 0"),
    Field("amplitude", "number", 0.0, "graph amplitude (sweeps derive it from eps)"),
)
_PROFILES = {
    "hyperbolic": (),
    "mass_aspect": (
        Field("points", "object", REQUIRED, "samples of m(s), joined by a PCHIP spline", fields=(
            Field("s", "numbers", REQUIRED, "strictly increasing area radii"),
            Field("m", "numbers", REQUIRED, "mass aspect at each s"),
        )),
    ),
    "tabulated": (
        Field("r", "numbers", REQUIRED, "strictly increasing radii (at least 4)"),
        Field("lam", "numbers", REQUIRED,
              "increasing warp lambda(r) > 0 at each r; its spline must keep lambda' > 0"),
    ),
}
FIELDS = (
    Field("id", "string", REQUIRED, "report name", _FILE_NAME),
    Field("mode", "string", "PMT", "positive-mass or Penrose experiment", allowed=("PMT", "RPI")),
    Field("m", "number", None, "RPI target mass (RPI needs it, PMT takes none)", "> 0"),
    Field("epsilons", "numbers", None, "strictly decreasing sweep values (may end in 0)", ">= 0"),
    Field("family", "string", None, "sweep family (default: combined for PMT, mass_aspect for RPI)",
          allowed=("mass_aspect", "ellipsoid", "combined")),
    Field("profile", "object", None, "explicit ambient in place of a family", fields=_PROFILES),
    Field("surface", "object", {}, "initial surface", fields=_SURFACE),
    Field("T", "number", 2.0, "flow horizon", "> 0"),
    Field("dt", "number", 1e-3, "recorded step; T holds at least 4 of them", "> 0"),
    Field("grid", "object", {}, "quadrature grid", fields=_GRID),
    Field("amplitude_factor", "number", None, "combined family: surface amplitude = factor * eps "
          "(default: 0.5)", ">= 0"),
)


def _number(v) -> bool:
    """A finite real (JSON's NaN and Infinity, strings and booleans are not)."""
    big = sys.float_info.max
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -big <= v <= big


_TYPES = {
    "string": ("a string", lambda v: isinstance(v, str)),
    "number": ("a finite number", _number),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "numbers": ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_number, v))),
}


def _walk(fields, obj, where: str) -> dict:
    """Check a JSON object against a field table (unknown keys, wrong types and
    non-finite numbers are ``ParseError``, values out of range or choices
    ``ValidationError``); return it with the defaults filled."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object, got {obj!r}")
    if isinstance(fields, dict):
        kind = obj.get("kind")
        if not (isinstance(kind, str) and kind in fields):
            raise ParseError(f"unknown {where} kind {kind!r}; choose from {sorted(fields)}")
        fields = (Field("kind", "string", REQUIRED, ""), *fields[kind])
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(map(str, unknown))} in {where}")
    out = {}
    for f in fields:
        key = f.name if where == "scenario" else f"{where}.{f.name}"
        value = obj[f.name] if f.name in obj else f.default
        if value is REQUIRED:
            raise ParseError(f"{key} is required")
        if value is None and f.default is None:
            out[f.name] = None
            continue
        if f.type == "object":
            out[f.name] = _walk(f.fields, value, key)
            continue
        expected, is_type = _TYPES[f.type]
        if not is_type(value):
            raise ParseError(f"{key} must be {expected}, got {value!r}")
        if isinstance(f.allowed, tuple) and f.allowed and value not in f.allowed:
            raise ValidationError(f"{key} must be one of {list(f.allowed)}, got {value!r}")
        items = value if f.type == "numbers" else [value]
        if isinstance(f.allowed, str) and not all(map(RANGES[f.allowed], items)):
            raise ValidationError(f"{key} must be {f.allowed}, got {value!r}")
        out[f.name] = value
    return out


@dataclass
class ScenarioRow:
    """One sweep entry: ambient profile plus initial surface."""

    eps: float | None
    profile: AmbientProfile
    surface0: GraphSurface
    label: str


class Scenario:
    """A checked scenario: one attribute per key of ``FIELDS``, every default
    filled in, with ``grid`` spread into ``n_theta`` and ``n_phi``.  Built only
    by ``scenario_from_dict`` and never changed after."""

    def __init__(self, **values):
        self.__dict__.update(values)

    # -- derived -------------------------------------------------------------

    @property
    def t_samples(self) -> list:
        """The report times 0, T/4, T/2, 3T/4 and T."""
        T = self.T
        return [0.0, 0.25 * T, 0.5 * T, 0.75 * T, T]

    @property
    def compat_window(self) -> list[float]:
        """The compatibility check's window [T/2, T]."""
        return [float(0.5 * self.T), float(self.T)]

    @property
    def resolved_family(self) -> str:
        return self.family or ("combined" if self.mode == "PMT" else "mass_aspect")

    @property
    def area_radius(self) -> float:
        return float(self.surface["area_radius"])

    # -- row construction ------------------------------------------------------

    def rows(self) -> list[ScenarioRow]:
        """Build each eps row (without ``epsilons``, one row of eps None); a profile
        or graph that cannot be built raises ``ProfileError`` or ``DomainError``."""
        rows = []
        for eps in self.epsilons or [None]:
            amp = self._amplitude(eps)
            profile = (build_profile(self.profile) if self.profile is not None
                       else self._family_profile(eps, amp))
            label = self.id if eps is None else f"{self.id}[eps={eps:g}]"
            rows.append(ScenarioRow(eps=None if eps is None else float(eps), profile=profile,
                                    surface0=self._build_surface(profile, amp), label=label))
        return rows

    def _amplitude(self, eps: float | None) -> float:
        """The initial graph's amplitude on the row of ``eps`` (None: the one row)."""
        if eps is None:
            return float(self.surface["amplitude"])
        family = self.resolved_family
        if family == "mass_aspect":
            return 0.0
        if family == "ellipsoid":
            return eps
        return (0.5 if self.amplitude_factor is None else self.amplitude_factor) * eps

    def _s_bounds(self, amp: float) -> tuple[float, float]:
        s0 = self.area_radius
        lo = 0.8 * s0 * (1.0 - abs(amp)) - 1e-3
        hi = 1.3 * s0 * (1.0 + abs(amp)) * np.exp(0.5 * self.T) + 1e-3
        return lo, hi

    def _rpi_s_domain(self, amp: float) -> tuple[float, float]:
        """An RPI row's s-domain: ``_s_bounds``, kept outside 1.05 horizon
        radii of the model mass m."""
        lo, hi = self._s_bounds(amp)
        return max(lo, 1.05 * horizon_radius(self.m)), hi

    def model_profile(self, amp: float) -> AmbientProfile:
        """The mode's exact model for a row of amplitude ``amp``: hyperbolic
        space (PMT), or AdS-Schwarzschild of mass m (RPI)."""
        if self.mode == "PMT":
            return HyperbolicProfile()
        return AdSSProfile(self.m, self._rpi_s_domain(amp))

    def _family_profile(self, eps: float | None, amp: float) -> AmbientProfile:
        # the model rows: eps 0, the one row (eps None) and the ellipsoid family
        if not eps or self.resolved_family == "ellipsoid":
            return self.model_profile(amp)
        if self.mode == "PMT":
            s_lo, s_hi = self._s_bounds(amp)
            ell = max(0.5, 0.25 * (s_hi - s_lo))
            m_f = lambda s: eps * np.tanh((s - s_lo) / ell)
            dm_f = lambda s: (eps / ell) / np.cosh((s - s_lo) / ell) ** 2
            return MassAspectProfile(m_f, dm_f, (s_lo, s_hi))
        # RPI
        m_star = float(self.m)
        s_lo, s_hi = self._rpi_s_domain(amp)
        s_mid = self.area_radius * np.exp(0.25 * self.T)
        w = max(0.2, 0.2 * (s_hi - s_lo))
        rho = lambda s: 0.5 * (1.0 + np.tanh((s_mid - s) / w))
        drho = lambda s: -0.5 / (w * np.cosh((s_mid - s) / w) ** 2)
        m_f = lambda s: m_star - eps * rho(s)
        dm_f = lambda s: -eps * drho(s)
        return MassAspectProfile(m_f, dm_f, (s_lo, s_hi))

    def _build_surface(self, profile: AmbientProfile, amplitude: float) -> GraphSurface:
        rbar = float(profile.radius_from_area_radius(self.area_radius))
        return make_graph(profile, get_grid(self.n_theta, self.n_phi), rbar,
                          self.surface["type"], amplitude)


# -- cross-field rules: (problem, test a sound scenario passes) -----------------


def _whole_steps(s: Scenario) -> bool:
    n = step_count(s.T, s.dt)
    # the compatibility window [T/2, T] needs 3 stored times for its time
    # derivative, and holds them exactly from 4 steps on
    return n is not None and n >= 4


def _s_domain_tabulable(s: Scenario) -> bool:
    """Every row's derived s-domain (``_s_bounds``) ends at or below S_TABULATED_MAX."""
    with np.errstate(over="ignore"):  # e^{T/2} may overflow to inf, which fails
        return all(s._s_bounds(s._amplitude(eps))[1] <= S_TABULATED_MAX
                   for eps in s.epsilons or [None])


def _surface_type_read(s: Scenario) -> bool:
    """Some row has a nonzero amplitude, so that ``surface.type`` shapes its
    graph (at amplitude 0 every type gives the round graph)."""
    return s.surface["type"] == "round" or any(s._amplitude(eps) for eps in s.epsilons or [None])


# per-node work arrays a row holds at once (geometry fields, RK2 stages, checks)
_WORK_ARRAYS = 64


def _fits_in_memory(s: Scenario) -> bool:
    """A row's bytes, estimated from the inputs before anything is allocated,
    fit in the machine's physical memory."""
    n = step_count(s.T, s.dt)
    if n is None:
        return True  # _whole_steps reports it
    n_series = len(dataclass_fields(FlowSeries)) - 1  # the arrays ``run`` allocates
    # the flow stores no snapshots and no check keeps per-node history
    need = 8 * (_WORK_ARRAYS * s.n_theta * s.n_phi + s.n_theta**2 + n_series * (n + 1))
    return need <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


RULES = (
    ("RPI mode needs a positive target mass m", lambda s: s.mode != "RPI" or s.m is not None),
    ("give either a profile or an epsilon family (epsilons), not both",
     lambda s: s.profile is None or s.epsilons is None),
    ("epsilons must be nonempty and strictly decreasing, got {s.epsilons!r}",
     lambda s: (e := s.epsilons) is None or bool(e) and all(b < a for a, b in zip(e, e[1:]))),
    ("RPI sweeps use the mass_aspect family",
     lambda s: s.mode != "RPI" or s.family in (None, "mass_aspect")),
    ("family and amplitude_factor shape a sweep; give them only with epsilons",
     lambda s: s.epsilons is not None or s.family is None and s.amplitude_factor is None),
    ("amplitude_factor is read only by the combined family",
     lambda s: s.amplitude_factor is None or s.resolved_family == "combined"),
    ("m is the RPI target mass; PMT mode reads none", lambda s: s.mode == "RPI" or s.m is None),
    ("an RPI row is measured against its model, AdS-Schwarzschild of mass m: "
     "RPI reads no profile", lambda s: s.mode != "RPI" or s.profile is None),
    ("a sweep derives each row's surface.amplitude from eps; leave it out",
     lambda s: s.epsilons is None or s.surface["amplitude"] == 0.0),
    ("surface.type {s.surface[type]!r} shapes no graph: every row's amplitude is 0",
     _surface_type_read),
    ("dt = {s.dt!r} must divide T = {s.T!r} into at least 4 steps", _whole_steps),
    ("T = {s.T!r} carries the flow's area radius 1.3 s0 (1 + |amplitude|) e^(T/2) past "
     f"{S_TABULATED_MAX:g}, the largest a profile is tabulated to", _s_domain_tabulable),
    ("grid and T/dt ask for more memory per row than this machine has", _fits_in_memory),
)


def build_profile(spec: dict) -> AmbientProfile:
    """Instantiate an explicit (non-family) profile from its filled spec."""
    kind = spec["kind"]
    if kind == "hyperbolic":
        return HyperbolicProfile()
    if kind == "mass_aspect":
        return MassAspectProfile.from_points(spec["points"]["s"], spec["points"]["m"])
    return TabulatedProfile(spec["r"], spec["lam"])


def scenario_from_dict(doc: dict) -> Scenario:
    """The one reader of a scenario: check a document against ``FIELDS`` and
    ``RULES``, in one pass each, and fill every default."""
    values = _walk(FIELDS, doc, "scenario")
    scn = Scenario(**values.pop("grid"), **values)
    problems = [problem.format(s=scn) for problem, holds in RULES if not holds(scn)]
    if problems:
        raise ValidationError("; ".join(problems))
    return scn


def _unique_keys(pairs) -> dict:
    """A JSON object; a key given twice is an error (``json`` keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(doc)
