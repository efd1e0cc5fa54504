"""Scenario files: experiment configuration for the harness.

A scenario is a UTF-8 JSON document whose schema is the field table
``FIELDS`` (type, allowed values, default and doc of every key) plus the
cross-field ``RULES``.  It describes either a single ambient profile + initial
surface, or an epsilon-family sweep.  Shipped families:

    mass_aspect  PMT: ambient mass aspect m_eps(s) = eps * tanh((s - s_lo)/ell)
                 with round initial data; RPI: m_eps(s) = m - eps * rho(s) with
                 rho a smooth nonincreasing ramp from ~1 to ~0 (both keep
                 m_eps nondecreasing, so the scalar-curvature floor holds).
    ellipsoid    exact model ambient with initial graph f = rbar (1 + eps cos theta).
    combined     mass_aspect ambient plus ellipsoid amplitude amplitude_factor * eps
                 (default for PMT sweeps: every stability column is then
                 strictly positive and strictly decreasing in eps).

eps = 0 rows degrade to the exact model ambient with round data.
"""

from __future__ import annotations

import json
import math
import os
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
from .imcf import FlowSeries
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


RANGES = {
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "nonempty": lambda x: len(x) > 0,
    "a power of two >= 8": lambda n: n >= 8 and n & (n - 1) == 0,
}

_GRID = (
    Field("n_theta", "integer", 64, "Gauss-Legendre latitude nodes", "a power of two >= 8"),
    Field("n_phi", "integer", 128, "uniform longitude nodes", "a power of two >= 8"),
)
_SURFACE = (
    Field("type", "string", "round", "initial graph; round with an amplitude is p2",
          allowed=("round", "ellipsoid", "p2", "bumpy")),
    Field("area_radius", "number", 1.0, "area radius s0 of the unperturbed sphere", "> 0"),
    Field("amplitude", "number", 0.0, "graph amplitude (sweeps derive it from eps)"),
)
_CHECKS = (
    Field("class", "boolean", True, "flow-class membership"),
    Field("compat", "boolean", True, "coordinate compatibility over `compat_window`"),
    Field("pinch", "boolean", True, "pinching bounds"),
    Field("distances", "boolean", True, "L^2 distance chain, Holder and Gauss deviations, diameters"),
    Field("mass_at_infinity", "boolean", True, "tail fit of m_H (runs only when T >= 2)"),
)
_PROFILES = {
    "hyperbolic": (
        Field("r_min", "number", 1e-6, "smallest radius", "> 0"),
        Field("r_max", "number", None, "largest radius (default: beyond the flow's reach)", "> 0"),
    ),
    "adss": (
        Field("m", "number", REQUIRED, "mass", "> 0"),
        Field("s_min", "number", None, "smallest area radius (default: outside the horizon)", "> 0"),
        Field("s_max", "number", None, "largest area radius (default: beyond the flow's reach)", "> 0"),
    ),
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
    Field("id", "string", REQUIRED, "report name", "nonempty"),
    Field("mode", "string", "PMT", "positive-mass or Penrose experiment", allowed=("PMT", "RPI")),
    Field("m", "number", None, "target mass (RPI needs it)", "> 0"),
    Field("epsilons", "numbers", None, "strictly decreasing sweep values (may end in 0)", ">= 0"),
    Field("family", "string", None, "sweep family (default: combined for PMT, mass_aspect for RPI)",
          allowed=("mass_aspect", "ellipsoid", "combined")),
    Field("profile", "object", None, "explicit ambient in place of a family", fields=_PROFILES),
    Field("surface", "object", {}, "initial surface", fields=_SURFACE),
    Field("T", "number", 2.0, "flow horizon", "> 0"),
    Field("dt", "number", 1e-3, "recorded step; T holds at least 2 of them", "> 0"),
    Field("grid", "object", {}, "quadrature grid", fields=_GRID),
    Field("t_samples", "numbers", None, "report times in [0, T] (default: 0, T/4, T/2, 3T/4, T)"),
    Field("compat_window", "numbers", None, "[a, b], 0 <= a < b <= T, of the compatibility check "
          "(default: [T/2, T])"),
    Field("checks", "object", {}, "check toggles", fields=_CHECKS),
    Field("amplitude_factor", "number", 0.5, "combined family: surface amplitude = factor * eps", ">= 0"),
    Field("cfl", "number", 0.2, "parabolic CFL factor of the substeps", "> 0"),
    Field("snap_every", "integer", None, "snapshot stride in steps (default: about 400 snapshots)",
          ">= 1"),
    Field("out", "string", "out", "output directory when `--out` is not given"),
)


def _number(v) -> bool:
    """A finite real (JSON's NaN and Infinity, strings and booleans are not)."""
    big = sys.float_info.max
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -big <= v <= big


_TYPES = {
    "string": ("a string", lambda v: isinstance(v, str)),
    "number": ("a finite number", _number),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "boolean": ("true or false", lambda v: isinstance(v, bool)),
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
    """A checked scenario: one attribute per key of ``FIELDS``, with ``grid``
    spread into ``n_theta`` and ``n_phi``.  ``profile`` and ``surface`` keep
    the form they were written in (reports echo them); their defaults are
    filled where the rows are built."""

    def __init__(self, **values):
        self.__dict__.update(values)

    # -- derived -------------------------------------------------------------

    def resolved_t_samples(self) -> list:
        if self.t_samples is not None:
            return list(self.t_samples)
        return [0.0, 0.25 * self.T, 0.5 * self.T, 0.75 * self.T, self.T]

    def resolved_compat_window(self) -> tuple[float, float]:
        if self.compat_window is not None:
            return (float(self.compat_window[0]), float(self.compat_window[1]))
        return (0.5 * self.T, self.T)

    @property
    def resolved_family(self) -> str:
        return self.family or ("combined" if self.mode == "PMT" else "mass_aspect")

    @property
    def surface_spec(self) -> dict:
        return _walk(_SURFACE, self.surface, "surface")

    @property
    def area_radius(self) -> float:
        return float(self.surface_spec["area_radius"])

    def validate(self) -> None:
        """Check the scenario against ``FIELDS`` and ``RULES`` (again after
        the command line's grid and dt overrides)."""
        doc = {f.name: getattr(self, f.name) for f in FIELDS if f.name != "grid"}
        _walk(FIELDS, {**doc, "grid": {f.name: getattr(self, f.name) for f in _GRID}}, "scenario")
        problems = [problem.format(s=self) for problem, holds in RULES if not holds(self)]
        if problems:
            raise ValidationError("; ".join(problems))

    # -- row construction ------------------------------------------------------

    def rows(self) -> list[ScenarioRow]:
        """Build each row's profile and initial surface; a profile or graph
        that cannot be built raises ``ProfileError`` or ``DomainError``."""
        self.validate()
        if self.epsilons is None:
            profile = (
                build_profile(_walk(_PROFILES, self.profile, "profile"), self)
                if self.profile is not None
                else self._family_profile(0.0)
            )
            surf = self._build_surface(profile, float(self.surface_spec["amplitude"]))
            return [ScenarioRow(eps=None, profile=profile, surface0=surf, label=self.id)]
        family = self.resolved_family
        rows = []
        for eps in self.epsilons:
            profile = self._family_profile(eps, family)
            amp = self._family_amplitude(eps, family)
            surf = self._build_surface(profile, amp)
            rows.append(
                ScenarioRow(eps=float(eps), profile=profile, surface0=surf,
                            label=f"{self.id}[eps={eps:g}]")
            )
        return rows

    def _s_bounds(self, amp: float) -> tuple[float, float]:
        s0 = self.area_radius
        lo = 0.8 * s0 * (1.0 - abs(amp)) - 1e-3
        hi = 1.3 * s0 * (1.0 + abs(amp)) * np.exp(0.5 * self.T) + 1e-3
        return lo, hi

    def _family_profile(self, eps: float, family: str = "mass_aspect") -> AmbientProfile:
        amp = self._family_amplitude(eps, family)
        s_lo, s_hi = self._s_bounds(amp)
        if self.mode == "PMT":
            if family == "ellipsoid" or eps == 0.0:
                return HyperbolicProfile()
            ell = max(0.5, 0.25 * (s_hi - s_lo))
            m_f = lambda s: eps * np.tanh((s - s_lo) / ell)
            dm_f = lambda s: (eps / ell) / np.cosh((s - s_lo) / ell) ** 2
            return MassAspectProfile(m_f, dm_f, (s_lo, s_hi))
        # RPI
        m_star = float(self.m)
        s_lo = max(s_lo, 1.05 * horizon_radius(m_star))
        if eps == 0.0:
            return AdSSProfile(m_star, s_domain=(s_lo, s_hi))
        s_mid = self.area_radius * np.exp(0.25 * self.T)
        w = max(0.2, 0.2 * (s_hi - s_lo))
        rho = lambda s: 0.5 * (1.0 + np.tanh((s_mid - s) / w))
        drho = lambda s: -0.5 / (w * np.cosh((s_mid - s) / w) ** 2)
        m_f = lambda s: m_star - eps * rho(s)
        dm_f = lambda s: -eps * drho(s)
        return MassAspectProfile(m_f, dm_f, (s_lo, s_hi))

    def _family_amplitude(self, eps: float, family: str) -> float:
        if self.mode == "RPI" or family == "mass_aspect":
            return 0.0
        if family == "ellipsoid":
            return eps
        return self.amplitude_factor * eps

    def _build_surface(self, profile: AmbientProfile, amplitude: float) -> GraphSurface:
        rbar = float(profile.radius_from_area_radius(self.area_radius))
        kind = self.surface_spec["type"]
        if amplitude == 0.0:
            kind = "round"
        elif kind == "round":
            # family sweeps perturb with the quadrupole mode: its curvature
            # deviation is first order in the amplitude, so the stability
            # columns stay strictly ordered all the way down the sweep
            kind = "p2"
        return make_graph(profile, get_grid(self.n_theta, self.n_phi), rbar, kind, amplitude)


# -- cross-field rules: (problem, test a sound scenario passes) -----------------


def _whole_steps(s: Scenario) -> bool:
    n = s.T / s.dt
    # the mass derivative's one-sided difference needs three samples
    return math.isfinite(n) and abs(n - round(n)) <= 1e-9 * max(1.0, n) and round(n) >= 2


def _s_domain_tabulable(s: Scenario) -> bool:
    """Every row's derived s-domain (``_s_bounds``) ends at or below S_TABULATED_MAX."""
    if s.epsilons is None:
        amplitudes = [0.0]
    else:
        amplitudes = [s._family_amplitude(eps, s.resolved_family) for eps in s.epsilons]
    with np.errstate(over="ignore"):  # e^{T/2} may overflow to inf, which fails
        return all(s._s_bounds(amp)[1] <= S_TABULATED_MAX for amp in amplitudes)


# per-node work arrays a row holds at once (geometry fields, RK2 stages, checks)
_WORK_ARRAYS = 64


def _fits_in_memory(s: Scenario) -> bool:
    """A row's bytes, estimated from the inputs before anything is allocated,
    fit in the machine's physical memory."""
    steps = s.T / s.dt
    if not math.isfinite(steps):
        return True  # _whole_steps reports it
    n = round(steps)
    n_snap = n // (s.snap_every or max(1, n // 400)) + 2
    nodes = s.n_theta * s.n_phi
    n_series = len(dataclass_fields(FlowSeries)) - 1  # the arrays ``run`` allocates
    need = 8 * (_WORK_ARRAYS * nodes + s.n_theta**2 + n_series * (n + 1))
    # the flow stores no snapshots; the pinch check keeps two boolean verdicts
    # per node and snapshot
    need += 2 * n_snap * nodes
    return need <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _in_flow(s: Scenario, ts) -> bool:
    return bool(ts) and 0 <= min(ts) and max(ts) <= s.T + 1e-12


def _compat_window_filled(s: Scenario) -> bool:
    """The compat window holds the 3 stored times its time derivative needs,
    counted as ``harness._window`` selects them, without building the grid."""
    w = s.compat_window or (0.5 * s.T, s.T)
    if not (s.checks["compat"] and _whole_steps(s) and len(w) == 2 and w[0] < w[1]):
        return True  # off, or another rule reports it
    n = round(s.T / s.dt)
    every = s.snap_every or max(1, n // 400)
    lo, hi = w[0] - 1e-12, w[1] + 1e-12
    # stored steps: the multiples of snap_every in [0, n], and n itself
    first = max(0, math.ceil(lo / (every * s.dt)))
    last = min(n // every, math.floor(hi / (every * s.dt)))
    return max(0, last - first + 1) + (n % every != 0 and lo <= n * s.dt <= hi) >= 3


RULES = (
    ("RPI mode needs a positive target mass m", lambda s: s.mode != "RPI" or s.m is not None),
    ("give either a profile or an epsilon family (epsilons), not both",
     lambda s: s.profile is None or s.epsilons is None),
    ("epsilons must be nonempty and strictly decreasing, got {s.epsilons!r}",
     lambda s: (e := s.epsilons) is None or bool(e) and all(b < a for a, b in zip(e, e[1:]))),
    ("RPI sweeps use the mass_aspect family",
     lambda s: s.mode != "RPI" or s.family in (None, "mass_aspect")),
    ("dt = {s.dt!r} must divide T = {s.T!r} into at least 2 steps", _whole_steps),
    ("T = {s.T!r} carries the flow's area radius 1.3 s0 (1 + |amplitude|) e^(T/2) past "
     f"{S_TABULATED_MAX:g}, the largest a profile is tabulated to", _s_domain_tabulable),
    ("t_samples must be a nonempty list of times in [0, T], got {s.t_samples!r}",
     lambda s: s.t_samples is None or _in_flow(s, s.t_samples)),
    ("compat_window must be [a, b] with 0 <= a < b <= T, got {s.compat_window!r}",
     lambda s: (w := s.compat_window) is None or len(w) == 2 and w[0] < w[1] and _in_flow(s, w)),
    ("grid, T/dt and snap_every ask for more memory per row than this machine has", _fits_in_memory),
    ("compat_window (default [T/2, T]) holds fewer than 3 stored times; lower snap_every or "
     "widen the window", _compat_window_filled),
)


def build_profile(spec: dict, scn: Scenario) -> AmbientProfile:
    """Instantiate an explicit (non-family) profile from its filled spec."""
    kind = spec["kind"]
    default_lo, default_hi = scn._s_bounds(0.0)
    if kind == "hyperbolic":
        r_max = spec["r_max"] if spec["r_max"] is not None else max(25.0, np.arcsinh(default_hi) + 1.0)
        return HyperbolicProfile((spec["r_min"], r_max))
    if kind == "adss":
        m = spec["m"]
        s_min = spec["s_min"] if spec["s_min"] is not None else max(default_lo, 1.02 * horizon_radius(m))
        s_max = spec["s_max"] if spec["s_max"] is not None else max(default_hi, 1.5 * s_min)
        return AdSSProfile(m, (s_min, s_max))
    if kind == "mass_aspect":
        return MassAspectProfile.from_points(spec["points"]["s"], spec["points"]["m"])
    return TabulatedProfile(spec["r"], spec["lam"])


def scenario_from_dict(doc: dict) -> Scenario:
    """Check a scenario document against ``FIELDS`` and ``RULES``."""
    values = _walk(FIELDS, doc, "scenario")
    for name in ("profile", "surface"):
        if name in doc:
            values[name] = doc[name]
    scn = Scenario(**values.pop("grid"), **values)
    scn.validate()
    return scn


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(doc)
