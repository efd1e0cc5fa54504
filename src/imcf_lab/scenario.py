"""Scenario files: experiment configuration for the harness.

A scenario is a UTF-8 JSON document; unknown keys are rejected (fail-closed).
It describes either a single ambient profile + initial surface, or an
epsilon-family sweep.  Shipped families:

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
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ambient import (
    AdSSProfile,
    AmbientProfile,
    HyperbolicProfile,
    MassAspectProfile,
    TabulatedProfile,
    horizon_radius,
)
from .errors import ParseError, ValidationError
from .sphere_grid import SphereGrid, get_grid
from .surface import GraphSurface, make_graph

_TOP_KEYS = {
    "id", "mode", "m", "epsilons", "family", "profile", "surface",
    "T", "dt", "grid", "t_samples", "compat_window", "checks",
    "amplitude_factor", "cfl", "snap_every", "out",
}
_PROFILE_KEYS = {"kind", "m", "s_min", "s_max", "r_min", "r_max", "points", "r", "lam"}
_SURFACE_KEYS = {"type", "area_radius", "amplitude"}
_GRID_KEYS = {"n_theta", "n_phi"}
_CHECK_KEYS = {"class", "compat", "pinch", "distances", "mass_at_infinity"}
_FAMILIES = {"mass_aspect", "ellipsoid", "combined"}

_DEFAULT_CHECKS = {name: True for name in _CHECK_KEYS}


@dataclass
class ScenarioRow:
    """One sweep entry: ambient profile plus initial surface."""

    eps: float | None
    profile: AmbientProfile
    surface0: GraphSurface
    label: str


@dataclass
class Scenario:
    id: str
    mode: str = "PMT"
    m: float | None = None
    epsilons: list | None = None
    family: str | None = None
    profile: dict | None = None
    surface: dict = field(
        default_factory=lambda: {"type": "round", "area_radius": 1.0, "amplitude": 0.0}
    )
    T: float = 2.0
    dt: float = 1e-3
    n_theta: int = 64
    n_phi: int = 128
    t_samples: list | None = None
    compat_window: list | None = None
    checks: dict = field(default_factory=lambda: dict(_DEFAULT_CHECKS))
    amplitude_factor: float = 0.5
    cfl: float = 0.2
    snap_every: int | None = None
    out: str = "out"

    # -- derived -------------------------------------------------------------

    def grid(self) -> SphereGrid:
        return get_grid(self.n_theta, self.n_phi)

    def resolved_t_samples(self) -> list:
        if self.t_samples is not None:
            return list(self.t_samples)
        return [0.0, 0.25 * self.T, 0.5 * self.T, 0.75 * self.T, self.T]

    def resolved_compat_window(self) -> tuple[float, float]:
        if self.compat_window is not None:
            return (float(self.compat_window[0]), float(self.compat_window[1]))
        return (0.5 * self.T, self.T)

    @property
    def area_radius(self) -> float:
        return float(self.surface.get("area_radius", 1.0))

    def validate(self) -> None:
        problems = []
        if not self.id:
            problems.append("id must be a nonempty string")
        if self.mode not in ("PMT", "RPI"):
            problems.append(f"mode must be PMT or RPI, got {self.mode!r}")
        if self.mode == "RPI" and (self.m is None or self.m <= 0):
            problems.append("RPI mode needs a positive target mass m")
        if self.epsilons is not None:
            eps = list(self.epsilons)
            if len(eps) == 0:
                problems.append("epsilons must be nonempty when given")
            if any(e < 0 for e in eps):
                problems.append("epsilons must be nonnegative")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                problems.append("epsilons must be strictly decreasing")
            if self.profile is not None:
                problems.append("give either a profile or an epsilon family, not both")
        if self.family is not None and self.family not in _FAMILIES:
            problems.append(f"unknown family {self.family!r}; choose from {sorted(_FAMILIES)}")
        if self.mode == "RPI" and self.family in ("ellipsoid", "combined"):
            problems.append("RPI sweeps use the mass_aspect family")
        # the T-relative checks below need a usable T
        time_ok = False
        if not (_finite(self.T) and _finite(self.dt)):
            problems.append(f"T and dt must be finite numbers, got T = {self.T!r}, dt = {self.dt!r}")
        elif self.T <= 0 or self.dt <= 0:
            problems.append("T and dt must be positive")
        else:
            time_ok = True
            n = self.T / self.dt
            if abs(n - round(n)) > 1e-9 * max(1.0, n):
                problems.append(f"dt = {self.dt} does not divide T = {self.T}")
        for n, name in ((self.n_theta, "n_theta"), (self.n_phi, "n_phi")):
            if n < 8 or (n & (n - 1)) != 0:
                problems.append(f"{name} = {n} must be a power of two >= 8")
        if time_ok and self.t_samples is not None:
            if any(not 0 <= t <= self.T + 1e-12 for t in self.t_samples):
                problems.append("t_samples must lie in [0, T]")
        if time_ok and self.compat_window is not None:
            a, b = self.compat_window
            if not 0 <= a < b <= self.T + 1e-12:
                problems.append("compat_window must satisfy 0 <= a < b <= T")
        if self.surface.get("type", "round") not in ("round", "ellipsoid", "p2", "bumpy"):
            problems.append(f"unknown surface type {self.surface.get('type')!r}")
        if self.area_radius <= 0:
            problems.append("surface area_radius must be positive")
        if self.amplitude_factor < 0:
            problems.append("amplitude_factor must be nonnegative")
        if not (_finite(self.cfl) and self.cfl > 0):
            problems.append(f"cfl must be a finite positive number, got {self.cfl!r}")
        if self.snap_every is not None and not (
            isinstance(self.snap_every, numbers.Integral)
            and not isinstance(self.snap_every, bool)
            and self.snap_every >= 1
        ):
            problems.append(f"snap_every must be an integer >= 1, got {self.snap_every!r}")
        if problems:
            raise ValidationError("; ".join(problems))

    # -- row construction ------------------------------------------------------

    def rows(self) -> list[ScenarioRow]:
        self.validate()
        if self.epsilons is None:
            profile = (
                build_profile(self.profile, self)
                if self.profile is not None
                else self._family_profile(0.0)
            )
            surf = self._build_surface(profile, self.surface.get("amplitude", 0.0))
            return [ScenarioRow(eps=None, profile=profile, surface0=surf, label=self.id)]
        family = self.family or ("combined" if self.mode == "PMT" else "mass_aspect")
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
        kind = self.surface.get("type", "round")
        if self.epsilons is None:
            amplitude = float(self.surface.get("amplitude", 0.0))
        if amplitude == 0.0:
            kind = "round"
        elif kind == "round":
            # family sweeps perturb with the quadrupole mode: its curvature
            # deviation is first order in the amplitude, so the stability
            # columns stay strictly ordered all the way down the sweep
            kind = "p2"
        return make_graph(profile, self.grid(), rbar, kind, amplitude)


def _finite(x) -> bool:
    """A real, finite number (JSON's NaN and Infinity, strings and booleans are not)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def build_profile(spec: dict, scn: Scenario) -> AmbientProfile:
    """Instantiate an explicit (non-family) profile spec."""
    kind = spec.get("kind")
    s0 = scn.area_radius
    default_lo = 0.8 * s0 - 1e-3
    default_hi = 1.3 * s0 * np.exp(0.5 * scn.T) + 1e-3
    if kind == "hyperbolic":
        r_min = float(spec.get("r_min", 1e-6))
        r_max = float(spec.get("r_max", max(25.0, np.arcsinh(default_hi) + 1.0)))
        return HyperbolicProfile((r_min, r_max))
    if kind == "adss":
        m = float(spec["m"])
        s_min = float(spec.get("s_min", max(default_lo, 1.02 * horizon_radius(m))))
        s_max = float(spec.get("s_max", max(default_hi, 1.5 * s_min)))
        return AdSSProfile(m, (s_min, s_max))
    if kind == "mass_aspect":
        pts = spec.get("points")
        if not isinstance(pts, dict) or "s" not in pts or "m" not in pts:
            raise ParseError("mass_aspect profile needs points: {s: [...], m: [...]}")
        return MassAspectProfile.from_points(pts["s"], pts["m"])
    if kind == "tabulated":
        if "r" not in spec or "lam" not in spec:
            raise ParseError("tabulated profile needs r and lam arrays")
        return TabulatedProfile(spec["r"], spec["lam"])
    raise ParseError(f"unknown profile kind {kind!r}")


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")
    if "id" not in doc or not isinstance(doc["id"], str):
        raise ParseError("scenario needs a string 'id'")
    if "profile" in doc and doc["profile"] is not None:
        if not isinstance(doc["profile"], dict):
            raise ParseError("'profile' must be an object")
        _check_keys(doc["profile"], _PROFILE_KEYS, "profile")
    if "surface" in doc:
        if not isinstance(doc["surface"], dict):
            raise ParseError("'surface' must be an object")
        _check_keys(doc["surface"], _SURFACE_KEYS, "surface")
    checks = dict(_DEFAULT_CHECKS)
    if "checks" in doc:
        if not isinstance(doc["checks"], dict):
            raise ParseError("'checks' must be an object")
        _check_keys(doc["checks"], _CHECK_KEYS, "checks")
        checks.update({k: bool(v) for k, v in doc["checks"].items()})
    kwargs = {k: v for k, v in doc.items() if k not in ("grid", "checks")}
    if "grid" in doc:
        if not isinstance(doc["grid"], dict):
            raise ParseError("'grid' must be an object")
        _check_keys(doc["grid"], _GRID_KEYS, "grid")
        kwargs["n_theta"] = int(doc["grid"].get("n_theta", 64))
        kwargs["n_phi"] = int(doc["grid"].get("n_phi", 128))
    try:
        scn = Scenario(checks=checks, **kwargs)
    except TypeError as exc:
        raise ParseError(f"bad scenario field: {exc}") from exc
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
