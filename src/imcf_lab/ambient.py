"""Rotationally symmetric ambient 3-metrics g = dr^2 + lambda(r)^2 sigma.

A profile is a forward map r -> s = lambda(r) and a mass aspect m(s): the
coordinate sphere of area radius s has Hawking mass m(s).  In s alone
(``warp_at_area_radius``):

    lambda'   = sqrt(1 + s^2 - 2 m(s)/s)
    lambda''  = s + m(s)/s^2 - m'(s)/s
    Rc(nu,nu) = -2 lambda''/s                     (radial direction)
    K12       = (1 - lambda'^2)/s^2 = 2 m/s^3 - 1  (tangent to coordinate spheres)
    R         = 2 K12 + 2 Rc(nu,nu) = -6 + 4 m'(s)/s^2

so the floor R >= -6 is exactly monotonicity of m.  The r-API
(``warp_curvature``) is the forward map followed by this s-form.  Kinds:

* ``hyperbolic``  -- lambda = sinh(r), m = 0 (closed forms).
* ``adss``        -- anti-de Sitter Schwarzschild, constant mass m.
* ``mass_aspect`` -- a radially varying mass m(s).
* ``tabulated``   -- cubic spline (not-a-knot) through sampled lambda values,
                     read once as m(s) = (s/2)(1 + s^2 - lambda'^2).

Every kind but ``hyperbolic`` is a mass aspect whose r <-> s map is built
once by integrating dr/ds = 1 / sqrt(1 + s^2 - 2 m(s)/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PchipInterpolator

from .errors import DomainError, ProfileError

_DOMAIN_SLACK = 1e-10

# largest area radius an ODE-backed profile is tabulated to: measured with
# s_lo in [0.8, 1.6] (AdSS down to 1.05 horizon radii), its r <-> s round trip
# closes to 1e-12 up to here, and drifts to 1e-6 at 2e7 and to 5e-2 at 5e7
S_TABULATED_MAX = 1e6
# samples of the r(s) an ODE-backed profile tabulates (and of a tabulated m(s))
_ODE_SAMPLES = 4001


def _in_domain(x, domain, what: str) -> np.ndarray:
    """x clipped to the domain; DomainError beyond round-off outside it."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x
    lo, hi = domain
    # the slack scales with each end: s_domain spans 1e-6 to 4e10 on hyperbolic
    lo_ok = lo - _DOMAIN_SLACK * max(1.0, abs(lo))
    hi_ok = hi + _DOMAIN_SLACK * max(1.0, abs(hi))
    bad = [v for v in (np.min(x), np.max(x)) if not lo_ok <= v <= hi_ok]
    if bad:
        raise DomainError(f"{what} {bad[0]:.6g} outside profile domain [{lo:.6g}, {hi:.6g}]")
    return np.clip(x, lo, hi)


@dataclass(frozen=True)
class ProfileReport:
    """Result of a dense radial scan of a profile (report-only)."""

    kind: str
    n_samples: int
    min_R: float
    r_at_min_R: float
    r_floor_ok: bool
    positivity_ok: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.r_floor_ok and self.positivity_ok


class AmbientProfile:
    """Base class; subclasses provide ``_s_of_r``, its inverse and ``_mass``."""

    kind: str = "abstract"

    def __init__(self, r_domain: tuple[float, float]):
        lo, hi = float(r_domain[0]), float(r_domain[1])
        if not lo < hi:
            raise ProfileError(f"empty radial domain [{lo}, {hi}]")
        self.r_domain = (lo, hi)
        self.s_domain = (float(self._s_of_r(lo)), float(self._s_of_r(hi)))
        if self.s_domain[0] <= 0.0:
            raise ProfileError(f"{self.kind} profile loses positivity at r = {lo:.6g}")

    # -- interface ---------------------------------------------------------

    def _s_of_r(self, r):
        """Forward map r -> s = lambda(r), unchecked."""
        raise NotImplementedError

    def radius_from_area_radius(self, s):
        """Inverse warp: the r with lambda(r) = s."""
        raise NotImplementedError

    def _mass(self, s):
        """Mass aspect and its derivative (m(s), m'(s))."""
        raise NotImplementedError

    def mass_function(self, s):
        """Mass aspect m(s) = (s/2)(1 + s^2 - lambda'^2)."""
        return self._mass(np.asarray(s, dtype=float))[0]

    # -- the s-form ----------------------------------------------------------

    def warp_at_area_radius(self, s):
        """(lambda', lambda'', R, Rc_rr, K12) at area radius s; DomainError
        outside ``s_domain``, ProfileError where lambda'^2 <= 0."""
        return self._s_form(_in_domain(s, self.s_domain, "area radius"))

    def _s_form(self, s):
        m, dm = self._mass(s)
        dlam2 = 1.0 + s * s - 2.0 * m / s
        if np.min(dlam2) <= 0.0:
            raise ProfileError(
                f"{self.kind} profile loses positivity: min lambda'^2 {np.min(dlam2):.3g}"
            )
        d2lam = s + m / (s * s) - dm / s
        # 1 - lambda'^2 = 2 m/s - s^2 exactly, without the cancellation
        k12 = 2.0 * m / s**3 - 1.0
        rc = -2.0 * d2lam / s
        return np.sqrt(dlam2), d2lam, 2.0 * k12 + 2.0 * rc, rc, k12

    # -- the r-API -------------------------------------------------------------

    def area_radius_from_radius(self, r):
        """The forward map s = lambda(r), domain-checked."""
        return self._s_of_r(_in_domain(r, self.r_domain, "radius"))

    def warp_curvature(self, r):
        """One-pass (lambda, lambda', lambda'', R, Rc_rr, K12) at r."""
        s = self.area_radius_from_radius(r)
        return (s, *self.warp_at_area_radius(s))


class HyperbolicProfile(AmbientProfile):
    """Hyperbolic 3-space: lambda(r) = sinh(r)."""

    kind = "hyperbolic"

    def __init__(self, r_domain: tuple[float, float] = (1e-6, 25.0)):
        super().__init__(r_domain)

    def _s_of_r(self, r):
        return np.sinh(r)

    def radius_from_area_radius(self, s):
        s = np.asarray(s, dtype=float)
        return np.arcsinh(s)

    def _mass(self, s):
        return np.zeros_like(s), np.zeros_like(s)

    def _s_form(self, s):
        # m = 0: lambda'^2 = 1 + s^2 > 0 and the curvatures are constants
        return (
            np.sqrt(1.0 + s * s), s,
            np.full_like(s, -6.0), np.full_like(s, -2.0), np.full_like(s, -1.0),
        )


class _OdeWarpProfile(AmbientProfile):
    """Warp built from a mass aspect m(s) by integrating dr/ds = 1/lambda'
    from r = r_lo at s_lo."""

    def __init__(
        self,
        m_func: Callable,
        dm_func: Callable,
        s_domain: tuple[float, float],
        r_lo: float = 0.0,
    ):
        s_lo, s_hi = float(s_domain[0]), float(s_domain[1])
        if not 0.0 < s_lo < s_hi <= S_TABULATED_MAX:
            raise ProfileError(
                f"invalid area-radius domain [{s_lo}, {s_hi}]; "
                f"need 0 < s_lo < s_hi <= {S_TABULATED_MAX:g}"
            )
        self._m = m_func
        self._dm = dm_func

        # quadratic grading toward s_lo keeps the r-samples near-uniform when
        # the domain floor sits close to a horizon (lambda' -> 0)
        u = np.linspace(0.0, 1.0, _ODE_SAMPLES)
        s_grid = s_lo + (s_hi - s_lo) * u * u
        s_grid[0], s_grid[-1] = s_lo, s_hi
        sq = self._dlam_sq(s_grid)
        if np.min(sq) <= 0.0:
            raise ProfileError(
                "1 + s^2 - 2 m(s)/s <= 0 inside the domain (horizon crossed)"
            )
        sol = solve_ivp(
            lambda s, r: 1.0 / np.sqrt(self._dlam_sq(s)),
            (s_lo, s_hi),
            [r_lo],
            t_eval=s_grid,
            rtol=1e-12,
            atol=1e-14,
            method="DOP853",
        )
        if not sol.success:
            raise ProfileError(f"warp ODE integration failed: {sol.message}")
        r_grid = sol.y[0]
        self._s_of_r = CubicSpline(r_grid, s_grid, bc_type="not-a-knot")
        self._r_of_s_guess = PchipInterpolator(s_grid, r_grid)
        super().__init__((r_lo, float(r_grid[-1])))

    def _dlam_sq(self, s):
        s = np.asarray(s, dtype=float)
        return 1.0 + s * s - 2.0 * self._m(s) / s

    def _mass(self, s):
        return self._m(s), self._dm(s)

    def radius_from_area_radius(self, s):
        s = _in_domain(s, self.s_domain, "area radius")
        r = np.asarray(self._r_of_s_guess(s), dtype=float)
        r = np.clip(r, self.r_domain[0], self.r_domain[1])
        # polish against the same spline the forward map evaluates, so the
        # round trip s -> r -> lambda(r) closes at machine precision
        for _ in range(3):
            cur = self._s_of_r(r)
            r = r - (cur - s) / np.sqrt(self._dlam_sq(cur))
            r = np.clip(r, self.r_domain[0], self.r_domain[1])
        return r


class AdSSProfile(_OdeWarpProfile):
    """Anti-de Sitter Schwarzschild with constant mass m > 0."""

    kind = "adss"

    def __init__(self, m: float, s_domain: tuple[float, float] | None = None):
        if m <= 0.0:
            raise ProfileError("AdSS mass must be positive")
        self.m = float(m)
        if s_domain is None:
            s_domain = (1.02 * horizon_radius(m), max(20.0, 10.0 * horizon_radius(m)))
        m_arr = lambda s: np.full_like(np.asarray(s, dtype=float), self.m)
        dm_arr = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        super().__init__(m_arr, dm_arr, s_domain)


class MassAspectProfile(_OdeWarpProfile):
    """Radially varying mass aspect; monotone m(s) keeps R >= -6."""

    kind = "mass_aspect"

    @classmethod
    def from_points(cls, s_points, m_points) -> "MassAspectProfile":
        """Shape-preserving (PCHIP) spline through tabulated (s, m) pairs."""
        s_points = np.asarray(s_points, dtype=float)
        m_points = np.asarray(m_points, dtype=float)
        if len(s_points) < 2 or len(m_points) != len(s_points) or np.any(np.diff(s_points) <= 0):
            raise ProfileError("mass-aspect profile points need strictly increasing s, one m per s")
        spline = PchipInterpolator(s_points, m_points)
        dspline = spline.derivative()
        return cls(spline, dspline, (float(s_points[0]), float(s_points[-1])))


class TabulatedProfile(_OdeWarpProfile):
    """Cubic spline (not-a-knot) through sampled lambda(r) values, read once
    as the mass aspect m(s) = (s/2)(1 + s^2 - lambda'^2)."""

    kind = "tabulated"

    def __init__(self, r_nodes, lam_values):
        r_nodes = np.asarray(r_nodes, dtype=float)
        lam_values = np.asarray(lam_values, dtype=float)
        if len(r_nodes) < 4 or len(lam_values) != len(r_nodes) or np.any(np.diff(r_nodes) <= 0):
            raise ProfileError("tabulated profile needs >= 4 strictly increasing radii, one lam per r")
        if np.any(lam_values <= 0) or np.any(np.diff(lam_values) <= 0):
            raise ProfileError("tabulated lambda must be positive and increasing")
        lam = CubicSpline(r_nodes, lam_values, bc_type="not-a-knot")
        dlam = lam.derivative()
        # lambda' <= 0 anywhere makes r(s) many-valued
        if np.min(dlam(r_nodes[[0, -1]])) <= 0.0 or len(dlam.roots(extrapolate=False)):
            raise ProfileError("tabulated spline has lambda' <= 0 inside its domain")
        # m(s) is smooth inside each spline piece: sample every piece at equal
        # steps, about _ODE_SAMPLES in all, and join the samples exactly in m, m'
        u = np.linspace(0.0, 1.0, -(-_ODE_SAMPLES // (len(r_nodes) - 1)), endpoint=False)
        r = np.append((r_nodes[:-1, None] + np.diff(r_nodes)[:, None] * u).ravel(), r_nodes[-1])
        s, d1, d2 = lam(r), dlam(r), dlam(r, 1)
        q = 1.0 + s * s - d1 * d1
        m = CubicHermiteSpline(s, 0.5 * s * q, 0.5 * q + s * s - s * d2)
        super().__init__(m, m.derivative(), (lam_values[0], lam_values[-1]), r_nodes[0])


def horizon_radius(m: float) -> float:
    """Area radius where 1 - 2m/s + s^2 vanishes (s^3 + s = 2m)."""
    roots = np.roots([1.0, 0.0, 1.0, -2.0 * m])
    real = roots[np.abs(roots.imag) < 1e-12].real
    pos = real[real > 0]
    if len(pos) == 0:
        raise ProfileError(f"no horizon for m = {m}")
    return float(pos[0])


def validate_profile(
    profile: AmbientProfile, tol: float = 1e-8, n_samples: int = 512
) -> ProfileReport:
    """Dense radial scan for the scalar-curvature floor and warp positivity."""
    lo, hi = profile.r_domain
    inset = 1e-9 * (hi - lo)
    r = np.linspace(lo + inset, hi - inset, n_samples)
    try:
        R = profile.warp_curvature(r)[3]
    except (DomainError, ProfileError):  # lambda' <= 0 somewhere on the scan
        R = np.full(n_samples, np.nan)
    i = int(np.argmin(R))
    return ProfileReport(
        kind=profile.kind,
        n_samples=n_samples,
        min_R=float(R[i]),
        r_at_min_R=float(r[i]),
        r_floor_ok=bool(R[i] >= -6.0 - tol),
        positivity_ok=not np.isnan(R[i]),
        tol=tol,
    )
