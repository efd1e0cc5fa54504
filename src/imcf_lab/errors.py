"""Exception types shared across the package."""


class ImcfLabError(Exception):
    """Base class for all package errors."""


class DomainError(ImcfLabError):
    """Radius or area radius outside the profile domain."""


class ProfileError(ImcfLabError):
    """Warp function violates positivity (lambda <= 0 or lambda' <= 0)."""


class GeometryError(ImcfLabError):
    """Induced metric degenerate (det g <= 0)."""


class CurvatureError(ImcfLabError):
    """Mean curvature H <= 0 somewhere; the flow speed 1/H is undefined."""


class StabilityError(ImcfLabError):
    """Explicit time step cannot satisfy the CFL guard within the substep budget."""


class FitError(ImcfLabError):
    """Tail fit of the mass series did not meet the residual threshold."""


class ShapeError(ImcfLabError):
    """Product-metric grids have incompatible shapes."""


class LapseError(ImcfLabError):
    """Non-positive lapse coefficient in an assembled product metric."""


class ParseError(ImcfLabError):
    """Scenario file failed to parse (bad JSON, unknown key, wrong type)."""


class ValidationError(ImcfLabError):
    """Scenario parsed but violates an invariant (lists the violations)."""


class WindowError(ImcfLabError):
    """Requested time window not contained in the computed flow track."""


class TrackError(ImcfLabError):
    """Flow track cannot be replayed: it stores no snapshots (it came from
    ``run``, not ``record``), or it holds a batch's rows (replay the rows'
    own tracks, from ``split``)."""
