"""Quadrature grid on the unit sphere with spectral differentiation.

Nodes are Gauss-Legendre in x = cos(theta) (interior, so the poles are never
sampled) crossed with a uniform periodic phi grid.  Quadrature against the
round measure d(sigma) = sin(theta) dtheta dphi is then exact for polynomial
integrands of degree < 2*n_theta in x and trigonometric degree < n_phi in phi,
and the weights sum to 4*pi to round-off.

Differentiation: phi by FFT, theta by barycentric polynomial differentiation
on the Gauss-Legendre nodes (chain rule through x = cos theta).  A
latitude-dependent azimuthal mode cap (`polar_filter`) removes sub-grid
wavelengths near the polar node clusters, the standard treatment that keeps
explicit time stepping on a lat-lon style grid stable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class SphereGrid:
    """Gauss-Legendre x uniform-phi quadrature grid on S^2."""

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 4 or n_phi < 4:
            raise ValueError("grid must have at least 4 nodes per direction")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)

        x, wx = np.polynomial.legendre.leggauss(self.n_theta)
        # ascending theta (north pole side first): theta = arccos(x) with x descending
        order = np.argsort(-x)
        self.x = x[order]
        self.w_theta = wx[order]
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sin(self.theta)
        self.cos_theta = self.x
        self.cot_theta = self.cos_theta / self.sin_theta

        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.w_phi = 2.0 * np.pi / self.n_phi
        # weights against d(sigma); sum is exactly 4*pi up to round-off
        self.weights = np.outer(self.w_theta, np.full(self.n_phi, self.w_phi))

        self._d1 = _barycentric_diff_matrix(self.x, self.w_theta)
        self._m = np.arange(self.n_phi // 2 + 1)
        self._filter_mask = self._build_polar_mask()

    # -- quadrature -------------------------------------------------------

    def integrate_sigma(self, field: np.ndarray) -> float:
        """Integral of a nodal field against d(sigma)."""
        return float(np.sum(field * self.weights))

    # -- differentiation ---------------------------------------------------

    def dtheta(self, field: np.ndarray) -> np.ndarray:
        return -self.sin_theta[:, None] * (self._d1 @ field)

    def dphi(self, field: np.ndarray) -> np.ndarray:
        fh = np.fft.rfft(field, axis=1)
        fh *= 1j * self._m
        if self.n_phi % 2 == 0:
            fh[:, -1] = 0.0  # Nyquist mode has no odd derivative
        return np.fft.irfft(fh, n=self.n_phi, axis=1)

    def theta_derivs(self, field: np.ndarray):
        """(d/dtheta, d^2/dtheta^2) sharing the collocation product."""
        df = self._d1 @ field
        d2f = self._d1 @ df
        st = self.sin_theta[:, None]
        return -st * df, st**2 * d2f - self.cos_theta[:, None] * df

    def phi_derivs(self, field: np.ndarray):
        """(d/dphi, d^2/dphi^2) sharing one forward transform."""
        fh = np.fft.rfft(field, axis=1)
        fh1 = fh * (1j * self._m)
        if self.n_phi % 2 == 0:
            fh1[:, -1] = 0.0
        fh2 = fh * (-(self._m**2))
        return (
            np.fft.irfft(fh1, n=self.n_phi, axis=1),
            np.fft.irfft(fh2, n=self.n_phi, axis=1),
        )

    # -- stabilizing filter --------------------------------------------------

    def _build_polar_mask(self) -> np.ndarray:
        # keep azimuthal modes m <= max(8, (n_phi/2) sin(theta)) per ring:
        # wavelengths physically resolvable at that latitude
        cap = np.maximum(8.0, 0.5 * self.n_phi * self.sin_theta)
        return (self._m[None, :] <= cap[:, None]).astype(float)

    def polar_filter(self, field: np.ndarray) -> np.ndarray:
        """Zero azimuthal modes beyond the local resolvable wavenumber."""
        fh = np.fft.rfft(field, axis=1)
        fh *= self._filter_mask
        return np.fft.irfft(fh, n=self.n_phi, axis=1)

    # -- misc ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_theta, self.n_phi)

    @property
    def h_theta(self) -> float:
        return np.pi / self.n_theta

    def broadcast_theta(self, values: np.ndarray) -> np.ndarray:
        """Expand a per-ring array to the full (n_theta, n_phi) node set."""
        return np.repeat(np.asarray(values)[:, None], self.n_phi, axis=1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SphereGrid)
            and other.n_theta == self.n_theta
            and other.n_phi == self.n_phi
        )

    def __hash__(self) -> int:
        return hash((self.n_theta, self.n_phi))

    def __repr__(self) -> str:
        return f"SphereGrid({self.n_theta}x{self.n_phi})"


@lru_cache(maxsize=32)
def get_grid(n_theta: int, n_phi: int) -> SphereGrid:
    """Shared grid instances; construction is cheap but not free."""
    return SphereGrid(n_theta, n_phi)


def _barycentric_diff_matrix(x: np.ndarray, w_quad: np.ndarray):
    """First-derivative collocation matrix on Gauss-Legendre nodes.

    Barycentric weights for Gauss points via the Wang-Xiang relation
    w_i ~ (-1)^i sqrt((1 - x_i^2) lambda_i); only relative values matter.
    Diagonal by the negative-sum trick, so constants differentiate to zero
    exactly.  Second derivatives apply it twice (``theta_derivs``), which is
    exact on the collocation polynomial space.
    """
    n = len(x)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    w = signs * np.sqrt((1.0 - x**2) * w_quad)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d1 = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    return d1
