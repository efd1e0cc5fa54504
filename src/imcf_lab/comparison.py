"""Product metrics on Sigma x [0, T] and L^2 distances between them.

Every metric handled here is block diagonal: a lapse^2 dt^2 part plus a
time-dependent fiber 2-metric on the sphere grid.  Labels:

    hat                1/H(x,t)^2 dt^2 + g(x,t)
    g1                 1/Hbar(t)^2 dt^2 + g(x,t)
    g2                 1/Hbar(t)^2 dt^2 + e^t g(x,0)
    g2p                1/Hbar(t)^2 dt^2 + e^{t-T} g(x,T)
    g3_pmt             (1/4)(1 + e^{-t}/r0^2)^{-1} dt^2 + e^t g(x,0)
    g3_rpi             (1/4)(e^{-t}/r0^2 - 2m e^{-3t/2}/r0^3 + 1)^{-1} dt^2 + e^t g(x,0)
    g3_alt             (r0^2/4) e^t dt^2 + e^t g(x,0)      (reproduction variant)
    hyperbolic_model   PMT lapse with round fiber r0^2 e^t sigma
    adss_model         RPI lapse with round fiber r0^2 e^t sigma

Hbar(t) is the area average of H.  The squared L^2 distance over the flow
region uses its volume form, dV = dmu dt / H:

    dist(A, B; ref) = int_0^T int_Sigma |A - B|_ref^2 / H dmu dt

with the tensor norm taken by raising indices with ref (no square root,
matching how the convergence statements are quantified).

``ChainAccumulator`` computes the hat -> g1 -> g2 -> g3 -> model chain while
the flow runs: one spatial integral per sampled time, a trapezoid in t at
the end, and nothing but the first sample's fiber held in between.
``distance_chain`` replays a finished track through it.  ``assemble`` and
``l2_distance`` build the full (time, node) grids instead; they are the
reference the streamed chain is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LapseError, ParamError, ShapeError
from .imcf import FlowTrack, SnapshotAccumulator, area_radius, mean_curvature_average
from .surface import SurfaceGeometry, integrate

LABELS = (
    "hat",
    "g1",
    "g2",
    "g2p",
    "g3_pmt",
    "g3_rpi",
    "g3_alt",
    "hyperbolic_model",
    "adss_model",
)

_FIBER_FIELDS = ("H", "g11", "g12", "g22", "dmu", "hbar")
CHAIN_KEYS = ("hat_g1", "g1_g2", "g2_g3", "g3_model", "hat_model")


@dataclass
class ProductMetricGrid:
    """Sampled block metric: lapse^2 plus fiber components per (t, node)."""

    label: str
    times: np.ndarray
    time_indices: np.ndarray   # indices into the track snapshot list
    lapse2: np.ndarray         # (n_t, n_theta, n_phi)
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray

    @property
    def shape(self):
        return self.lapse2.shape


def _track_samples(track: FlowTrack, idx: np.ndarray) -> dict:
    """Fiber data of the track at the chosen snapshot indices."""
    shape = (len(idx), *track.grid.shape)
    out = {name: np.empty(shape) for name in _FIBER_FIELDS}
    for row, j in enumerate(idx):
        geom = track.snapshot_geometry(int(j))
        out["H"][row] = geom.H
        out["g11"][row] = geom.g11
        out["g12"][row] = geom.g12
        out["g22"][row] = geom.g22
        out["dmu"][row] = geom.dmu
        out["hbar"][row] = track.series.hbar[track.snap_indices[j]]
    return out


def default_time_indices(track: FlowTrack, n_times: int = 101) -> np.ndarray:
    """Subsample of snapshot indices including both endpoints."""
    return sample_indices(len(track.snap_times), n_times)


def sample_indices(n_snap: int, n_times: int = 101) -> np.ndarray:
    """``default_time_indices`` for a track of n_snap stored snapshots."""
    if n_times >= n_snap:
        return np.arange(n_snap)
    idx = np.unique(np.linspace(0, n_snap - 1, n_times).round().astype(int))
    return idx


def model_mean_curvature_sq(t, r0: float, m: float = 0.0):
    """Mean curvature squared of the model round flow, (4/r0^2)(1 - 2m e^{-t/2}/r0) e^{-t} + 4."""
    t = np.asarray(t, dtype=float)
    return (4.0 / r0**2) * (1.0 - (2.0 / r0) * m * np.exp(-0.5 * t)) * np.exp(-t) + 4.0


def _model_lapse2(t, r0: float, m: float):
    # reciprocal of the model H^2: (1/4)(e^{-t}/r0^2 - 2m e^{-3t/2}/r0^3 + 1)^{-1}
    den = np.exp(-t) / r0**2 - 2.0 * m * np.exp(-1.5 * t) / r0**3 + 1.0
    if np.any(den <= 0.0):
        raise LapseError(
            f"model lapse degenerates for r0 = {r0:g}, m = {m:g} (horizon reached)"
        )
    return 0.25 / den


def assemble(
    track: FlowTrack,
    label: str,
    r0: float | None = None,
    m: float | None = None,
    time_indices: np.ndarray | None = None,
) -> ProductMetricGrid:
    """Sample one of the product metrics over the track's snapshot times."""
    if label not in LABELS and label != "g2'":
        raise ValueError(f"unknown metric label {label!r}; choose from {LABELS}")
    if label == "g2'":
        label = "g2p"
    if r0 is None:
        r0 = track.r0
    if label in ("g3_rpi", "adss_model"):
        if m is None or m <= 0.0:
            raise ParamError(f"label {label!r} needs a positive mass m")
    mm = 0.0 if m is None else float(m)

    if time_indices is None:
        time_indices = default_time_indices(track)
    idx = np.asarray(time_indices, dtype=int)
    times = track.snap_times[idx]
    samples = _track_samples(track, idx)
    tcol = times[:, None, None]
    grid = track.grid
    ones = np.ones((len(idx), *grid.shape))

    if label == "hat":
        lapse2 = 1.0 / samples["H"] ** 2
    elif label in ("g1", "g2", "g2p"):
        lapse2 = 1.0 / samples["hbar"] ** 2
    elif label in ("g3_pmt", "hyperbolic_model"):
        lapse2 = _model_lapse2(tcol, r0, 0.0) * ones
    elif label in ("g3_rpi", "adss_model"):
        lapse2 = _model_lapse2(tcol, r0, mm) * ones
    elif label == "g3_alt":
        lapse2 = 0.25 * r0**2 * np.exp(tcol) * ones

    if label in ("hat", "g1"):
        fib = (samples["g11"], samples["g12"], samples["g22"])
    elif label in ("g2", "g3_pmt", "g3_rpi", "g3_alt"):
        scale = np.exp(tcol)
        fib = (
            scale * samples["g11"][0][None, :, :],
            scale * samples["g12"][0][None, :, :],
            scale * samples["g22"][0][None, :, :],
        )
    elif label == "g2p":
        scale = np.exp(tcol - track.T)
        fib = (
            scale * samples["g11"][-1][None, :, :],
            scale * samples["g12"][-1][None, :, :],
            scale * samples["g22"][-1][None, :, :],
        )
    else:  # round model fiber r0^2 e^t sigma
        scale = r0**2 * np.exp(tcol)
        sin2 = (grid.sin_theta**2)[None, :, None]
        fib = (scale * ones, 0.0 * ones, scale * sin2 * ones)

    if np.any(lapse2 <= 0.0):
        raise LapseError(f"nonpositive lapse^2 in label {label!r}")
    return ProductMetricGrid(
        label=label,
        times=times,
        time_indices=idx,
        lapse2=lapse2,
        g11=fib[0],
        g12=fib[1],
        g22=fib[2],
    )


def l2_distance(
    A: ProductMetricGrid,
    B: ProductMetricGrid,
    ref: ProductMetricGrid,
    track: FlowTrack,
) -> float:
    """Squared L^2 distance of two product metrics over the flow region."""
    for other in (B, ref):
        if other.shape != A.shape or not np.array_equal(other.time_indices, A.time_indices):
            raise ShapeError("product metric grids must share the sampling grid")
    samples = _track_samples(track, A.time_indices)

    norm2 = _pointwise_norm2(
        (A.lapse2, A.g11, A.g12, A.g22),
        (B.lapse2, B.g11, B.g12, B.g22),
        (ref.lapse2, ref.g11, ref.g12, ref.g22),
    )

    w = track.grid.weights[None, :, :]
    spatial = np.sum(norm2 * samples["dmu"] / samples["H"] * w, axis=(1, 2))
    return float(np.trapezoid(spatial, A.times))


def _pointwise_norm2(A, B, ref):
    """|A - B|_ref^2 per node for block metrics given as (lapse^2, g11, g12, g22)."""
    dL = A[0] - B[0]
    d11 = A[1] - B[1]
    d12 = A[2] - B[2]
    d22 = A[3] - B[3]

    det = ref[1] * ref[3] - ref[2] ** 2
    i11 = ref[3] / det
    i12 = -ref[2] / det
    i22 = ref[1] / det

    m11 = i11 * d11 + i12 * d12
    m12 = i11 * d12 + i12 * d22
    m21 = i12 * d11 + i22 * d12
    m22 = i12 * d12 + i22 * d22
    return (dL / ref[0]) ** 2 + m11**2 + 2.0 * m12 * m21 + m22**2


class ChainAccumulator(SnapshotAccumulator):
    """Streaming form of ``distance_chain`` over the snapshots ``time_indices``.

    Per sampled time it integrates the five squared distances over Sigma
    (weighted by dmu / H, as in ``l2_distance``) and keeps only those scalars
    and the first sample's fiber, which g2 and g3 rescale by e^t.  ``r0``
    None takes the area radius of the first sample, Sigma_0 for the default
    sampling.
    """

    def __init__(
        self,
        snap_times: np.ndarray,
        time_indices: np.ndarray,
        mode: str = "PMT",
        r0: float | None = None,
        m: float | None = None,
    ):
        mode = mode.upper()
        if mode not in ("PMT", "RPI"):
            raise ValueError("mode must be PMT or RPI")
        super().__init__(time_indices)
        self.mode = mode
        self.times = snap_times[self.indices]
        self._growth = np.exp(self.times)
        self._m = m
        self._model_m = 0.0 if mode == "PMT" or m is None else float(m)
        self.spatial = {key: np.empty(len(self.indices)) for key in CHAIN_KEYS}
        self._fiber0 = None
        self._error = None
        self._model_lapse = None
        if r0 is not None:
            self._set_r0(r0)

    def _set_r0(self, r0: float) -> None:
        self.r0 = r0
        try:
            self._model_lapse = _model_lapse2(self.times, r0, self._model_m)
        except LapseError as exc:
            self._error = exc

    def take(self, i, j, t, geom, P1, P2) -> None:
        if self._model_lapse is None and self._error is None:
            self._set_r0(area_radius(geom))
        if self._error is not None:
            return
        if self._fiber0 is None:
            self._fiber0 = (geom.g11, geom.g12, geom.g22)
        grid = geom.grid
        growth = self._growth[i]
        lapse_model = self._model_lapse[i]
        hbar = mean_curvature_average(geom)
        lapse_mean = 1.0 / (hbar * hbar)
        scaled0 = tuple(growth * g for g in self._fiber0)

        hat = (1.0 / geom.H**2, geom.g11, geom.g12, geom.g22)
        g1 = (lapse_mean, geom.g11, geom.g12, geom.g22)
        g2 = (lapse_mean, *scaled0)
        g3 = (lapse_model, *scaled0)
        round_fiber = self.r0**2 * growth
        model = (lapse_model, round_fiber, 0.0, round_fiber * (grid.sin_theta**2)[:, None])

        pairs = ((hat, g1), (g1, g2), (g2, g3), (g3, model), (hat, model))
        for key, (a, b) in zip(CHAIN_KEYS, pairs):
            norm2 = _pointwise_norm2(a, b, model)
            self.spatial[key][i] = np.sum(norm2 * geom.dmu / geom.H * grid.weights)

    def result(self) -> dict:
        if self.mode == "RPI" and (self._m is None or self._m <= 0.0):
            raise ParamError("label 'g3_rpi' needs a positive mass m")
        if self._error is not None:
            raise self._error
        self._require_complete()
        return {
            key: float(np.trapezoid(self.spatial[key], self.times)) for key in CHAIN_KEYS
        }


def distance_chain(
    track: FlowTrack,
    mode: str = "PMT",
    r0: float | None = None,
    m: float | None = None,
    time_indices: np.ndarray | None = None,
) -> dict:
    """All pairwise distances along the hat -> g1 -> g2 -> g3 -> model chain.

    Every distance is measured against the model metric of the chosen mode, so
    the square roots obey the plain triangle inequality.
    """
    if time_indices is None:
        time_indices = default_time_indices(track)
    acc = ChainAccumulator(
        track.snap_times, time_indices, mode=mode,
        r0=track.r0 if r0 is None else r0, m=m,
    )
    track.replay(acc)
    return acc.result()


def c_alpha_distance_to_round(
    geom0: SurfaceGeometry,
    r0: float,
    alpha: float = 0.5,
    max_pairs: int = 1_000_000,
) -> float:
    """Holder-type distance of the initial fiber metric to the round r0^2 sigma.

    Components of D = g(.,0) - r0^2 sigma are taken in the sigma-orthonormal
    frame; the value is sup |D| plus a discrete Holder seminorm over a
    deterministic node-pair sample (all pairs within each latitude ring plus
    power-of-two ring strides along meridians, capped at ``max_pairs``).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = geom0.grid
    st = grid.sin_theta[:, None]
    D1 = geom0.g11 - r0**2
    D2 = geom0.g12 / st
    D3 = geom0.g22 / st**2 - r0**2
    sup = float(max(np.max(np.abs(D1)), np.max(np.abs(D2)), np.max(np.abs(D3))))

    nt, nph = grid.shape
    semi = 0.0

    def comp_diff(a, b):
        # max-component difference of the frame representations
        return np.maximum(
            np.abs(a[0] - b[0]), np.maximum(np.abs(a[1] - b[1]), np.abs(a[2] - b[2]))
        )

    # within-ring pairs: separation along the latitude circle
    pairs_per_ring = nph * (nph - 1) // 2
    ring_stride = max(1, int(np.ceil(nt * pairs_per_ring / (0.8 * max_pairs))))
    dphi = grid.phi[None, :] - grid.phi[:, None]
    for i in range(0, nt, ring_stride):
        cosd = grid.cos_theta[i] ** 2 + grid.sin_theta[i] ** 2 * np.cos(dphi)
        dist = np.arccos(np.clip(cosd, -1.0, 1.0))
        diff = comp_diff(
            (D1[i][None, :], D2[i][None, :], D3[i][None, :]),
            (D1[i][:, None], D2[i][:, None], D3[i][:, None]),
        )
        mask = dist > 1e-12
        if np.any(mask):
            semi = max(semi, float(np.max(diff[mask] / dist[mask] ** alpha)))

    # meridian pairs at power-of-two ring separations
    d = 1
    while d < nt:
        dist = np.abs(grid.theta[d:] - grid.theta[:-d])[:, None]
        diff = comp_diff((D1[d:], D2[d:], D3[d:]), (D1[:-d], D2[:-d], D3[:-d]))
        semi = max(semi, float(np.max(diff / dist**alpha)))
        d *= 2

    return sup + semi


def gauss_deviation(geom: SurfaceGeometry, r0: float, t: float) -> float:
    """Squared L^2 deviation of the Gauss curvature from the model constant e^{-t}/r0^2."""
    k_model = np.exp(-t) / r0**2
    return integrate(geom, (geom.K - k_model) ** 2)
