#!/usr/bin/env python3
"""Refinement study for the flow solver against the closed-form round flow.

Runs the unit round sphere in hyperbolic space at several (dt, grid)
resolutions and prints the area-law drift, the mass-growth identity residual
and the wall time per configuration.  The solver integrates the area radius in
the exponential time variable, so the round trajectory itself sits at the
round-off floor; the identity residual exposes the genuine dt order.
"""

import time

import numpy as np

from imcf_lab.ambient import AdSSProfile
from imcf_lab.imcf import run
from imcf_lab.mass import geroch_identity_residual
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import make_graph

CONFIGS = [
    (32, 64, 2e-3),
    (32, 64, 1e-3),
    (64, 128, 1e-3),
    (64, 128, 5e-4),
]

if __name__ == "__main__":
    profile = AdSSProfile(1.0, s_domain=(1.6, 16.0))
    r0 = float(profile.radius_from_area_radius(2.0))
    print(f"{'grid':>9} {'dt':>8} {'area drift':>12} {'identity res':>13} {'wall s':>7}")
    for nt, nph, dt in CONFIGS:
        surf = make_graph(profile, get_grid(nt, nph), r0)
        t0 = time.perf_counter()
        track = run(profile, surf, T=1.0, dt=dt)
        wall = time.perf_counter() - t0
        drift = np.max(np.abs(track.series.area / (track.series.area[0] * np.exp(track.times)) - 1))
        res = np.max(geroch_identity_residual(track).identity)
        print(f"{nt:>4}x{nph:<4} {dt:8.0e} {drift:12.3e} {res:13.3e} {wall:7.1f}")
