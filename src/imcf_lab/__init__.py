"""Inverse mean curvature flow laboratory for asymptotically hyperbolic backgrounds.

Star-shaped surfaces evolve as radial graphs with outward normal speed 1/H in
rotationally symmetric ambient metrics dr^2 + lambda(r)^2 sigma.  The package
computes the Hawking-mass monotonicity diagnostics along the flow, assembles
product metrics on Sigma x [0, T], measures their L^2 distances, and runs
epsilon-sweep experiments that exhibit the stability of the positive-mass and
Penrose rigidity statements numerically.
"""

__version__ = "0.1.0"
