import numpy as np
import pytest

from imcf_lab.comparison import (
    LABELS,
    _model_lapse2,
    assemble,
    c_alpha_distance_to_round,
    distance_chain,
    gauss_deviation,
    l2_distance,
    sample_indices,
)
from imcf_lab.errors import ShapeError
from imcf_lab.imcf import record
from imcf_lab.surface import geometry, make_graph

from .oracles import make_round, model_mean_curvature_sq

RBAR = float(np.arcsinh(1.0))


def test_model_mean_curvature_values():
    # frozen: unit sphere in hyperbolic space has H^2 = 8
    assert abs(model_mean_curvature_sq(0.0, 1.0, 0.0) - 8.0) < 1e-14
    # horizon-free asymptotics: H^2 -> 4
    assert abs(model_mean_curvature_sq(40.0, 1.0, 0.0) - 4.0) < 1e-12
    # horizon case: r0 = 1, m = 0.5 gives H^2 = 4 at t = 0
    assert abs(model_mean_curvature_sq(0.0, 1.0, 0.5) - 4.0) < 1e-14


@pytest.mark.parametrize("m", [0.0, 0.3])
def test_model_lapse_is_the_reciprocal_model_mean_curvature_sq(m):
    t = np.linspace(0.0, 4.0, 9)
    assert np.max(np.abs(_model_lapse2(t, 1.0, m) * model_mean_curvature_sq(t, 1.0, m) - 1.0)) < 1e-14


def test_hat_equals_model_on_hyperbolic_round(hyp_round_track):
    hat = assemble(hyp_round_track, "hat")
    model = assemble(hyp_round_track, "model")
    assert np.max(np.abs(hat.lapse2 - model.lapse2)) < 1e-12
    assert np.max(np.abs(hat.g11 - model.g11)) < 1e-11
    assert np.max(np.abs(hat.g22 - model.g22)) < 1e-11


def test_hat_equals_model_on_adss_round(adss_round_track):
    hat = assemble(adss_round_track, "hat")
    model = assemble(adss_round_track, "model", m=1.0)
    assert np.max(np.abs(hat.lapse2 - model.lapse2)) < 1e-11
    assert np.max(np.abs(hat.g11 - model.g11)) < 1e-10


def test_g1_equals_hat_on_round(hyp_round_track):
    hat = assemble(hyp_round_track, "hat")
    g1 = assemble(hyp_round_track, "g1")
    assert np.max(np.abs(hat.lapse2 - g1.lapse2)) < 1e-12


def test_unknown_label_rejected(hyp_round_track):
    with pytest.raises(ValueError):
        assemble(hyp_round_track, "g7")


def test_l2_distance_zero_and_symmetry(hyp_round_track):
    hat = assemble(hyp_round_track, "hat")
    # on round data hat equals g3 at the flow's own r0; another r0 differs
    other = assemble(hyp_round_track, "g3", r0=2.0)
    model = assemble(hyp_round_track, "model")
    assert l2_distance(hat, hat, model, hyp_round_track) == 0.0
    d_ab = l2_distance(hat, other, model, hyp_round_track)
    d_ba = l2_distance(other, hat, model, hyp_round_track)
    assert d_ab > 0.0  # distinct metrics separate
    assert d_ab == pytest.approx(d_ba, rel=1e-14)


def test_l2_distance_shape_error(hyp_round_track):
    hat = assemble(hyp_round_track, "hat")
    idx = sample_indices(len(hyp_round_track.snap_times))[:-10]
    short = assemble(hyp_round_track, "g1", time_indices=idx)
    with pytest.raises(ShapeError):
        l2_distance(hat, short, hat, hyp_round_track)


def test_chain_vanishes_on_exact_models(hyp_round_track, adss_round_track):
    for track, m in ((hyp_round_track, 0.0), (adss_round_track, 1.0)):
        chain = distance_chain(track, m=m)
        for key, value in chain.items():
            assert value < 1e-20, (key, value)


def test_triangle_chain_inequality(hyperbolic, grid32):
    surf = make_graph(hyperbolic, grid32, RBAR, "round", 0.05)
    track = record(hyperbolic, surf, T=0.3, dt=1e-3)
    chain = distance_chain(track)
    lhs = np.sqrt(chain["hat_model"])
    rhs = (
        np.sqrt(chain["hat_g1"])
        + np.sqrt(chain["g1_g2"])
        + np.sqrt(chain["g2_g3"])
        + np.sqrt(chain["g3_model"])
    )
    assert lhs <= 1.1 * rhs


def test_all_labels_assemble(hyp_round_track):
    for label in LABELS:
        for m in (0.0, 0.3):
            grid = assemble(hyp_round_track, label, m=m)
            assert np.all(np.isfinite(grid.lapse2)) and np.all(grid.lapse2 > 0)
            assert np.all(grid.g11 > 0)


def test_lapse_degenerates_at_horizon(hyp_round_track):
    # r0 = 1 with m = 1 puts the model start exactly on the horizon
    from imcf_lab.errors import LapseError

    with pytest.raises(LapseError):
        assemble(hyp_round_track, "model", m=1.0)


def test_c_alpha_zero_for_round(hyp_round_track):
    geom0 = hyp_round_track.snapshot_geometry(0)
    assert c_alpha_distance_to_round(geom0, r0=1.0) < 1e-12


def test_c_alpha_constant_offset(hyperbolic, grid32):
    """Fiber (r0^2 + eta) sigma sits at distance eta (zero seminorm)."""
    eta = 0.3
    r_off = float(hyperbolic.radius_from_area_radius(np.sqrt(1.0 + eta)))
    geom = geometry(hyperbolic, make_round(hyperbolic, r_off, grid32))
    assert abs(c_alpha_distance_to_round(geom, r0=1.0) - eta) < 1e-10


def test_c_alpha_decreases_with_amplitude(hyperbolic, grid32):
    vals = []
    for amp in (0.05, 0.025, 0.0125):
        geom = geometry(hyperbolic, make_graph(hyperbolic, grid32, RBAR, "round", amp))
        vals.append(c_alpha_distance_to_round(geom, r0=1.0))
    assert vals[0] > vals[1] > vals[2] > 0


def test_gauss_deviation_round_is_floor(hyp_round_track):
    geom0 = hyp_round_track.snapshot_geometry(0)
    assert gauss_deviation(geom0, 1.0, 0.0) < 1e-20


def test_gauss_deviation_quadratic_in_amplitude(hyperbolic, grid32):
    """Quadrupole data: deviation scales ~quadratically (quarters +-30%)."""
    g_big = geometry(hyperbolic, make_graph(hyperbolic, grid32, RBAR, "round", 0.05))
    g_small = geometry(hyperbolic, make_graph(hyperbolic, grid32, RBAR, "round", 0.025))
    ratio = gauss_deviation(g_big, 1.0, 0.0) / gauss_deviation(g_small, 1.0, 0.0)
    assert 2.8 < ratio < 5.2
