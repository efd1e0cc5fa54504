"""Acceptance suite: every shipped guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion.  The expensive flows are session fixtures shared across criteria;
the whole module takes several minutes at the default 64x128 / dt = 1e-3
resolution (the refinement studies run one octave finer).
"""

import time

import numpy as np
import pytest

from imcf_lab.ambient import AdSSProfile, HyperbolicProfile, MassAspectProfile
from imcf_lab.cli import main as cli_main
from imcf_lab.harness import check_coordinate_compatibility, run_sequence, w12_normal_ricci
from imcf_lab.imcf import record, run
from imcf_lab.mass import PINCH_TOL, geroch_identity_residual, pinch_bounds_check
from imcf_lab.scenario import load_scenario
from imcf_lab.sphere_grid import get_grid
from imcf_lab.surface import geometry, make_graph

from .oracles import ProbeField, euler_characteristic, make_round, weak_ricci_pairing

GRID = (64, 128)
DT = 1e-3


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _payload(report):
    """The scalar payload of a sweep, one dict per row."""
    return [
        {
            "eps": rr.eps,
            "ok": rr.ok,
            "m_H": None if rr.diag is None else rr.diag.m_H,
            "pinch_pass": rr.pinch_pass,
            "mH_T": rr.mH_T,
            "distances": rr.distances,
            "c_alpha": rr.c_alpha,
            "gauss_dev": rr.gauss_dev,
        }
        for rr in report.rows
    ]


# -- shared flows ---------------------------------------------------------------


@pytest.fixture(scope="session")
def hyp_track():
    prof = HyperbolicProfile()
    s0 = make_round(prof, float(np.arcsinh(1.0)), get_grid(*GRID))
    return record(prof, s0, T=2.0, dt=DT)


@pytest.fixture(scope="session")
def hyp_track_refined():
    prof = HyperbolicProfile()
    s0 = make_round(prof, float(np.arcsinh(1.0)), get_grid(128, 256))
    return record(prof, s0, T=2.0, dt=DT / 2, snap_every=40)


@pytest.fixture(scope="session")
def adss_track():
    prof = AdSSProfile(1.0, s_domain=(1.6, 16.0))
    s0 = make_round(prof, float(prof.radius_from_area_radius(2.0)), get_grid(*GRID))
    return record(prof, s0, T=2.0, dt=DT)


@pytest.fixture(scope="session")
def adss_horizon_track():
    # start one part in a thousand outside the horizon of m = 1 (s_h = 1)
    prof = AdSSProfile(1.0, s_domain=(1.0005, 8.0))
    s0 = make_round(prof, float(prof.radius_from_area_radius(1.001)), get_grid(*GRID))
    return record(prof, s0, T=2.0, dt=DT)


def _mass_aspect_profile(eps: float) -> MassAspectProfile:
    s_lo, s_hi = 0.8, 3.6
    ell = max(0.5, 0.25 * (s_hi - s_lo))
    m_f = lambda s: eps * np.tanh((s - s_lo) / ell)
    dm_f = lambda s: (eps / ell) / np.cosh((s - s_lo) / ell) ** 2
    return MassAspectProfile(m_f, dm_f, (s_lo, s_hi))


@pytest.fixture(scope="session")
def massaspect_track():
    prof = _mass_aspect_profile(0.1)
    s0 = make_round(prof, float(prof.radius_from_area_radius(1.0)), get_grid(*GRID))
    return record(prof, s0, T=2.0, dt=DT)


@pytest.fixture(scope="session")
def hyp_track_T10():
    prof = HyperbolicProfile()
    s0 = make_round(prof, float(np.arcsinh(1.0)), get_grid(*GRID))
    return record(prof, s0, T=10.0, dt=DT)


@pytest.fixture(scope="session")
def pmt_sweep():
    scn = load_scenario("scenarios/pmt_sweep.json")
    t0 = time.perf_counter()
    report = run_sequence(scn)
    elapsed = time.perf_counter() - t0
    return _payload(report), elapsed, scn


@pytest.fixture(scope="session")
def rpi_sweep():
    scn = load_scenario("scenarios/rpi_sweep.json")
    report = run_sequence(scn)
    return _payload(report), scn


# -- criteria ---------------------------------------------------------------------


def test_round_flow_oracle(hyp_track, hyp_track_refined):
    """Area-radius trajectory matches s0 e^{t/2}; refinement does not degrade it."""
    def trajectory_error(track):
        s_num = np.sqrt(track.series.area / (4.0 * np.pi))
        return float(np.max(np.abs(s_num / np.exp(0.5 * track.times) - 1.0)))

    err = trajectory_error(hyp_track)
    err_ref = trajectory_error(hyp_track_refined)
    verdict(
        "round-flow oracle (error bound)",
        err <= 1e-4,
        f"max rel error {err:.3e} <= 1e-4",
    )
    # halving dt and doubling the grid must cut the error at the advertised
    # orders unless both runs already sit at the round-off floor
    floor = 1e-12
    ok = err_ref <= max(0.6 * err, floor)
    verdict(
        "round-flow oracle (refinement)",
        ok,
        f"refined {err_ref:.3e} vs base {err:.3e} (floor {floor:.0e})",
    )


def test_hawking_mass_rigidity(hyp_track, adss_track):
    m_hyp = float(np.max(np.abs(hyp_track.series.m_H)))
    m_adss = float(np.max(np.abs(adss_track.series.m_H - 1.0)))
    verdict("mass rigidity (hyperbolic)", m_hyp <= 1e-6, f"max |m_H| = {m_hyp:.3e}")
    verdict("mass rigidity (AdSS m=1)", m_adss <= 1e-3, f"max |m_H - 1| = {m_adss:.3e}")


def test_mass_growth_identity(hyp_track, adss_track, massaspect_track):
    """The discrete growth identity closes at 5e-3 and halves under dt refinement."""
    residuals = {}
    for name, track in (
        ("hyperbolic", hyp_track),
        ("adss", adss_track),
        ("mass-aspect", massaspect_track),
    ):
        residuals[name] = float(np.max(geroch_identity_residual(track).identity))
        verdict(
            f"growth identity ({name})",
            residuals[name] <= 5e-3,
            f"max residual {residuals[name]:.3e} <= 5e-3",
        )

    for name, profile, s0 in (
        ("adss", AdSSProfile(1.0, s_domain=(1.6, 16.0)), 2.0),
        ("mass-aspect", _mass_aspect_profile(0.1), 1.0),
    ):
        surf = make_round(profile, float(profile.radius_from_area_radius(s0)), get_grid(*GRID))
        half = run(profile, surf, T=2.0, dt=DT / 2, snap_every=4000)
        res_half = float(np.max(geroch_identity_residual(half).identity))
        ok = res_half <= max(0.65 * residuals[name], 1e-9)
        verdict(
            f"growth identity halves ({name})",
            ok,
            f"dt/2 residual {res_half:.3e} vs {residuals[name]:.3e}",
        )


def test_curvature_integral_closed_forms(adss_horizon_track):
    """Near-horizon AdSS(1) flow reproduces the r0 = 1 closed forms to 1%."""
    tr = adss_horizon_track
    worst = 0.0
    for t_probe in (0.0, 1.0, 2.0):
        k = int(round(t_probe / tr.dt))
        decay = np.exp(-0.5 * t_probe)
        targets = {
            "I_Rc": (-8.0 * np.pi * decay, tr.series.I_Rc[k]),
            "I_K12": (8.0 * np.pi * decay, tr.series.I_K12[k]),
            "I_H2": (16.0 * np.pi * (1.0 - 2.0 * decay), tr.series.I_H2[k]),
        }
        for name, (want, got) in targets.items():
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
    verdict(
        "curvature-integral closed forms",
        worst <= 1e-2,
        f"worst relative deviation {worst:.3e} <= 1e-2 at t in {{0, 1, 2}}",
    )


def test_geroch_monotonicity_everywhere(
    hyp_track, adss_track, adss_horizon_track, massaspect_track,
    hyp_track_T10, pmt_sweep, rpi_sweep,
):
    """Discrete Hawking mass never drops by more than 1e-8 per step."""
    worst = np.inf
    for track in (hyp_track, adss_track, adss_horizon_track, massaspect_track, hyp_track_T10):
        worst = min(worst, float(np.min(np.diff(track.series.m_H))))
    for payload in (pmt_sweep[0], rpi_sweep[0]):
        for row in payload:
            if row["m_H"] is not None:
                worst = min(worst, float(np.min(np.diff(row["m_H"]))))
    verdict(
        "Geroch monotonicity",
        worst >= -1e-8,
        f"worst per-step mass decrement {worst:.3e} >= -1e-8",
    )


def test_gauss_bonnet():
    prof = HyperbolicProfile()
    grid = get_grid(*GRID)
    rbar = float(np.arcsinh(1.0))
    chi_round = euler_characteristic(geometry(prof, make_round(prof, rbar, grid)))
    worst_graph = 0.0
    for formula in ("ellipsoid", "round"):
        surf = make_graph(prof, grid, rbar, formula, 0.05)
        worst_graph = max(worst_graph, abs(euler_characteristic(geometry(prof, surf)) - 2.0))
    verdict(
        "Gauss-Bonnet (round)",
        abs(chi_round - 2.0) <= 1e-6,
        f"|chi - 2| = {abs(chi_round - 2.0):.3e} <= 1e-6",
    )
    verdict(
        "Gauss-Bonnet (amplitude 0.05 graphs)",
        worst_graph <= 1e-3,
        f"|chi - 2| = {worst_graph:.3e} <= 1e-3",
    )


def test_weak_ricci_pairing_closed_form(hyp_track):
    lhs, rhs = weak_ricci_pairing(hyp_track, ProbeField.constant(), 0.0, 1.0)
    closed = -16.0 * np.pi * (np.e - 1.0)
    rel = abs(lhs - rhs) / abs(lhs)
    bias = abs(lhs - closed) / abs(closed)
    verdict(
        "weak Ricci pairing",
        rel <= 1e-2 and bias <= 1e-2,
        f"|lhs-rhs|/|lhs| = {rel:.3e}, closed-form dev {bias:.3e} <= 1e-2",
    )


def test_pmt_sweep_stability(pmt_sweep):
    payload, elapsed, scn = pmt_sweep
    assert all(row["ok"] for row in payload)
    eps = [row["eps"] for row in payload]
    assert eps == [0.1, 0.05, 0.025, 0.0125, 0.0]

    mh = [row["mH_T"] for row in payload]
    l2 = [row["distances"]["hat_model"] for row in payload]
    ca = [row["c_alpha"] for row in payload]
    gd = [row["gauss_dev"][0.0] for row in payload]

    def strictly_decreasing(xs):
        return all(a > b for a, b in zip(xs, xs[1:]))

    verdict(
        "PMT sweep m_H strictly decreasing",
        strictly_decreasing(mh),
        f"m_H(T) = {['%.3e' % v for v in mh]}",
    )
    verdict(
        "PMT sweep l2(hat, model) strictly decreasing",
        strictly_decreasing(l2),
        f"l2 = {['%.3e' % v for v in l2]}",
    )
    verdict(
        "PMT sweep gauss deviation strictly decreasing",
        strictly_decreasing(gd),
        f"gauss_dev(0) = {['%.3e' % v for v in gd]}",
    )
    verdict(
        "PMT sweep c_alpha strictly decreasing",
        strictly_decreasing(ca),
        f"c_alpha = {['%.3e' % v for v in ca]}",
    )
    verdict(
        "PMT sweep discretization floor",
        l2[-1] <= 1e-5,
        f"l2 at eps = 0 is {l2[-1]:.3e} <= 1e-5",
    )
    verdict("PMT sweep runtime", elapsed <= 300.0, f"{elapsed:.1f} s <= 300 s")


def test_rpi_sweep_stability(rpi_sweep):
    payload, scn = rpi_sweep
    assert all(row["ok"] for row in payload)
    l2 = [row["distances"]["hat_model"] for row in payload]
    ok_dec = all(a > b for a, b in zip(l2, l2[1:]))
    verdict(
        "RPI sweep l2(hat, adss model) strictly decreasing",
        ok_dec,
        f"l2 = {['%.3e' % v for v in l2]}",
    )
    verdict(
        "RPI sweep discretization floor",
        l2[-1] <= 1e-5,
        f"l2 at eps = 0 is {l2[-1]:.3e} <= 1e-5",
    )


def test_pinch_bounds_everywhere(
    hyp_track, adss_track, adss_horizon_track, massaspect_track,
    hyp_track_T10, pmt_sweep, rpi_sweep,
):
    """The metric pinching map stays empty on every acceptance flow."""
    named = {
        "hyperbolic": hyp_track,
        "adss": adss_track,
        "adss-horizon": adss_horizon_track,
        "mass-aspect": massaspect_track,
        "hyperbolic-T10": hyp_track_T10,
    }
    total = 0
    worst = 0.0
    for name, track in named.items():
        rep = pinch_bounds_check(track)
        total += rep.n_violations
        worst = min(worst, rep.worst_lower, rep.worst_upper)
    sweep_ok = all(
        row["pinch_pass"] for payload in (pmt_sweep[0], rpi_sweep[0]) for row in payload
    )
    verdict(
        "pinch bounds",
        total == 0 and sweep_ok,
        f"direct tracks: {total} violations (worst margin {worst:.2e}); "
        f"sweep rows all pass at tol {PINCH_TOL:.0e}",
    )


def test_coordinate_compatibility(hyp_track, hyp_track_refined, hyp_track_T10):
    rep = check_coordinate_compatibility(hyp_track_T10, a=1.0, b=2.0)
    ratio_ok = rep.ratios_ok is True
    c3_ok = rep.C3 <= 1e-10
    w_coarse = w12_normal_ricci(hyp_track, 1.0, 2.0)
    w_fine = w12_normal_ricci(hyp_track_refined, 1.0, 2.0)
    stable = abs(w_fine - w_coarse) / w_coarse <= 1e-2
    verdict(
        "compatibility ratios",
        ratio_ok,
        f"r/t in [{rep.C1:.4f}, {rep.C2:.4f}] within [0.4, 0.8] for t >= 4",
    )
    verdict("compatibility gradient", c3_ok, f"C3 = {rep.C3:.2e} <= 1e-10")
    verdict(
        "compatibility W12 Ricci norm",
        np.isfinite(w_coarse) and stable,
        f"{w_coarse:.6f} vs refined {w_fine:.6f} (rel diff "
        f"{abs(w_fine - w_coarse) / w_coarse:.2e} <= 1e-2)",
    )


def test_determinism_cli(tmp_path):
    scenario = "scenarios/hyperbolic_round.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", scenario, "--out", str(out_a), "--quiet"]) == 0
    assert cli_main(["run", scenario, "--out", str(out_b), "--quiet"]) == 0
    same = (out_a / "hyperbolic-round.csv").read_bytes() == (
        out_b / "hyperbolic-round.csv"
    ).read_bytes()
    verdict("determinism", same, "two runs produced byte-identical CSV")
