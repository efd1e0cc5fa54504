"""Command line entry point.

    imcf-lab run <scenario-file> [--out DIR] [--workers N] [--quiet]
    imcf-lab verify <scenario-file>
    imcf-lab oracle

``run`` always writes all three reports to the output directory: <id>.csv,
<id>.json and the gnuplot script <id>.gp.

Exit codes: 0 success, 1 scenario error (one line: the file does not parse,
breaks the schema, or its profiles or initial surfaces cannot be built),
2 solver failure or any other fault (one line), 3 IO failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from .ambient import AdSSProfile, HyperbolicProfile, validate_profile
from .errors import DomainError, ImcfLabError, ParseError, ProfileError, ValidationError
from .harness import emit, run_sequence
from .imcf import exact_round_flow
from .scenario import load_scenario


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="imcf-lab", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit reports")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--workers", type=int, default=1, help="row worker budget")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")

    ver_p = sub.add_parser("verify", help="validate a scenario and its profiles")
    ver_p.add_argument("scenario", help="path to a scenario JSON file")

    sub.add_parser("oracle", help="print the closed-form round-flow reference table")
    return p


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    if not args.quiet:
        print(f"running scenario {scn.id!r} "
              f"(grid {scn.n_theta}x{scn.n_phi}, dt {scn.dt:g}, T {scn.T:g})")
    report = run_sequence(scn, workers=max(1, args.workers))
    for rr in report.rows:
        if not args.quiet:
            status = "ok" if rr.ok else f"FAILED ({rr.error})"
            print(f"  row {rr.label}: {status}")

    try:
        written = emit(report, out_dir=args.out)
    except OSError as exc:
        print(f"IO failure: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        for path in written:
            print(f"  wrote {path}")
    return 2 if report.any_failed else 0


def _cmd_verify(args) -> int:
    scn = load_scenario(args.scenario)
    rows = scn.rows()
    ok = True
    print(f"scenario {scn.id!r}: {len(rows)} row(s), grid {scn.n_theta}x{scn.n_phi}, "
          f"dt {scn.dt:g}, T {scn.T:g}, mode {scn.mode}")
    for row in rows:
        rep = validate_profile(row.profile)
        verdict = "pass" if rep.passed else "FAIL"
        print(
            f"  {row.label}: profile {row.profile.kind}, min R = {rep.min_R:.9g} "
            f"(floor {'ok' if rep.r_floor_ok else 'VIOLATED'}), "
            f"warp positivity {'ok' if rep.positivity_ok else 'VIOLATED'} -> {verdict}"
        )
        ok &= rep.passed
    return 0 if ok else 1


def _cmd_oracle(_args) -> int:
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    print("closed-form round-flow reference (s(t) = s0 e^{t/2})")
    for name, profile, s0, m in (
        ("hyperbolic, s0 = 1", HyperbolicProfile(), 1.0, 0.0),
        ("adss m = 1, s0 = 2", AdSSProfile(1.0, s_domain=(1.05, 12.0)), 2.0, 1.0),
    ):
        print(f"\n  {name}")
        print(f"  {'t':>4} {'s(t)':>12} {'H(t)':>12} {'m_H':>8} "
              f"{'I_Rc':>12} {'I_K12':>12} {'I_H2':>12}")
        for t in ts:
            s, H = exact_round_flow(profile, s0, t)
            i_rc = -8.0 * np.pi * m / s + 0.0  # +0.0 avoids printing -0
            i_k12 = 8.0 * np.pi * m / s
            i_h2 = 16.0 * np.pi - 32.0 * np.pi * m / s
            print(f"  {t:4.1f} {float(s):12.8f} {float(H):12.8f} {m:8.3f} "
                  f"{float(i_rc):12.6f} {float(i_k12):12.6f} {float(i_h2):12.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        else:
            code = _cmd_oracle(args)
    except (ParseError, ValidationError, ProfileError, DomainError) as exc:
        # only loading a scenario and building its rows raise these: every
        # row's own failures are caught and reported by the sweep
        print(f"scenario error: {exc}", file=sys.stderr)
        code = 1
    except ImcfLabError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"IO failure: {exc}", file=sys.stderr)
        code = 3
    except Exception as exc:
        # last resort for a fault that is not the package's own: one line
        # naming where it was raised, in place of a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})",
            file=sys.stderr,
        )
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
