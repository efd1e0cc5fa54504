"""Command line entry point.

    imcf-lab run <scenario-file> [--out DIR] [--workers N] [--quiet]
    imcf-lab verify <scenario-file>

``run`` always writes all three reports to the output directory: <id>.csv,
<id>.json and the gnuplot script <id>.gp.  It replaces a report of the same
name, and says so: ``overwrote <path>`` in place of ``wrote <path>``.

Exit codes: 0 success, 1 scenario error (one line: the file does not parse,
breaks the schema, or its profiles or initial surfaces cannot be built),
2 solver failure or any other fault (one line), 3 IO failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .ambient import validate_profile
from .errors import DomainError, ImcfLabError, ParseError, ProfileError, ValidationError
from .harness import emit, report_paths, run_sequence
from .scenario import load_scenario


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="imcf-lab", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit reports")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument(
        "--workers", type=int, default=1,
        help="threads that flow a sweep's batches (its rows that share a flow grid) "
             "concurrently (default: 1)",
    )
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")

    ver_p = sub.add_parser("verify", help="validate a scenario and its profiles")
    ver_p.add_argument("scenario", help="path to a scenario JSON file")
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

    existed = {path for path in report_paths(scn.id, args.out) if path.exists()}
    written = emit(report, out_dir=args.out)
    if not args.quiet:
        for path in written:
            print(f"  {'overwrote' if path in existed else 'wrote'} {path}")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        else:
            code = _cmd_verify(args)
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
