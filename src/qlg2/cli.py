"""Command-line front end: `qlg2 verify` runs named checks, `qlg2 spectrum`
prints the exact eigenvalue table.

Exit codes: 0 all selected checks pass, 1 verification failure, 2 usage
error, 3 internal engine error.  A check that raises is reported with status
"error" and `verify` exits 3 after writing the report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .checks import CHECKS, Context, run_suite
from .parthasarathy import spectrum_growth

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _render_md(results, timings):
    lines = ["| check | status | statement |", "|---|---|---|"]
    for r in results:
        lines.append(f"| {r.check_id} | {r.status} | {r.statement} |")
    n_pass = sum(1 for r in results if r.status == "pass")
    lines.append("")
    lines.append(f"{n_pass}/{len(results)} checks pass")
    for r in results:
        if r.status != "pass":
            lines.append(f"{r.status.upper()} {r.check_id}: {r.residual}")
    if timings:
        lines.append("")
        for r in results:
            lines.append(f"{r.check_id}: {r.elapsed_ms:.0f} ms")
    return "\n".join(lines) + "\n"


def _render_json(results, ctx, timings):
    payload = {
        "schema": "qlg2-check-report/1",
        "seed": ctx.seed,
        "degree_cap": ctx.degree_cap,
        "results": [r.as_dict(timings=timings) for r in results],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _open_out(path):
    """Open the output file before any work runs (stdout without a path);
    None, after printing the reason, when it cannot be opened."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return None


def _cmd_verify(args):
    if args.check != "all" and args.check not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        print(f"unknown check id {args.check!r}; known ids: all, {known}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.degree_cap < 1:
        print("require degree_cap >= 1", file=sys.stderr)
        return EXIT_USAGE
    out = _open_out(args.out)
    if out is None:
        return EXIT_USAGE
    ctx = Context(seed=args.seed, degree_cap=args.degree_cap)
    ids = sorted(CHECKS) if args.check == "all" else [args.check]
    with out as fh:
        results = run_suite(ids, ctx)
        fh.write(_render_json(results, ctx, args.timings) if args.report == "json"
                 else _render_md(results, args.timings))
    statuses = {r.status for r in results}
    if "error" in statuses:
        import traceback  # error branches only: keeps it off the import path

        for r in results:
            if r.exception is not None:
                print(f"check {r.check_id} raised:", file=sys.stderr)
                traceback.print_exception(r.exception)
        return EXIT_INTERNAL
    return EXIT_FAIL if "fail" in statuses else EXIT_PASS


def _cmd_spectrum(args):
    if args.v_den <= 0 or args.v_num <= 0 or args.v_num >= args.v_den:
        print("require 0 < v_num/v_den < 1", file=sys.stderr)
        return EXIT_USAGE
    if args.shell_max < 1:
        print("require shell_max >= 1", file=sys.stderr)
        return EXIT_USAGE
    out = _open_out(args.csv)
    if out is None:
        return EXIT_USAGE
    with out as fh:
        sp = spectrum_growth(Fraction(args.v_num, args.v_den), args.shell_max)
        # one line at a time: the whole table as one string, joined and
        # then encoded, would hold several copies of it at once
        fh.write("n1,n2,c_lambda_exact_num,c_lambda_exact_den,c_lambda_float\n")
        fh.writelines(f"{n1},{n2},{val.numerator},{val.denominator},{float(val)!r}\n"
                      for n1, n2, val in sp.rows)
    mins = ", ".join(f"s={s}: {float(v):.6g}"
                     for s, v in sorted(sp.shell_minima.items()))
    print(f"# shell minima: {mins}")
    print(f"# strictly increasing: {sp.monotone}; all positive: {sp.positive}")
    return EXIT_PASS if (sp.monotone and sp.positive) else EXIT_FAIL


def build_parser():
    p = argparse.ArgumentParser(
        prog="qlg2",
        description="exact verification suite for the Dolbeault-Dirac "
                    "operator on the rank-two quantum Lagrangian Grassmannian")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run named checks or the whole suite")
    v.add_argument("--check", default="all", metavar="ID",
                   help="check id or 'all' (default)")
    v.add_argument("--report", choices=("json", "md"), default="md")
    v.add_argument("--out", metavar="PATH", help="write the report to a file")
    v.add_argument("--seed", type=int, default=20240801,
                   help="seed for the randomized probes")
    v.add_argument("--degree-cap", type=int, default=3,
                   help="radical degree cap for the quotient reduction")
    v.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("spectrum", help="exact Casimir eigenvalue table")
    s.add_argument("--v-num", type=int, required=True)
    s.add_argument("--v-den", type=int, required=True)
    s.add_argument("--shell-max", type=int, required=True)
    s.add_argument("--csv", metavar="PATH", help="write the table as CSV")
    s.set_defaults(fn=_cmd_spectrum)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_INTERNAL
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
