"""Command-line front end: compute, render, verify, and regenerate the
checked-in golden tables.

`verify` runs its checks on `--threads` processes (default: the usable
processors) and writes one JSONL line per check, in order, as soon as it
is done; `verify <claim>` runs only that claim's checks. `golden` likewise
computes one table at a time and writes its `ok` or `DIFF` line as soon as
that table is known.

Exit codes: 0 success, 1 verification failure or a closed output pipe,
2 bad user input (found before any computation starts), 3 computation
contract violation (including a ValueError raised on valid input) or a
crashed check. Since `verify` and `golden` stream, exit 3 may follow lines
already written.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing, nullcontext
from math import gcd

from .frob import (
    SchurPositivityError,
    cat_qt,
    frob_h,
    frob_p,
    frob_s,
    matrix_of_poly,
    pf_qt,
)
from .parking import from_preference_vector, zeta
from .paths import DyckPath, SweepContractError, enumerate_dyck, sweep
from .qt import ExactDivisionError, rational_q_catalan

GOLDEN_CAT_FRAMES = [(2, 3), (3, 5), (3, 7), (4, 7), (5, 8)]
GOLDEN_PF_FRAMES = [(2, 3), (2, 5), (3, 5), (4, 7), (5, 3), (5, 8), (7, 4)]


class _UsageError(Exception):
    """Bad user input, reported as exit 2."""


def _golden_dir():
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "golden")


def render_pf_blocks(series, style="plain"):
    """One block per Schur component: '[parts]' header then its matrix."""
    parts = []
    for lam, c in series.coeffs:
        parts.append("[" + " ".join(map(str, lam)) + "]\n"
                     + matrix_of_poly(c, style))
    return "\n\n".join(parts)


def golden_tables():
    """Regenerate the golden tables one at a time: yields (filename, text)
    in filename order, the Cat tables first.

    Each rational Catalan table is computed from both (a,b) and its
    transposed frame, which must agree before it is yielded.
    """
    for a, b in GOLDEN_CAT_FRAMES:
        text = matrix_of_poly(cat_qt(a, b)) + "\n"
        if matrix_of_poly(cat_qt(b, a)) + "\n" != text:
            raise SweepContractError(
                f"Cat tables for ({a},{b}) and ({b},{a}) differ"
            )
        yield f"cat_{a}_{b}.txt", text
    for a, b in GOLDEN_PF_FRAMES:
        yield f"pf_{a}_{b}.txt", render_pf_blocks(pf_qt(a, b)) + "\n"


def _json(obj):
    import json  # here: only the commands that print JSON load it

    return json.dumps(obj)


def _poly_text(p, fmt):
    if fmt == "json":
        return _json(p.to_json())
    return matrix_of_poly(p, "tex" if fmt == "tex" else "plain")


def _emit(text, out):
    """Write a command's one result, a newline after it."""
    print(text, file=out)


def _output(path):
    """The file --out names, opened for writing, or stdout where there is
    none; a path that cannot be written is bad input."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ratcat",
        description="Exact q,t-combinatorics of rational Dyck paths "
                    "and parking functions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # macOS and Windows have no sched_getaffinity
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    common.add_argument("--threads", type=int, default=usable,
                        help="processes verify runs its checks on "
                             "(default: the usable processors)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, fmt=False, out=True, **kw):
        """A subcommand with --threads, plus --format where fmt (the
        commands that render one polynomial or series) and --out where out
        (every command that writes its result)."""
        p = sub.add_parser(name, parents=[common], **kw)
        if fmt:
            p.add_argument("--format", choices=["json", "matrix", "tex"],
                           default="matrix")
        if out:
            p.add_argument("--out", metavar="FILE")
        return p

    for name, hlp in [
        ("catqt", "rational q,t-Catalan polynomial"),
        ("pfqt", "Schur expansion of the q,t-parking-function series"),
        ("qcat", "rational q-Catalan polynomial"),
        ("frob", "Frobenius characteristic of parking functions"),
        ("enumerate", "list all (a,b)-Dyck paths"),
    ]:
        p = add_parser(name, fmt=name in ("catqt", "pfqt", "qcat"), help=hlp)
        p.add_argument("a", type=int)
        p.add_argument("b", type=int)
        if name == "frob":
            p.add_argument("--basis", choices=["h", "p", "s"], default="s")

    p = add_parser("sweep", help="apply the sweep map to a path word")
    p.add_argument("word")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add_parser("zeta", help="zeta image of a classical parking "
                                    "function given by its preference vector")
    p.add_argument("prefs", type=int, nargs="+")

    p = add_parser("verify", help="run claim checkers")
    p.add_argument("claim", nargs="?", default="all",
                   help="one claim name, or 'all' (the default)")
    p.add_argument(
        "--range", type=int, default=10, dest="bound",
        help="largest a and b (default 10, at least 1) of the claims that "
             "grow with it; the others run at fixed frames (README names "
             "both)")
    p.add_argument("--timings", action="store_true",
                   help="add each check's seconds, the peak RSS so far and "
                        "the objects it enumerated (see README)")

    add_parser("golden", out=False, help="regenerate golden tables and "
                                         "diff against the checked-in corpus")

    args = parser.parse_args(argv)

    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; devnull keeps the exit-time flush from failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SweepContractError, SchurPositivityError, AssertionError,
            ExactDivisionError, ValueError) as exc:
        # the input passed _dispatch's checks, so the computation is at fault
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


def _dispatch(args):
    """Validate the user's input and open --out, then run the command. Every
    check on the input raises _UsageError; what a computation raises is not
    the user's."""
    if args.threads < 1:
        raise _UsageError(f"--threads {args.threads} must be at least 1")
    if hasattr(args, "a"):
        if args.a <= 0 or args.b <= 0:
            raise _UsageError(f"frame ({args.a},{args.b}) must be positive")
        # enumerate lists the Dyck paths of any frame; every other command
        # is defined for coprime frames only
        if args.command != "enumerate" and gcd(args.a, args.b) != 1:
            raise _UsageError(f"frame ({args.a},{args.b}) must be coprime")
    try:
        if args.command == "sweep":
            args.path = DyckPath(args.word, args.a, args.b)
        elif args.command == "zeta":
            args.pf = from_preference_vector(tuple(args.prefs))
    except ValueError as exc:
        raise _UsageError(exc) from None
    if args.command == "verify":
        # imported here: compiling it adds to every other command's peak RSS
        from .verify import CLAIMS

        if args.claim != "all" and args.claim not in CLAIMS:
            raise _UsageError(f"unknown claim {args.claim!r}; valid claims: "
                              + ", ".join(["all", *CLAIMS]))
        if args.bound < 1:
            raise _UsageError(f"--range {args.bound} must be at least 1")
    with _output(getattr(args, "out", None)) as out:
        return _run(args, out)


def _run(args, out):
    """Compute what the validated command asks for and write it to out."""
    if args.command == "catqt":
        _emit(_poly_text(cat_qt(args.a, args.b), args.format), out)
    elif args.command == "qcat":
        _emit(_poly_text(rational_q_catalan(args.a, args.b), args.format),
              out)
    elif args.command == "pfqt":
        series = pf_qt(args.a, args.b)
        if args.format == "json":
            _emit(_json(series.to_json()), out)
        else:
            style = "tex" if args.format == "tex" else "plain"
            _emit(render_pf_blocks(series, style), out)
    elif args.command == "frob":
        series = {"h": frob_h, "p": frob_p, "s": frob_s}[args.basis](
            args.a, args.b
        )
        _emit(_json(series.to_json()), out)
    elif args.command == "enumerate":
        _emit("\n".join(d.word for d in enumerate_dyck(args.a, args.b)),
              out)
    elif args.command == "sweep":
        _emit(sweep(args.path).word, out)
    elif args.command == "zeta":
        r = zeta(args.pf)
        _emit(_json({"word": r.word, "diagonal_word": list(r.diagonal_word)}),
              out)
    elif args.command == "verify":
        from .verify import reports_to_jsonl, run_sweep

        code = 0
        with closing(run_sweep(args.bound, args.claim, args.threads)) as reps:
            for report in reps:
                out.write(reports_to_jsonl([report], args.timings) + "\n")
                out.flush()
                if report.error is not None:
                    sys.stderr.write(report.error)
                    code = 3
                elif not report.passed:
                    code = max(code, 1)
        return code
    elif args.command == "golden":
        root = _golden_dir()
        code = 0
        for name, text in golden_tables():
            try:
                with open(os.path.join(root, name)) as f:
                    ok = f.read() == text
            except FileNotFoundError:
                ok = False
            print(f"{'ok  ' if ok else 'DIFF'} {name}", file=out, flush=True)
            if not ok:
                code = 1
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
