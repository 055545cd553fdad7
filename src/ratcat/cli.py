"""Command-line front end: compute, render, verify, and regenerate the
checked-in golden tables.

Exit codes: 0 success, 1 verification failure or a closed output pipe,
2 usage error, 3 computation contract violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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
from .qt import rational_q_catalan
from .verify import reports_to_jsonl, run_sweep

GOLDEN_CAT_FRAMES = [(2, 3), (3, 5), (3, 7), (4, 7), (5, 8)]
GOLDEN_PF_FRAMES = [(2, 3), (2, 5), (3, 5), (4, 7), (5, 3), (5, 8), (7, 4)]


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


def golden_tables(threads=1):
    """Regenerate every golden table; returns {filename: text}.

    Each rational Catalan table is computed from both (a,b) and its
    transposed frame, which must agree.
    """
    def one_cat(frame):
        a, b = frame
        text = matrix_of_poly(cat_qt(a, b)) + "\n"
        twin = matrix_of_poly(cat_qt(b, a)) + "\n"
        if text != twin:
            raise SweepContractError(
                f"Cat tables for ({a},{b}) and ({b},{a}) differ"
            )
        return f"cat_{a}_{b}.txt", text

    def one_pf(frame):
        a, b = frame
        return f"pf_{a}_{b}.txt", render_pf_blocks(pf_qt(a, b)) + "\n"

    tasks = [(one_cat, f) for f in GOLDEN_CAT_FRAMES] + [
        (one_pf, f) for f in GOLDEN_PF_FRAMES
    ]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            pairs = list(pool.map(lambda t: t[0](t[1]), tasks))
    else:
        pairs = [fn(frame) for fn, frame in tasks]
    return dict(pairs)


def _emit(text, out):
    if out:
        with open(out, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _poly_text(p, fmt):
    if fmt == "json":
        return json.dumps(p.to_json())
    return matrix_of_poly(p, "tex" if fmt == "tex" else "plain")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ratcat",
        description="Exact q,t-combinatorics of rational Dyck paths "
                    "and parking functions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--format", choices=["json", "matrix", "tex"],
                        default="matrix")
    common.add_argument("--out", metavar="FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    for name, hlp in [
        ("catqt", "rational q,t-Catalan polynomial"),
        ("pfqt", "Schur expansion of the q,t-parking-function series"),
        ("qcat", "rational q-Catalan polynomial"),
        ("frob", "Frobenius characteristic of parking functions"),
        ("enumerate", "list all (a,b)-Dyck paths"),
    ]:
        p = add_parser(name, help=hlp)
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
    p.add_argument("claim", nargs="?", default="all")
    p.add_argument("--range", type=int, default=10, dest="bound")
    p.add_argument("--timings", action="store_true")

    add_parser("golden", help="regenerate golden tables and diff "
                                  "against the checked-in corpus")

    args = parser.parse_args(argv)

    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; devnull keeps the exit-time flush from failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SweepContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except SchurPositivityError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    fmt = args.format
    if args.command == "catqt":
        _emit(_poly_text(cat_qt(args.a, args.b), fmt), args.out)
    elif args.command == "qcat":
        _emit(_poly_text(rational_q_catalan(args.a, args.b), fmt), args.out)
    elif args.command == "pfqt":
        series = pf_qt(args.a, args.b)
        if fmt == "json":
            _emit(json.dumps(series.to_json()), args.out)
        else:
            _emit(render_pf_blocks(series, "tex" if fmt == "tex" else "plain"),
                  args.out)
    elif args.command == "frob":
        series = {"h": frob_h, "p": frob_p, "s": frob_s}[args.basis](
            args.a, args.b
        )
        _emit(json.dumps(series.to_json()), args.out)
    elif args.command == "enumerate":
        _emit("\n".join(d.word for d in enumerate_dyck(args.a, args.b)),
              args.out)
    elif args.command == "sweep":
        d = DyckPath(args.word, args.a, args.b)
        _emit(sweep(d).word, args.out)
    elif args.command == "zeta":
        r = zeta(from_preference_vector(tuple(args.prefs)))
        _emit(json.dumps({"word": r.word,
                          "diagonal_word": list(r.diagonal_word)}), args.out)
    elif args.command == "verify":
        if args.claim != "all":
            print(f"unknown claim group {args.claim!r}; use 'all'",
                  file=sys.stderr)
            return 2
        reports = run_sweep(limit=args.bound, threads=args.threads)
        _emit(reports_to_jsonl(reports, include_seconds=args.timings),
              args.out)
        if any(not r.passed for r in reports):
            return 1
    elif args.command == "golden":
        tables = golden_tables(threads=args.threads)
        root = _golden_dir()
        bad = []
        for name in sorted(tables):
            path = Path(root, name)
            on_disk = path.read_text() if path.exists() else None
            ok = on_disk == tables[name]
            print(f"{'ok  ' if ok else 'DIFF'} {name}")
            if not ok:
                bad.append(name)
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
