"""Traced run of one ratcat command, with spans recorded from outside.

Usage: python3 perfbench/tracing.py DUMP.json RATCAT-ARGS...

Imports ratcat, wraps the public functions of each layer (rebinding every
name under which a ratcat module imported them, and patching LaurentQT and
VarPoly methods on the class), runs `ratcat.cli.main(RATCAT-ARGS)` and
writes per-span totals to DUMP.json when the command has finished.

A span's self time is its duration minus the time its child spans cover.
Spans keep their parent on a per-thread stack. A wrapped generator is timed
only while it produces an item. Fine-grained spans run into the millions on
a sweep, so each one is folded into per-name totals when it closes; only
the per-check spans of `ratcat verify` are kept whole.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# span name -> "module:attribute" under ratcat, or a tuple of them. An
# attribute of a class is patched on the class, under every name that holds
# the same function.
SPANS = {
    "qt.mul": "qt:LaurentQT.__mul__",
    "qt.add": "qt:LaurentQT.__add__",
    "qt.exact_divide": "qt:LaurentQT.exact_divide",
    "qt.q_binomial": "qt:q_binomial",
    "qt.rational_q_catalan": "qt:rational_q_catalan",
    "paths.sweep": "paths:sweep",
    "paths.area": "paths:area",
    "partitions.h_plus": "partitions:h_plus",
    "partitions.h_minus": "partitions:h_minus",
    "partitions.min_level": "partitions:min_level",
    "partitions.h_via_levels": "partitions:h_via_levels",
    "partitions.lem3_check": "partitions:lem3_check",
    "parking.dinv_rational": "parking:dinv_rational",
    "parking.stretch_to_ppp": "parking:stretch_to_ppp",
    "parking.drw_rational": "parking:drw_rational",
    "parking.max_stretched_dinv": "parking:max_stretched_dinv",
    "symfunc.expand_fundamental": "symfunc:expand_fundamental",
    "symfunc.varpoly_mul": "symfunc:VarPoly.__mul__",
    "symfunc.varpoly_add": "symfunc:VarPoly.__add__",
    "symfunc.varpoly_to_m": "symfunc:varpoly_to_m",
    "symfunc.basis_convert": "symfunc:basis_convert",
    "frob.pf_qt": "frob:pf_qt",
    "frob.hilb": "frob:hilb",
    "frob.cat_qt": "frob:cat_qt",
    "frob.frob_via_genfunc": "frob:frob_via_genfunc",
    "frob.matrix_of_poly": "frob:matrix_of_poly",
    "cli.golden_tables": "cli:golden_tables",
    "cli.render_pf_blocks": "cli:render_pf_blocks",
    # JSONL encoding and printing
    "cli.emit": ("cli:_emit", "verify:reports_to_jsonl"),
}
# timed only while producing an item; `items` counts what they yield
GENERATORS = {
    "paths.enumerate_dyck": "paths:enumerate_dyck",
    "partitions.enumerate_box": "partitions:enumerate_box",
    "partitions.enumerate_triangle": "partitions:enumerate_triangle",
    "parking.labelings_of": "parking:labelings_of",
}
# counted, not timed: they run too often for a span to be cheap enough
COUNTED = {
    "partitions.normalize.calls": "partitions:normalize",
    "paths.dyckpath_builds": "paths:DyckPath.__post_init__",
    "parking.pf_builds": "parking:ParkingFunction.__post_init__",
}
RENDERINGS = ("frob.matrix_of_poly", "cli.render_pf_blocks")


def _now():
    # CLOCK_MONOTONIC is shared by all processes, so the parent can compare
    # these stamps with its own
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _ThreadState:
    def __init__(self):
        self.stack = []  # [name, time covered by child spans]
        self.totals = {}  # name -> [calls, items, seconds, self seconds, extra]
        self.counts = {}
        self.checks = []  # (claim, seconds) for each verify check


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self.first_output_done = None
        self.seen_paths = set()
        self.repeats = 0

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _enter(self, name):
        state = self._state()
        state.stack.append([name, 0.0])
        return state, _now()

    def _leave(self, state, name, t0, calls=1, items=0, extra=0):
        end = _now()
        duration = end - t0
        _, covered = state.stack.pop()
        parent = state.stack[-1] if state.stack else None
        if parent:
            parent[1] += duration
        tot = state.totals.get(name)
        if tot is None:
            tot = state.totals[name] = [0, 0, 0.0, 0.0, 0]
        tot[0] += calls
        tot[1] += items
        tot[2] += duration
        tot[3] += duration - covered
        tot[4] += extra
        if self.first_output_done is None and _is_output_unit(
                name, parent[0] if parent else None):
            self.first_output_done = end
        return duration

    def span(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(state, name, t0,
                            extra=extra(*args) if extra else 0)
        return wrapper

    def generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self._state().totals.setdefault(name, [0, 0, 0.0, 0.0, 0])[0] += 1
            try:
                while True:
                    state, t0 = self._enter(name)
                    produced = False
                    try:
                        item = next(it)
                        produced = True
                    except StopIteration:
                        return
                    finally:
                        self._leave(state, name, t0, calls=0, items=int(produced))
                    yield item
            finally:
                it.close()
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def check(self, fn):
        """A verify checker: one kept span per check, named by its claim."""
        name = "verify." + fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, t0 = self._enter(name)
            report = None
            try:
                report = fn(*args, **kwargs)
                return report
            finally:
                duration = self._leave(state, name, t0)
                claim = getattr(report, "claim", fn.__name__)
                state.checks.append((claim, duration))
        return wrapper

    def dump(self):
        totals, counts, checks = {}, {}, []
        for state in self._states:
            for name, tot in state.totals.items():
                acc = totals.setdefault(name, [0, 0, 0.0, 0.0, 0])
                for i, v in enumerate(tot):
                    acc[i] += v
            for name, n in state.counts.items():
                counts[name] = counts.get(name, 0) + n
            checks.extend(state.checks)
        from ratcat.symfunc import kostka

        kostka = kostka.cache_info()
        return {
            "totals": totals,
            "counts": counts,
            "checks": checks,
            "first_output_done": self.first_output_done,
            "kostka": {"hits": kostka.hits, "misses": kostka.misses},
            "max_stretched_dinv_repeats": self.repeats,
        }

    def count_repeat_path(self, d, *_):
        """Extra for max_stretched_dinv: counts calls on a path seen before."""
        key = (d.word, d.a, d.b)
        with self._lock:
            if key in self.seen_paths:
                self.repeats += 1
            else:
                self.seen_paths.add(key)
        return 0


def _is_output_unit(name, parent):
    """True for a span whose end completes one unit of the command's output:
    a verify check, a golden table's rendering, or a top-level pf_qt."""
    if name.startswith("verify.check"):
        return True
    if parent == "cli.golden_tables":
        return name in RENDERINGS
    return name == "frob.pf_qt" and parent is None


def _replace(owner, original, replacement):
    """Point every name bound to `original` at `replacement`: on a class,
    its attributes; otherwise the globals of every ratcat module."""
    if isinstance(owner, type):
        scopes = [owner]
    else:
        scopes = [m for n, m in list(sys.modules.items())
                  if n == "ratcat" or n.startswith("ratcat.")]
    for scope in scopes:
        for attr, value in list(vars(scope).items()):
            if value is original:
                setattr(scope, attr, replacement)


def _lookup(path):
    """(owner, function) for "module:attribute"; function None if absent."""
    modname, _, attr = path.partition(":")
    owner = importlib.import_module("ratcat." + modname)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, vars(owner).get(last)


def _term_count(x):
    terms = getattr(x, "_terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


def install(tracer):
    """Wrap every traced function; a name missing from ratcat is skipped."""
    import ratcat.symfunc
    import ratcat.verify

    varpoly = ratcat.symfunc.VarPoly
    extras = {
        "qt.mul": lambda x, y: len(x._terms) * _term_count(y),
        "symfunc.varpoly_mul": lambda x, y: len(x.terms) * (
            len(y.terms) if isinstance(y, varpoly) else 1),
        "parking.max_stretched_dinv": tracer.count_repeat_path,
    }
    for table, wrap in ((SPANS, lambda n, f: tracer.span(n, f, extras.get(n))),
                        (GENERATORS, tracer.generator),
                        (COUNTED, tracer.counter)):
        for name, paths in table.items():
            for path in (paths,) if isinstance(paths, str) else paths:
                owner, fn = _lookup(path)
                if fn is not None:
                    _replace(owner, fn, wrap(name, fn))
    for attr, fn in list(vars(ratcat.verify).items()):
        if attr.startswith("check_") and callable(fn):
            _replace(ratcat.verify, fn, tracer.check(fn))


def main(argv):
    dump_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import ratcat.cli

    code = ratcat.cli.main(args)
    sys.stdout.flush()
    with open(dump_path, "w") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
