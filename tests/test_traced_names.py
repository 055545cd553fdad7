"""Tooling guard: the names that perfbench/tracing.py wraps or reads still
exist.

The tracer skips a target it cannot find, so renaming a function it wraps
(`cli._emit`, `verify.reports_to_jsonl`, `DyckPath.__post_init__`, ...)
would read 0 in that per-layer metric without a warning. The tracer's
tables are read from its source, which is neither imported as a module nor
written to.
"""

import sys
from pathlib import Path

import ratcat.symfunc
import ratcat.verify
from ratcat.verify import CLAIMS, run_sweep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets whose function src/ no longer has, so their metrics read 0; each
# goes from here when the benchmark drops it
KNOWN_DEAD = {
    "partitions:h_plus",
    "partitions:h_minus",
    "partitions:min_level",
    "partitions:h_via_levels",
    "partitions:lem3_check",
    "partitions:enumerate_box",
    "partitions:enumerate_triangle",
    "parking:dinv_rational",
    "parking:stretch_to_ppp",
    "parking:drw_rational",
    "parking:max_stretched_dinv",
    "symfunc:expand_fundamental",
    "frob:hilb",
}


def _tracing():
    """The tracer's module namespace, run from its source."""
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_target_resolves_but_the_known_dead():
    tracing = _tracing()
    targets = [path for table in ("SPANS", "GENERATORS", "COUNTED")
               for paths in tracing[table].values()
               for path in ((paths,) if isinstance(paths, str) else paths)]
    missing = {path for path in targets if tracing["_lookup"](path)[1] is None}
    assert missing == KNOWN_DEAD


def test_the_tracer_finds_varpoly_and_every_checker():
    assert isinstance(ratcat.symfunc.VarPoly, type)
    # install() wraps each module-level check_* and names its span after it
    checkers = {attr: fn for attr, fn in vars(ratcat.verify).items()
                if attr.startswith("check_") and callable(fn)}
    assert all(fn.__name__ == attr for attr, fn in checkers.items())
    assert sorted(fn.claim for fn in checkers.values()) == sorted(CLAIMS)


def test_the_tracer_finds_the_kostka_cache():
    # dump() reads symfunc.kostka.cache_info() for its hit and miss counts
    info = ratcat.symfunc.kostka.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_the_installed_tracer_names_every_claim_of_a_sweep(monkeypatch):
    # install() rebinds names in every ratcat module and patches methods on
    # their classes; each function-valued name is set to itself first, so
    # that monkeypatch puts every one back afterwards
    for name, module in list(sys.modules.items()):
        if name == "ratcat" or name.startswith("ratcat."):
            for owner in [module, *(v for v in vars(module).values()
                                    if isinstance(v, type)
                                    and v.__module__ == name)]:
                for attr, value in list(vars(owner).items()):
                    if callable(value) and not isinstance(value, type):
                        monkeypatch.setattr(owner, attr, value)
    tracing = _tracing()
    tracer = tracing["Tracer"]()
    tracing["install"](tracer)
    # the box and cat claims run in shared-walk jobs, through the tracer's
    # rebound check_* like every other claim
    assert all(r.passed for r in run_sweep(2))
    assert {claim for claim, _ in tracer.dump()["checks"]} == set(CLAIMS)
