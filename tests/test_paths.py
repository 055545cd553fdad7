"""Lattice paths: levels, enumeration, area, runs, sweep, maj."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcat.cli import main
from ratcat.paths import (
    DyckPath,
    SweepContractError,
    area,
    count_by_runs,
    count_dyck,
    east_counts,
    enumerate_dyck,
    levels,
    maj,
    run_structure,
    sweep,
)

COPRIME = [(1, 1), (1, 4), (2, 3), (3, 2), (3, 5), (5, 3), (4, 7), (5, 8)]


def test_levels_example():
    assert levels("NNEENENEEENEE", 5, 8) == [
        0, 8, 16, 11, 6, 14, 9, 17, 12, 7, 2, 10, 5, 0,
    ]


def test_dyck_validation():
    DyckPath("NNENNEENEEEEE", 5, 8)
    with pytest.raises(ValueError):
        DyckPath("ENNEE", 2, 3)  # dips below
    with pytest.raises(ValueError):
        DyckPath("NNEEE", 3, 2)  # wrong counts


def test_enumeration_matches_count():
    for a, b in COPRIME:
        got = list(enumerate_dyck(a, b))
        assert len(got) == count_dyck(a, b)
        assert len({d.word for d in got}) == len(got)


def test_enumerate_dyck_rejects_negative_counts():
    # a negative count used to recurse until RecursionError; the walk and
    # its recursive reference raise at the call, before any iteration
    for walk in (enumerate_dyck, _enumerate_dyck_recursive):
        for a, b in [(-1, 3), (3, -1), (-2, -2)]:
            with pytest.raises(ValueError, match="nonnegative"):
                walk(a, b)
        assert [d.word for d in walk(0, 3)] == ["EEE"]
        assert [d.word for d in walk(0, 0)] == [""]


def _enumerate_dyck_recursive(a, b):
    """enumerate_dyck as it was before the explicit-stack walk: a recursive
    generator over the steps, N first, on one shared buffer."""
    if a < 0 or b < 0:
        raise ValueError(f"step counts must be nonnegative, got ({a},{b})")
    buf = []

    def rec(n_left, e_left, level):
        if n_left == 0 and e_left == 0:
            yield DyckPath._trusted("".join(buf), a, b)
            return
        if n_left:
            buf.append("N")
            yield from rec(n_left - 1, e_left, level + b)
            buf.pop()
        if e_left and level - a >= 0:
            buf.append("E")
            yield from rec(n_left, e_left - 1, level - a)
            buf.pop()

    return rec(a, b, 0)


@pytest.mark.parametrize("a", range(10))
def test_enumerate_dyck_matches_the_recursive_walk(a):
    # every frame a, b <= 9, gcd > 1 included: the same words in the same
    # order, each path equal to the one built with validation
    for b in range(10):
        words = [d.word for d in _enumerate_dyck_recursive(a, b)]
        assert list(enumerate_dyck(a, b)) == [DyckPath(w, a, b) for w in words]


def _dyck_words_by_filter(a, b):
    """The (a,b)-Dyck words in lex order with N < E, found without the walk:
    every word of a N's and b E's, taken by the positions of its N steps in
    combination order, kept when no level is negative."""
    out = []
    for north in itertools.combinations(range(a + b), a):
        word = "".join("N" if i in north else "E" for i in range(a + b))
        if min(levels(word, a, b)) >= 0:
            out.append(word)
    return out


@pytest.mark.parametrize("a", range(9))
def test_trusted_paths_of_enumerate_dyck_match_validated_ones(a):
    # enumerate_dyck builds its paths unchecked; every frame a, b <= 8,
    # gcd > 1 included, must give the same words in the same order, each
    # equal to the path built with validation
    for b in range(9):
        got = list(enumerate_dyck(a, b))
        assert [d.word for d in got] == _dyck_words_by_filter(a, b)
        for d in got:
            built = DyckPath(d.word, a, b)
            assert type(d) is DyckPath and d == built
            assert vars(d) == vars(built)


def test_the_boundaries_still_validate(capsys):
    with pytest.raises(ValueError, match="dips below"):
        DyckPath("NEN", 2, 1)
    assert main(["sweep", "NEN", "2", "1"]) == 2
    assert capsys.readouterr().err == "error: NEN dips below the (2,1) diagonal\n"


def test_area_examples():
    assert area(DyckPath("NNENNEENEEEEE", 5, 8)) == 9
    assert area(DyckPath("NNENNEENEE", 5, 5)) == 5
    for a, b in COPRIME:
        assert area(DyckPath("N" * a + "E" * b, a, b)) == (a - 1) * (b - 1) // 2
        staircase = min(area(d) for d in enumerate_dyck(a, b))
        assert staircase == 0


def test_east_counts():
    assert east_counts("NNENNEENEEEEE") == [0, 0, 1, 1, 3]


def test_run_structure():
    assert run_structure("NNENNEENEEEEE") == (5, 1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        run_structure("NNE" + "N")  # must end in E


def test_count_by_runs_partition_of_total():
    for a, b in [(3, 5), (4, 7), (5, 8)]:
        seen = {}
        for d in enumerate_dyck(a, b):
            m = run_structure(d.word)
            seen[m] = seen.get(m, 0) + 1
        for m, c in seen.items():
            assert count_by_runs(a, b, m) == c


def test_sweep_examples():
    assert sweep(DyckPath("NENEENEE", 3, 5)).word == "NNNEEEEE"
    assert sweep(DyckPath("NENENEEE", 3, 5)).word == "NNENEEEE"
    assert sweep(DyckPath("NNENNEENEEEEE", 5, 8)).word == "NENENEENNEEEE"


def test_sweep_full_3_5_table():
    table = {
        "NENENEEE": "NNENEEEE",
        "NNENEEEE": "NENENEEE",
        "NENEENEE": "NNNEEEEE",
        "NNNEEEEE": "NENEENEE",
        "NENNEEEE": "NNEEENEE",
        "NNEEENEE": "NNEENEEE",
        "NNEENEEE": "NENNEEEE",
    }
    for src, dst in table.items():
        assert sweep(DyckPath(src, 3, 5)).word == dst


def test_sweep_requires_coprime():
    with pytest.raises(ValueError):
        sweep(DyckPath("NNEE", 2, 2))


def test_sweep_is_injective_small():
    for a, b in COPRIME:
        images = {sweep(d).word for d in enumerate_dyck(a, b)}
        assert len(images) == count_dyck(a, b)


def test_sweep_contract_error_type():
    assert issubclass(SweepContractError, RuntimeError)


def cyclic_shift(word, k):
    """Rotate left by k (mod length): the word-level reference for the bit
    rotations thm_ratcat and lem_cyc_shift apply to frontier codes."""
    if not word:
        return word
    k %= len(word)
    return word[k:] + word[:k]


@settings(max_examples=50)
@given(st.text(alphabet="NE", min_size=1, max_size=12), st.integers(0, 11))
def test_cyclic_shift_round_trip(w, k):
    assert cyclic_shift(cyclic_shift(w, k), len(w) - k % len(w)) == w


def test_maj_and_dyck_words():
    paths = list(enumerate_dyck(3, 3))
    assert len(paths) == 5
    assert maj(DyckPath("NENNEE", 3, 3)) == 2  # E then N at position 2
    assert [maj(d) for d in paths] == [0, 3, 4, 2, 6]
    for n in range(1, 8):
        for d in enumerate_dyck(n, n):
            # the valleys EN, each at the position of its E
            valleys = [m.start() + 1 for m in re.finditer("(?=EN)", d.word)]
            assert maj(d) == sum(valleys), d.word
    with pytest.raises(ValueError):
        DyckPath("NEEN", 2, 2)  # the prefix NEE dips below the diagonal
