"""Partition statistics: the a x b box as frontier words."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcat.partitions import (
    _word_stats,
    conjugate,
    frame_entries,
    multiplicities,
    normalize,
    partition_of_frontier,
    partitions_of,
    z_lambda,
)
from ratcat.paths import cyclic_shift, levels
from ratcat.verify import _arm_leg_walk

partition_st = st.lists(
    st.integers(0, 6), min_size=0, max_size=6
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def box_words(a, b):
    """The C(a+b, a) words of a N and b E steps, one per a-subset of the
    positions that holds the N steps, in descending lexicographic order."""
    for north in combinations(range(a + b), a):
        word = ["E"] * (a + b)
        for i in north:
            word[i] = "N"
        yield "".join(word)


def frontier_word(mu, a, b):
    """The frontier of mu in the a x b box, built row by row from the
    bottom: the reference partition_of_frontier inverts."""
    mu = normalize(mu)
    padded = mu + (0,) * (a - len(mu))
    steps = []
    x = 0
    for y in range(a):
        target = padded[a - 1 - y]
        steps.append("E" * (target - x))
        steps.append("N")
        x = target
    steps.append("E" * (b - x))
    return "".join(steps)


def test_normalize():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))


@settings(max_examples=50)
@given(partition_st)
def test_conjugate_involution(mu):
    assert conjugate(conjugate(mu)) == normalize(mu)
    assert sum(conjugate(mu)) == sum(mu)


def test_partitions_of_reverse_lex():
    got = list(partitions_of(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_z_lambda():
    assert z_lambda((1, 1, 1)) == 6
    assert z_lambda((3,)) == 3
    assert z_lambda((2, 1)) == 2
    assert multiplicities((2, 2, 1)) == {2: 2, 1: 1}


def test_box_count():
    for s in range(6):
        for r in range(6):
            assert sum(1 for _ in frame_entries(s, r)) == comb(s + r, s)


def test_box_yields_normal_partitions():
    # partition_of_frontier maps the box words one to one onto normal
    # partitions with at most s parts, each at most r
    for s in range(7):
        for r in range(7):
            box = [partition_of_frontier(w, s, r) for w, _ in frame_entries(s, r)]
            assert box == [normalize(mu) for mu in box]
            assert len(set(box)) == len(box)
            assert all(len(mu) <= s and max(mu, default=0) <= r for mu in box)


def test_triangle_3_5():
    table = dict(frame_entries(3, 5))
    got = sorted(partition_of_frontier(w, 3, 5)
                 for w, (_, ml, _, _) in table.items() if ml == 0)
    assert got == [(), (1,), (1, 1), (2,), (2, 1), (3,), (3, 1)]
    assert table[frontier_word((4,), 3, 5)][1] < 0


def test_frontier_examples():
    for mu, a, b, w in [((6, 3, 2), 5, 8, "NNEENENEEENEE"),
                        ((3, 3), 2, 3, "EEENN"), ((), 3, 5, "NNNEEEEE")]:
        assert frontier_word(mu, a, b) == w
        assert partition_of_frontier(w, a, b) == mu
    with pytest.raises(ValueError):
        partition_of_frontier("NNE", 2, 3)


@settings(max_examples=50)
@given(partition_st)
def test_frontier_round_trip(mu):
    mu = normalize(mu)
    a = max(len(mu), 1)
    b = max(mu[0] if mu else 0, 1)
    assert partition_of_frontier(frontier_word(mu, a, b), a, b) == mu


def test_h_statistics_example():
    w = frontier_word((6, 3, 2), 5, 8)
    size, _, hp, hm = dict(frame_entries(5, 8))[w]
    assert (size, hp, hm) == (11, 9, 9)
    assert {v: (p, m) for v, p, m in _arm_leg_walk(5, 8)}[w] == (9, 9)
    assert _old_h_pair((6, 3, 2), 5, 8) == (9, 9)


def test_h_via_levels_agrees():
    # the level counts of the box walk against the arm/leg row walk
    for a, b in [(2, 3), (3, 5), (4, 6), (5, 8)]:
        walks = zip(frame_entries(a, b), _arm_leg_walk(a, b), strict=True)
        for (w, (_, _, hp, hm)), (arm_w, arm_hp, arm_hm) in walks:
            assert arm_w == w
            assert (arm_hp, arm_hm) == (hp, hm), (w, a, b)


def test_min_level():
    assert dict(frame_entries(2, 3))["EEENN"][1] == -6
    # ml == 0 exactly on the triangle: a * mu_j <= b * (a - j) on each row j
    for a, b in [(3, 5), (4, 6), (5, 3), (4, 7)]:
        for w, (_, ml, _, _) in frame_entries(a, b):
            mu = partition_of_frontier(w, a, b)
            under = all(a * p <= b * (a - j) for j, p in enumerate(mu, start=1))
            assert (ml == 0) == under, (mu, a, b)


def test_cyclic_shift_orbits():
    # the orbit of the empty partition in the 2 x 3 box, worked by hand: the
    # shifts in order, their partitions and (|mu|, ml, h+, h-); each shift's
    # h+ is the rank of -ml among the levels 0, 3, 6, 4, 2 of NNEEE
    table = dict(frame_entries(2, 3))
    members = [cyclic_shift("NNEEE", k) for k in range(5)]
    assert members == ["NNEEE", "NEEEN", "EEENN", "EENNE", "ENNEE"]
    assert [partition_of_frontier(w, 2, 3) for w in members] == [
        (), (3,), (3, 3), (2, 2), (1, 1)]
    assert [table[w] for w in members] == [
        (0, 0, 0, 0), (3, -3, 2, 2), (6, -6, 4, 4), (4, -4, 3, 3), (2, -2, 1, 1)]
    rank = {lv: i for i, lv in enumerate(sorted(levels("NNEEE", 2, 3)[:5]))}
    assert [rank[-table[w][1]] for w in members] == [table[w][2] for w in members]


def test_orbit_decompose_covers_box():
    # the a+b cyclic shifts of each triangle word are distinct, hold no
    # other triangle word and have |mu| + ml = |mu0|; the orbits cover the
    # box, one after another without overlap
    for a, b in [(2, 3), (3, 5), (4, 7), (5, 8)]:
        table = dict(frame_entries(a, b))
        seen = set()
        for w0, (size0, ml0, _, _) in table.items():
            if ml0:
                continue
            members = {cyclic_shift(w0, k) for k in range(a + b)}
            assert len(members) == a + b
            assert [w for w in members if table[w][1] == 0] == [w0]
            assert all(table[w][0] + table[w][1] == size0 for w in members)
            assert not members & seen
            seen |= members
        assert seen == set(box_words(a, b))


# -- the routes the box walk replaced, kept as the reference ----------------


def _old_h_via_levels(w, a, b, sign):
    lv = levels(w, a, b)
    n = len(w)
    count = 0
    for i in range(1, n + 1):
        if w[i - 1] != "E":
            continue
        for j in range(i + 1, n + 1):
            if w[j - 1] != "N":
                continue
            diff = lv[i - 1] - lv[j - 1] if sign == "+" else lv[j] - lv[i]
            if 1 <= diff <= a + b:
                count += 1
    return count


def frame_stats(a, b):
    """{frontier word: (|mu|, ml, h+, h-)} for every partition in the
    a x b box, in frame_entries order (descending lexicographic words); the
    triangle is where ml == 0."""
    return dict(frame_entries(a, b))


def test_frame_stats_matches_the_replaced_routes():
    for a in range(1, 8):
        for b in range(1, 8):
            table = frame_stats(a, b)
            assert list(table) == list(box_words(a, b))
            for w, stats in table.items():
                mu = partition_of_frontier(w, a, b)
                assert frontier_word(mu, a, b) == w
                assert stats == (
                    sum(mu),
                    min(levels(w, a, b)),
                    _old_h_via_levels(w, a, b, "+"),
                    _old_h_via_levels(w, a, b, "-"),
                )


def test_frame_walk_matches_the_per_word_table():
    # the prefix-sharing walk against one _word_stats pass per box word
    frames = [(a, b) for a in range(9) for b in range(9)] + [(9, 10)]
    for a, b in frames:
        walked = list(frame_entries(a, b))
        words = list(box_words(a, b))
        assert len(words) == comb(a + b, a), (a, b)
        assert walked == [(w, _word_stats(w, a, b)) for w in words], (a, b)


# -- the cell-by-cell arm/leg count the row walks replaced ------------------


def _old_h_pair(mu, a, b):
    """(h+, h-) of mu cell by cell: each cell's arm and leg read off mu and
    its conjugate."""
    conj = conjugate(mu)
    hp = hm = 0
    for i, p in enumerate(mu, start=1):
        for j in range(1, p + 1):
            v = a * (p - j) - b * (conj[j - 1] - i)
            if -a < v <= b:
                hp += 1
            if -a <= v < b:
                hm += 1
    return hp, hm


ARM_LEG_FRAMES = [(a, b) for a in range(1, 9) for b in range(1, 9)] + [(9, 10)]


def test_arm_leg_routes_match_the_cell_by_cell_count():
    # the row walk lays rows on column heights and yields the frontier word
    # of every mu of the box, in frame_entries order
    for a, b in ARM_LEG_FRAMES:
        walked = list(_arm_leg_walk(a, b))
        assert [w for w, _, _ in walked] == [w for w, _ in frame_entries(a, b)]
        for w, hp, hm in walked:
            mu = partition_of_frontier(w, a, b)
            assert (hp, hm) == _old_h_pair(mu, a, b), (mu, a, b)
    for b in range(4):  # a = 0: the empty partition only
        assert list(_arm_leg_walk(0, b)) == [("E" * b, 0, 0)]
