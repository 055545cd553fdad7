"""Partition statistics: frontiers, h windows, orbits."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcat.partitions import (
    _h_pair,
    _word_stats,
    arm_leg,
    conjugate,
    cshift_partition,
    enumerate_box,
    enumerate_triangle,
    frame_entries,
    frontier,
    h_minus,
    h_plus,
    h_via_levels,
    in_triangle,
    lem3_check,
    min_level,
    multiplicities,
    normalize,
    orbit,
    orbit_decompose,
    partition_of_frontier,
    partitions_of,
    size,
    z_lambda,
)
from ratcat.paths import levels
from ratcat.verify import _arm_leg_walk

partition_st = st.lists(
    st.integers(0, 6), min_size=0, max_size=6
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_normalize():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))


@settings(max_examples=50)
@given(partition_st)
def test_conjugate_involution(mu):
    assert conjugate(conjugate(mu)) == normalize(mu)
    assert size(conjugate(mu)) == size(mu)


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
            assert sum(1 for _ in enumerate_box(s, r)) == comb(s + r, s)


def test_box_yields_normal_partitions():
    # enumerate_box builds each partition weakly decreasing and positive,
    # so it yields them without calling normalize
    for s in range(7):
        for r in range(7):
            box = list(enumerate_box(s, r))
            assert box == [normalize(mu) for mu in box]
            assert len(set(box)) == len(box)


def test_triangle_3_5():
    got = sorted(enumerate_triangle(3, 5))
    assert got == [(), (1,), (1, 1), (2,), (2, 1), (3,), (3, 1)]
    assert not in_triangle((4,), 3, 5)


def test_frontier_examples():
    assert frontier((6, 3, 2), 5, 8) == "NNEENENEEENEE"
    assert frontier((3, 3), 2, 3) == "EEENN"
    assert frontier((), 3, 5) == "NNNEEEEE"


@settings(max_examples=50)
@given(partition_st)
def test_frontier_round_trip(mu):
    mu = normalize(mu)
    a = max(len(mu), 1)
    b = max(mu[0] if mu else 0, 1)
    assert partition_of_frontier(frontier(mu, a, b), a, b) == mu


def test_arm_leg():
    # (6,3,2): cell (1,1) has arm 5, leg 2
    assert arm_leg((6, 3, 2), (1, 1)) == (5, 2)
    assert arm_leg((6, 3, 2), (3, 2)) == (0, 0)


def test_h_statistics_example():
    assert size((6, 3, 2)) == 11
    assert h_plus((6, 3, 2), 5, 8) == 9
    assert h_minus((6, 3, 2), 5, 8) == 9


def test_h_via_levels_agrees():
    for a, b in [(2, 3), (3, 5), (4, 6), (5, 8)]:
        for mu in enumerate_box(a, b):
            assert h_plus(mu, a, b) == h_via_levels(mu, a, b, "+")
            assert h_minus(mu, a, b) == h_via_levels(mu, a, b, "-")


def test_min_level():
    assert min_level((3, 3), 2, 3) == -6
    for mu in enumerate_box(3, 5):
        assert (min_level(mu, 3, 5) == 0) == in_triangle(mu, 3, 5)


def test_cyclic_shift_orbits():
    members = orbit((), 2, 3)
    assert len(members) == 5
    assert len(set(members)) == 5
    nxt = cshift_partition((), 2, 3)
    assert nxt in members


def test_orbit_decompose_covers_box():
    for a, b in [(2, 3), (3, 5), (4, 7), (5, 8)]:
        orbits = orbit_decompose(a, b)
        total = sum(len(m) for _, m in orbits)
        assert total == sum(1 for _ in enumerate_box(a, b))


def test_lem3_fine_indexing():
    for a, b in [(2, 3), (3, 5), (5, 8)]:
        for mu0 in enumerate_triangle(a, b):
            assert lem3_check(mu0, a, b)


# -- the routes frame_stats replaced, rebuilt as the reference --------------


def _old_frontier(mu, a, b):
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


def _old_frame_stats(a, b):
    """The frame_stats body the prefix-sharing walk replaced: one
    _word_stats pass per box word, in enumerate_box order."""
    table = {}
    for mu in enumerate_box(a, b):
        w = _old_frontier(mu, a, b)
        table[w] = _word_stats(w, a, b)
    return table


def frame_stats(a, b):
    """{frontier word: (|mu|, ml, h+, h-)} for every partition in the
    a x b box, in frame_entries order (descending lexicographic words); the
    triangle is where ml == 0."""
    return dict(frame_entries(a, b))


def test_frame_stats_matches_the_replaced_routes():
    for a in range(1, 8):
        for b in range(1, 8):
            table = frame_stats(a, b)
            box = list(enumerate_box(a, b))
            assert len(table) == len(box)
            assert list(table) == sorted(table, reverse=True)
            for mu in box:
                w = _old_frontier(mu, a, b)
                assert partition_of_frontier(w, a, b) == mu
                assert table[w] == (
                    sum(mu),
                    min(levels(w, a, b)),
                    _old_h_via_levels(w, a, b, "+"),
                    _old_h_via_levels(w, a, b, "-"),
                )
                assert _h_pair(mu, a, b) == (h_plus(mu, a, b), h_minus(mu, a, b))
            assert {partition_of_frontier(w, a, b)
                    for w, s in table.items() if s[1] == 0} == set(
                enumerate_triangle(a, b)
            )


def test_frame_walk_matches_the_per_word_table():
    frames = [(a, b) for a in range(9) for b in range(9)] + [(9, 10)]
    for a, b in frames:
        walked = list(frame_entries(a, b))
        assert dict(walked) == _old_frame_stats(a, b), (a, b)
        assert len(walked) == comb(a + b, a), (a, b)
        assert [w for w, _ in walked] == sorted(
            (w for w, _ in walked), reverse=True), (a, b)


def test_level_wrappers_read_the_kernel():
    table = frame_stats(4, 6)
    for mu in enumerate_box(4, 6):
        _, ml, hp, hm = table[frontier(mu, 4, 6)]
        assert min_level(mu, 4, 6) == ml
        assert h_via_levels(mu, 4, 6, "+") == hp
        assert h_via_levels(mu, 4, 6, "-") == hm
    with pytest.raises(ValueError):
        h_via_levels((), 2, 3, "*")
    with pytest.raises(ValueError):
        min_level((4,), 2, 3)  # does not fit in the box


# -- the cell-by-cell arm/leg count the row walks replaced ------------------


def _old_h_pair(mu, a, b):
    """The _h_pair body before it laid rows on column heights: each cell's
    arm and leg read off mu and its conjugate."""
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
    # _h_pair and the row walk both lay rows on column heights; the walk
    # yields the frontier word of every mu of the box, in frame_entries order
    for a, b in ARM_LEG_FRAMES:
        walked = list(_arm_leg_walk(a, b))
        assert [w for w, _, _ in walked] == [w for w, _ in frame_entries(a, b)]
        for w, hp, hm in walked:
            mu = partition_of_frontier(w, a, b)
            assert (hp, hm) == _old_h_pair(mu, a, b) == _h_pair(mu, a, b), (
                mu, a, b)
    for b in range(4):  # a = 0: the empty partition only
        assert list(_arm_leg_walk(0, b)) == [("E" * b, 0, 0)]
