"""Partition statistics: the a x b box as frontier words."""

from itertools import combinations, combinations_with_replacement
from math import comb, gcd

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
from ratcat.paths import levels
from ratcat.verify import _arm_leg_cells, _arm_leg_walk
from test_paths import cyclic_shift

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


def word_of(code, n):
    """The frontier word of an n-step code: step i is bit n-1-i, N = 1."""
    return bin(code | 1 << n)[3:].replace("1", "N").replace("0", "E")


def code_of(word):
    """The code of a frontier word: N = 1, the first step highest."""
    code = 0
    for step in word:
        code = code << 1 | (step == "N")
    return code


def walked_words(a, b):
    """frame_entries(a, b) with each code read back as its word."""
    return [(word_of(c, a + b), s) for c, s in frame_entries(a, b)]


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
            box = [partition_of_frontier(w, s, r) for w, _ in walked_words(s, r)]
            assert box == [normalize(mu) for mu in box]
            assert len(set(box)) == len(box)
            assert all(len(mu) <= s and max(mu, default=0) <= r for mu in box)


def test_triangle_3_5():
    table = dict(walked_words(3, 5))
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
    size, _, hp, hm = dict(frame_entries(5, 8))[code_of(w)]
    assert (size, hp, hm) == (11, 9, 9)
    assert {v: (p, m) for v, p, m in _arm_leg_walk(5, 8)}[code_of(w)] == (9, 9)
    assert _old_h_pair((6, 3, 2), 5, 8) == (9, 9)


def test_h_via_levels_agrees():
    # the level counts of the box walk against the arm/leg row walk
    for a, b in [(2, 3), (3, 5), (4, 6), (5, 8)]:
        walks = zip(frame_entries(a, b), _arm_leg_walk(a, b), strict=True)
        for (w, (_, _, hp, hm)), (arm_w, arm_hp, arm_hm) in walks:
            assert arm_w == w
            assert (arm_hp, arm_hm) == (hp, hm), (w, a, b)


def test_min_level():
    assert dict(frame_entries(2, 3))[code_of("EEENN")][1] == -6
    # ml == 0 exactly on the triangle: a * mu_j <= b * (a - j) on each row j
    for a, b in [(3, 5), (4, 6), (5, 3), (4, 7)]:
        for w, (_, ml, _, _) in walked_words(a, b):
            mu = partition_of_frontier(w, a, b)
            under = all(a * p <= b * (a - j) for j, p in enumerate(mu, start=1))
            assert (ml == 0) == under, (mu, a, b)


def test_cyclic_shift_orbits():
    # the orbit of the empty partition in the 2 x 3 box, worked by hand: the
    # shifts in order, their partitions and (|mu|, ml, h+, h-); each shift's
    # h+ is the rank of -ml among the levels 0, 3, 6, 4, 2 of NNEEE
    table = dict(walked_words(2, 3))
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
        table = dict(walked_words(a, b))
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
            # thm_ratcat's shift by k: the window of the code twice over
            # that starts at step k
            n, c0 = a + b, code_of(w0)
            assert [(c0 << n | c0) >> (n - k) & (1 << n) - 1 for k in range(n)
                    ] == [code_of(cyclic_shift(w0, k)) for k in range(n)]
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
    return dict(walked_words(a, b))


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
        walked = walked_words(a, b)
        words = list(box_words(a, b))
        assert len(words) == comb(a + b, a), (a, b)
        assert walked == [(w, _word_stats(w, a, b)) for w in words], (a, b)


def _word_frame_entries(a, b):
    """frame_entries as it was before the frontier codes: the same walk with
    the word as a string, one stack node per step to the end."""
    g, ab = gcd(a, b), a * b
    window, field = (1 << (a + b)) - 1, (1 << g) - 1
    # word, E level bits, x, N steps, |mu|, level + ab, ml, h+, h-
    stack = [("", 0, 0, 0, 0, ab, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        word, easts, x, rows, size, pos, low, hp, hm = pop()
        if rows == a:
            yield word + "E" * (b - x), (size, low, hp, hm)
            continue
        if x < b:  # pushed first, so the N child is walked first
            c = (easts >> pos & field).bit_count()
            down = pos - a - ab
            push((word + "E", easts | 1 << (pos + c), x + 1, rows, size,
                  pos - a, down if down < low else low, hp, hm))
        push((word + "N", easts, x, rows + 1, size + x, pos + b, low,
              hp + (easts >> (pos + g) & window).bit_count(),
              hm + (easts >> pos & window).bit_count()))


def test_coded_walk_matches_the_word_walk():
    # every frame a, b <= 8, coprime or not, with the edge frames a = 0 and
    # b = 0: the same stats in the same order, each code that of its word
    for a in range(9):
        for b in range(9):
            coded = list(frame_entries(a, b))
            assert coded == [(code_of(w), stats)
                             for w, stats in _word_frame_entries(a, b)], (a, b)
            codes = [c for c, _ in coded]
            assert codes == sorted(set(codes), reverse=True), (a, b)
            assert all(0 <= c < 1 << (a + b) for c in codes), (a, b)
            assert [code_of(word_of(c, a + b)) for c in codes] == codes


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
        assert [c for c, _, _ in walked] == [c for c, _ in frame_entries(a, b)]
        for c, hp, hm in walked:
            mu = partition_of_frontier(word_of(c, a + b), a, b)
            assert (hp, hm) == _old_h_pair(mu, a, b), (mu, a, b)
    for b in range(4):  # a = 0: the empty partition only
        assert list(_arm_leg_walk(0, b)) == [(0, 0, 0)]


def test_both_box_walks_refuse_a_negative_frame():
    # before the first item; unchecked, a negative a walks until memory runs out
    for walk in (frame_entries, _arm_leg_walk):
        for a, b in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError, match=rf"\({a},{b}\)"):
                next(walk(a, b))


def _row_pairs(heights, x, a, b):
    """(h+, h-) cells of a row of length x put on columns of heights
    heights, as _arm_leg_walk scored a row before its cell table: column j
    has arm x-j and leg heights[j-1], and with v = a*arm - b*leg, h+ counts
    the cells with -a < v <= b and h- those with -a <= v < b."""
    hp = hm = 0
    for arm, leg in zip(range(x - 1, -1, -1), heights):
        v = a * arm - b * leg
        if -a <= v <= b:
            if v != -a:
                hp += 1
            if v != b:
                hm += 1
    return hp, hm


def test_cell_table_matches_the_row_pairs_loop():
    # every row the walk can lay: a length x <= b on weakly decreasing
    # column heights below a, each cell read from the table by leg*b + arm
    for a in range(1, 8):
        for b in range(1, 8):
            cells, width = _arm_leg_cells(a, b)
            assert len(cells) == a * b
            for heights in combinations_with_replacement(range(a - 1, -1, -1), b):
                for x in range(b + 1):
                    row = sum(cells[leg * b + x - 1 - j]
                              for j, leg in enumerate(heights[:x]))
                    got = (row & (1 << width) - 1, row >> width)
                    assert got == _row_pairs(heights, x, a, b), (heights, x)
