"""Parking functions, reading words, zeta, and rational dinv."""

import itertools
import subprocess
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratcat.parking as parking
from ratcat.cli import GOLDEN_PF_FRAMES
from ratcat.parking import (
    NotAParkingFunction,
    ParkingFunction,
    _g_vector,
    _run_label_groups,
    area_prime,
    d_stat,
    dinv_classical,
    drw_classical,
    enumerate_pf,
    from_preference_vector,
    labelings_of,
    zeta,
)
from ratcat.paths import DyckPath, area, enumerate_dyck, levels

# -- reference routes: per-PF statistics and the Bezout stretch -------------
#
# The q,t-series kernel (frob._descent_histogram) reads each path's terms
# once and carries dinv and IDes as it places the labels; nothing in src/
# scores one parking function at a time. These statistics do, as the side
# of each identity that the kernel is checked against here, in test_frob and
# in test_acceptance. The Bezout stretch P'' is the independent route for
# rational dinv: dinv(P'') + d(P) - m(D) = dinv(P).


@lru_cache(maxsize=1)
def rational_terms(d):
    """parking._rational_terms(d), kept for the parking functions of d,
    which labelings_of yields one after another."""
    return parking._rational_terms(d)


def dinv_rational(pf):
    """dinv(P) = tdinv(P) - maxtdinv(D) + d(P); identically 0 when a = 1.

    tdinv(P) counts the window pairs (i, j) of the path whose labels
    increase, p_i < p_j (Armstrong-Loehr-Warrington, section 5).
    """
    return parking._dinv(pf.labels, rational_terms(pf.path))


def drw_rational(pf):
    """Labels of north steps read by increasing level of bottom endpoints."""
    labels = pf.labels
    return tuple(labels[i] for i in rational_terms(pf.path)[3])


def _ides_mask(labels, rank):
    """IDes of the word with labels[i] at position rank[i], as a bitmask:
    bit j-1 is set iff j+1 sits left of j."""
    n = len(labels)
    pos = [0] * (n + 1)
    for r, x in zip(rank, labels):
        pos[x] = r
    mask = 0
    for j in range(1, n):
        if pos[j + 1] < pos[j]:
            mask |= 1 << (j - 1)
    return mask


def ides(word):
    """Inverse descent set: j with j+1 left of j in the word."""
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"{word} is not a permutation word")
    mask = _ides_mask(word, range(n))
    return frozenset(j for j in range(1, n) if mask >> (j - 1) & 1)


def to_preference_vector(pf):
    """Inverse of from_preference_vector (classical n x n frame only)."""
    if pf.a != pf.b:
        raise ValueError("preference vectors are defined for the classical frame")
    prefs = {}
    run_index = 1
    it = iter(pf.labels)
    for step in pf.word:
        if step == "N":
            prefs[next(it)] = run_index
        else:
            run_index += 1
    return tuple(prefs[j] for j in range(1, pf.a + 1))


def bezout_xy(a, b):
    """The solution of x*a + y*b = 1 with -b < x <= 0 and 0 <= y < a."""
    if gcd(a, b) != 1:
        raise ValueError("bezout_xy requires gcd(a,b)=1")
    if a == 1:
        raise ValueError("the window -b < x <= 0, 0 <= y < a is empty for a=1")
    x = pow(b, -1, a)  # y candidate: y*b = 1 (mod a)
    y = x % a
    x = (1 - y * b) // a
    if not (-b < x <= 0 and 0 <= y < a):
        raise AssertionError(f"window reduction failed for ({a},{b})")
    return x, y


def stretch_to_ppp(pf):
    """P'': stretch N steps |x|-fold and E steps y-fold, drop the final E.

    The result is a classical parking function on an n x n frame with
    n = |x|*a and multiset labels (each original label repeated |x| times,
    copies kept adjacent within their run), returned as the pair
    (DyckPath, labels): no ParkingFunction holds multiset labels.
    """
    x, y = bezout_xy(pf.a, pf.b)
    nx = -x
    word = []
    labels = []
    row = 0
    for step in pf.word:
        if step == "N":
            word.append("N" * nx)
            labels.extend([pf.labels[row]] * nx)
            row += 1
        else:
            word.append("E" * y)
    # drop the final E; DyckPath checks that P'' is a Dyck path
    n = nx * pf.a
    return DyckPath("".join(word)[:-1], n, n), tuple(labels)


def ppp_dinv(pf):
    """dinv(P''): the classical dinv of the stretch's path and labels."""
    path, labels = stretch_to_ppp(pf)
    return parking._dinv(labels, parking._classical_terms(path))


def max_stretched_dinv(d):
    """m(D): maximum of dinv(P'') over all labelings of d."""
    return max(ppp_dinv(pf) for pf in labelings_of(d))


def pf_from_json(data):
    """Inverse of ParkingFunction.to_json."""
    return ParkingFunction(data["word"], tuple(data["labels"]), *data["frame"])


def test_validation():
    ParkingFunction("NENEE", (1, 2), 2, 3)
    with pytest.raises(ValueError):
        ParkingFunction("NENEE", (1, 1), 2, 3)  # not a permutation
    with pytest.raises(ValueError):
        ParkingFunction("NNEEE", (2, 1), 2, 3)  # run not increasing
    with pytest.raises(ValueError):
        ParkingFunction("NENEE", (1, 2), 2, 4)  # word does not fit the frame
    with pytest.raises(ValueError):
        ParkingFunction("ENNEE", (1, 2), 2, 3)  # dips below the diagonal
    with pytest.raises(ValueError):
        ParkingFunction("NENEE", (1,), 2, 3)  # one label short
    assert ParkingFunction("NENEE", (1, 2), 2, 3).path == DyckPath("NENEE", 2, 3)


def distribute(pool, sizes):
    """The labelings generator labelings_of wrapped before the label
    tuples: each run takes a combination of the pool, recursively."""
    if not sizes:
        yield ()
        return
    k = sizes[0]
    for chosen in itertools.combinations(pool, k):
        rest = [x for x in pool if x not in chosen]
        for tail in distribute(rest, sizes[1:]):
            yield chosen + tail


@pytest.mark.parametrize("a,b", GOLDEN_PF_FRAMES + [(6, 7)])
def test_label_tuples_match_distribute(a, b):
    for d in enumerate_dyck(a, b):
        sizes = [len(g) for g in _run_label_groups(d.word, range(d.a))]
        want = list(distribute(list(range(1, a + 1)), sizes))
        assert list(parking._label_tuples(d)) == want, d


TRUSTED_FRAMES = [(2, 3), (3, 5), (4, 5), (5, 3), (3, 3)]


@pytest.mark.parametrize("a,b", TRUSTED_FRAMES)
def test_trusted_labelings_match_validated(a, b):
    count = 0
    for d in enumerate_dyck(a, b):
        for pf in labelings_of(d):
            checked = ParkingFunction(pf.word, pf.labels, pf.a, pf.b)
            assert pf == checked
            assert hash(pf) == hash(checked)
            assert pf.path == checked.path == d
            count += 1
    assert count == ((a + 1) ** (a - 1) if a == b else b ** (a - 1))


@pytest.mark.parametrize("a,b", [f for f in TRUSTED_FRAMES if f[0] != f[1]])
def test_trusted_stretch_matches_validated(a, b):
    for pf in enumerate_pf(a, b):
        path, labels = stretch_to_ppp(pf)
        n = path.a
        assert path == DyckPath(path.word, n, n) and path.b == n
        k = n // pf.a
        assert labels == tuple(x for x in pf.labels for _ in range(k))


def test_stretch_rejects_non_dyck_result(monkeypatch):
    # a wrong Bezout pair stretches the path off the n x n frame
    monkeypatch.setitem(globals(), "bezout_xy", lambda a, b: (-1, 2))
    with pytest.raises(ValueError):
        stretch_to_ppp(ParkingFunction("NENEE", (1, 2), 2, 3))


def test_dinv_range_check_survives_optimize():
    # maxtdinv above d(P) with no window pair forces dinv below 0; the
    # check must raise under -O
    code = (
        "import ratcat.parking as p\n"
        "p._path_terms = lambda d: (0, 99, (), (0, 1))\n"
        "try:\n"
        "    p._dinv((1, 2), p._rational_terms(p.DyckPath('NENEE', 2, 3)))\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


@pytest.mark.parametrize("maxtdinv", [99, -99], ids=["below", "above"])
def test_kernel_dinv_range_check_survives_optimize(maxtdinv):
    # forced values reached through the q,t-series kernel: maxtdinv 99 puts
    # dinv below 0, maxtdinv -99 puts it at 99, above its bound d(P) = 0
    code = (
        "import ratcat.parking as p\n"
        "import ratcat.frob as f\n"
        f"p._path_terms = lambda d: (0, {maxtdinv}, (), tuple(range(d.a)))\n"
        "try:\n"
        "    f.pf_qt(2, 3)\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def test_preference_vector_round_trip():
    P = from_preference_vector((2, 4, 1, 2, 1))
    assert P.word == "NNENNEENEE"
    assert P.labels == (3, 5, 1, 4, 2)
    assert to_preference_vector(P) == (2, 4, 1, 2, 1)
    with pytest.raises(NotAParkingFunction):
        from_preference_vector((3, 3, 3))


@settings(max_examples=60)
@given(st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_preference_vectors_biject(v):
    valid = all(x <= i for i, x in enumerate(sorted(v), start=1))
    if not valid:
        with pytest.raises(NotAParkingFunction):
            from_preference_vector(tuple(v))
    else:
        P = from_preference_vector(tuple(v))
        assert to_preference_vector(P) == tuple(v)


def test_counts():
    for a, b in [(1, 1), (2, 3), (3, 4), (3, 5), (4, 5)]:
        assert sum(1 for _ in enumerate_pf(a, b)) == b ** (a - 1)


def test_classical_example():
    P = from_preference_vector((2, 4, 1, 2, 1))
    assert _g_vector(P.path) == (0, 1, 1, 2, 1)
    assert P.labels == (3, 5, 1, 4, 2)
    assert area(P.path) == 5
    assert dinv_classical(P) == 2
    assert drw_classical(P) == (4, 2, 1, 5, 3)
    assert ides(drw_classical(P)) == frozenset({1, 3})


def test_zeta_example():
    P = from_preference_vector((2, 4, 1, 2, 1))
    r = zeta(P)
    assert r.word == "NENNNEENEE"
    assert r.diagonal_word == (3, 5, 1, 2, 4)
    assert area_prime(r) == 2


def test_dinv_equals_area_prime_after_zeta():
    for n in (1, 2, 3, 4):
        for d in enumerate_dyck(n, n):
            for P in labelings_of(d):
                assert dinv_classical(P) == area_prime(zeta(P))


def test_bezout_windows():
    assert bezout_xy(2, 3) == (-1, 1)
    assert bezout_xy(3, 5) == (-3, 2)
    assert bezout_xy(5, 8) == (-3, 2)
    with pytest.raises(ValueError):
        bezout_xy(4, 6)
    with pytest.raises(ValueError):
        bezout_xy(1, 7)


def test_rational_example():
    P = ParkingFunction("NNENNEENEEEEE", (4, 5, 1, 3, 2), 5, 8)
    assert area(P.path) == 9
    assert drw_rational(P) == (4, 5, 1, 2, 3)
    assert ides(drw_rational(P)) == frozenset({3})
    path, _ = stretch_to_ppp(P)
    assert path.word == "N" * 6 + "E" * 2 + "N" * 6 + "E" * 4 + "N" * 3 + "E" * 9
    assert ppp_dinv(P) == 5
    assert d_stat(P.path) == 3
    assert max_stretched_dinv(P.path) == 6
    assert dinv_rational(P) == 2


def test_max_dinv_achieved_by_stated_labeling():
    d = DyckPath("NNENNEENEEEEE", 5, 8)
    P = ParkingFunction(d.word, (1, 2, 3, 5, 4), 5, 8)
    assert ppp_dinv(P) == 6


def test_three_pf_table_2_3():
    rows = [
        ("NNEEE", (1, 2), 1, 0, 0, 0, 0, frozenset()),
        ("NENEE", (1, 2), 0, 1, 1, 1, 1, frozenset()),
        ("NENEE", (2, 1), 0, 0, 1, 1, 0, frozenset({1})),
    ]
    for word, labels, ar, dpp, d, m, dv, S in rows:
        P = ParkingFunction(word, labels, 2, 3)
        assert area(P.path) == ar
        assert ppp_dinv(P) == dpp
        assert d_stat(P.path) == d
        assert max_stretched_dinv(P.path) == m
        assert dinv_rational(P) == dv
        assert ides(drw_rational(P)) == S


def test_dinv_rational_bounds():
    for a, b in [(2, 5), (3, 4), (3, 5), (4, 5)]:
        for P in enumerate_pf(a, b):
            dv = dinv_rational(P)
            assert 0 <= dv <= d_stat(P.path)


def test_a_equals_one_convention():
    for b in (1, 2, 5):
        for P in enumerate_pf(1, b):
            assert dinv_rational(P) == 0


def test_json_round_trip():
    P = ParkingFunction("NENEE", (2, 1), 2, 3)
    assert pf_from_json(P.to_json()) == P


# -- the level route against the stretch -----------------------------------

# every parking function of these frames, both orientations where the
# stretch route is cheap enough
DIFF_FRAMES = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (5, 3),
               (4, 5), (5, 4), (5, 6), (6, 5), (3, 7), (7, 3), (4, 7), (7, 4),
               (5, 8)]


def stretch_dinv(pf, d, m):
    """dinv through the Bezout stretch, given d(P) and m(D) of its path."""
    return ppp_dinv(pf) + d - m


def tdinv(pf, width):
    """Label-increasing pairs of north steps with L_i < L_j < L_i + width,
    L being the level at the foot of each north step."""
    lv = levels(pf.word, pf.a, pf.b)
    feet = [(lv[i], label) for i, label in
            zip((i for i, step in enumerate(pf.word) if step == "N"), pf.labels)]
    return sum(1 for li, pi in feet for lj, pj in feet
               if li < lj < li + width and pi < pj)


def drw_by_sorting(pf):
    """The reading word as drw_rational read it before the per-path order:
    (level, label) pairs of the north steps, sorted."""
    lv = levels(pf.word, pf.a, pf.b)
    tagged = []
    row = 0
    for i, step in enumerate(pf.word):
        if step == "N":
            tagged.append((lv[i], pf.labels[row]))
            row += 1
    tagged.sort()
    return tuple(label for _, label in tagged)


@pytest.mark.parametrize("a,b", DIFF_FRAMES)
def test_dinv_levels_match_stretch(a, b):
    count = 0
    for d in enumerate_dyck(a, b):
        ds, m = d_stat(d), max_stretched_dinv(d)
        for pf in labelings_of(d):
            assert dinv_rational(pf) == stretch_dinv(pf, ds, m), pf
            count += 1
    assert count == b ** (a - 1)


@pytest.mark.parametrize("a,b", DIFF_FRAMES)
def test_drw_per_path_order_matches_sorting(a, b):
    for pf in enumerate_pf(a, b):
        assert drw_rational(pf) == drw_by_sorting(pf), pf


@pytest.mark.parametrize("a,b", [(2, 3), (3, 2), (3, 4), (4, 3), (3, 5),
                                 (5, 3), (4, 5), (5, 4), (4, 7), (7, 4)])
def test_maxtdinv_closed_form_is_the_max_over_labelings(a, b):
    for d in enumerate_dyck(a, b):
        brute = max(tdinv(pf, b) for pf in labelings_of(d))
        assert parking._path_terms(d)[1] == brute, d


def test_window_of_a_fails():
    # the window must be b: with a in its place the route leaves the stretch
    a, b = 3, 5
    mismatches = 0
    for d in enumerate_dyck(a, b):
        ds, m = d_stat(d), max_stretched_dinv(d)
        pfs = list(labelings_of(d))
        top = max(tdinv(pf, a) for pf in pfs)
        for pf in pfs:
            assert tdinv(pf, b) - parking._path_terms(d)[1] + ds == \
                stretch_dinv(pf, ds, m)
            if tdinv(pf, a) - top + ds != stretch_dinv(pf, ds, m):
                mismatches += 1
    assert mismatches > 0


def test_non_coprime_frame_raises():
    pf = ParkingFunction("NENENE", (1, 2, 3), 3, 3)
    with pytest.raises(ValueError):
        dinv_rational(pf)
