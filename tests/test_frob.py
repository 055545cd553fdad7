"""Frobenius characteristics, q,t series, and matrix rendering."""

import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from ratcat.cli import GOLDEN_PF_FRAMES
import ratcat.parking as parking
from ratcat.frob import (
    _descent_histogram,
    _descent_set_fold,
    cat_qt,
    classical_cat_qt,
    classical_shuffle_side,
    frob_h,
    frob_p,
    frob_s,
    frob_via_genfunc,
    hilbert_series,
    matrix_of_poly,
    pf_qt,
    schroeder,
)
from ratcat.parking import (
    _classical_terms,
    _rational_terms,
    dinv_classical,
    drw_classical,
    labelings_of,
)
from ratcat.paths import area, east_counts, enumerate_dyck, sweep
from ratcat.qt import LaurentQT, ONE, q_int
from ratcat.symfunc import VarPoly, basis_convert, h_poly, varpoly_to_m
from test_parking import (
    _ides_mask,
    dinv_rational,
    drw_rational,
    ides,
    rational_terms,
    stretch_to_ppp,
)
from test_symfunc import hall_inner, omega, single

Q, T = LaurentQT.monomial(1, 0), LaurentQT.monomial(0, 1)


# -- reference fold: each F_{n,S} expanded as a polynomial in n variables --


def expand_fundamental(n, S, k):
    """Gessel fundamental F_{n,S} in k variables.

    Sum of x_{i_1}...x_{i_n} over weakly increasing chains with a strict
    increase at each position in S.
    """
    if k < n:
        raise ValueError("need at least n variables for degree-n faithfulness")
    S = frozenset(S)
    if any(not 1 <= j <= n - 1 for j in S):
        raise ValueError(f"descent set {sorted(S)} not inside 1..{n - 1}")
    terms = {}

    def rec(pos, lowest, ev):
        if pos == n:
            key = tuple(ev)
            terms[key] = terms.get(key, 0) + 1
            return
        for i in range(lowest, k):
            ev[i] += 1
            rec(pos + 1, i + 1 if pos + 1 in S else i, ev)
            ev[i] -= 1

    rec(0, 0, [0] * k)
    return VarPoly(k, terms)


def reference_shuffle_schur(a, b, reading_word, dinv):
    by_ides = {}
    for d in enumerate_dyck(a, b):
        ar = area(d)
        for pf in labelings_of(d):
            key = ides(reading_word(pf))
            w = LaurentQT.monomial(ar, dinv(pf))
            by_ides[key] = by_ides.get(key, LaurentQT.zero()) + w
    acc = VarPoly(a)
    for S, w in by_ides.items():
        acc = acc + expand_fundamental(a, S, a) * w
    return basis_convert(varpoly_to_m(acc, a), "s")


def direct_hilbert_series(a, b):
    """Sum of q^area t^dinv over all (a,b) parking functions."""
    total = LaurentQT.zero()
    for d in enumerate_dyck(a, b):
        ar = area(d)
        for pf in labelings_of(d):
            total = total + LaurentQT.monomial(ar, dinv_rational(pf))
    return total


def test_fundamental_small():
    f = expand_fundamental(2, set(), 2)
    assert f.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    g = expand_fundamental(2, {1}, 2)
    assert g.terms == {(1, 1): 1}
    with pytest.raises(ValueError):
        expand_fundamental(3, set(), 2)  # too few variables


def test_fundamental_no_descents_is_h():
    for n in (1, 2, 3, 4):
        assert expand_fundamental(n, set(), n).terms == h_poly(n, n).terms


def test_fundamental_squarefree_coefficient():
    for n in (2, 3, 4):
        for bits in range(1 << (n - 1)):
            S = {j for j in range(1, n) if bits >> (j - 1) & 1}
            f = expand_fundamental(n, S, n)
            assert f.coeff((1,) * n) == 1


@pytest.mark.parametrize("a,b", GOLDEN_PF_FRAMES)
def test_descent_set_fold_matches_reference(a, b):
    for step in (1, -1):
        want = reference_shuffle_schur(
            a, b, lambda pf: drw_rational(pf)[::step], dinv_rational)
        assert pf_qt(a, b, descending=step == -1) == want


def test_descent_set_fold_matches_reference_classical():
    for n in range(1, 6):
        want = reference_shuffle_schur(n, n, drw_classical, dinv_classical)
        assert classical_shuffle_side(n) == want


def test_descent_set_fold_rejects_asymmetric_series():
    # the (3,4) histogram with every entry moved to IDes = {1}: the sum is a
    # multiple of F_{3,{1}}, whose M_(1,2) and M_(2,1) coefficients differ
    hist = {}
    for (_, ar, dv), count in _descent_histogram(3, 4, _rational_terms).items():
        hist[0b1, ar, dv] = hist.get((0b1, ar, dv), 0) + count
    with pytest.raises(ValueError, match="not symmetric"):
        _descent_set_fold(3, hist, "in test")


# -- the per-parking-function statistics the kernel replaced ---------------


def old_dinv_rational(pf):
    if pf.a == 1:
        return 0
    offset, d, pairs, _ = rational_terms(pf.path)
    labels = pf.labels
    value = sum(1 for i, j in pairs if labels[i] < labels[j]) + offset
    if not 0 <= value <= d:
        raise AssertionError(f"dinv {value} outside 0..{d} for {pf}")
    return value


def old_drw_rational(pf):
    order = rational_terms(pf.path)[3]
    labels = pf.labels
    return tuple(labels[i] for i in order)


def old_ides(word):
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"{word} is not a permutation word")
    pos = {x: i for i, x in enumerate(word)}
    return frozenset(j for j in range(1, n) if pos[j + 1] < pos[j])


def old_gp_vectors(pf):
    xs = east_counts(pf.word)
    g = tuple(i - x for i, x in enumerate(xs))
    return g, tuple(pf.labels)


def old_dinv_classical(pf):
    g, p = old_gp_vectors(pf)
    n = len(g)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if (g[i] == g[j] and p[i] < p[j]) or (g[i] == g[j] + 1 and p[i] > p[j])
    )


def old_drw_classical(pf):
    g, p = old_gp_vectors(pf)
    order = sorted(range(len(g)), key=lambda i: (-g[i], -i))
    return tuple(p[i] for i in order)


def per_pf_histogram(a, b, reading_word, dinv):
    """{(IDes bitmask, area, dinv): count} built one ParkingFunction at a
    time from labelings_of."""
    hist = {}
    for d in enumerate_dyck(a, b):
        ar = area(d)
        for pf in labelings_of(d):
            mask = sum(1 << (j - 1) for j in old_ides(reading_word(pf)))
            key = (mask, ar, dinv(pf))
            hist[key] = hist.get(key, 0) + 1
    return hist


@pytest.mark.parametrize("a,b", [(5, 8), (6, 7), (7, 5), (1, 4), (4, 1),
                                 (2, 1), (1, 2), (2, 3), (5, 3)])
@pytest.mark.parametrize("descending", [False, True])
def test_kernel_histogram_matches_per_pf_statistics(a, b, descending):
    step = -1 if descending else 1
    want = per_pf_histogram(a, b, lambda pf: old_drw_rational(pf)[::step],
                            old_dinv_rational)
    got = _descent_histogram(a, b, lambda d: _rational_terms(d, descending))
    assert got == want
    assert sum(got.values()) == b ** (a - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_histogram_matches_per_pf_statistics_classical(n):
    want = per_pf_histogram(n, n, old_drw_classical, old_dinv_classical)
    assert _descent_histogram(n, n, _classical_terms) == want


# -- the per-label-tuple kernel the label walk replaced ----------------------


def old_descent_histogram(a, b, path_terms):
    """{(IDes bitmask, area, dinv): count}, scoring each label tuple of each
    path with the per-PF helpers."""
    hist = {}
    for d in enumerate_dyck(a, b):
        ar = area(d)
        terms = path_terms(d)
        rank = parking._ranks(terms[3])
        for labels in parking._label_tuples(d):
            key = (_ides_mask(labels, rank), ar, parking._dinv(labels, terms))
            hist[key] = hist.get(key, 0) + 1
    return hist


@pytest.mark.parametrize("a,b", [(5, 8), (6, 7), (7, 5), (7, 4)])
@pytest.mark.parametrize("descending", [False, True])
def test_label_walk_matches_the_per_tuple_kernel(a, b, descending):
    def terms(d):
        return _rational_terms(d, descending)

    assert _descent_histogram(a, b, terms) == old_descent_histogram(a, b, terms)


@pytest.mark.parametrize("n", range(1, 7))
def test_label_walk_matches_the_per_tuple_kernel_classical(n):
    want = old_descent_histogram(n, n, _classical_terms)
    assert _descent_histogram(n, n, _classical_terms) == want


@pytest.mark.parametrize("a,b", [(1, 4), (3, 5), (5, 3), (4, 7), (5, 6)])
def test_public_statistics_match_the_per_pf_bodies(a, b):
    for pf in parking.enumerate_pf(a, b):
        assert dinv_rational(pf) == old_dinv_rational(pf), pf
        word = drw_rational(pf)
        assert word == old_drw_rational(pf), pf
        assert ides(word) == old_ides(word), pf


def test_public_classical_statistics_match_the_per_pf_bodies():
    for n in range(1, 6):
        for pf in parking.enumerate_pf(n, n):
            assert dinv_classical(pf) == old_dinv_classical(pf), pf
            word = drw_classical(pf)
            assert word == old_drw_classical(pf), pf
            assert ides(word) == old_ides(word), pf
    # the Bezout stretch carries multiset labels
    for a, b in [(3, 5), (5, 3), (4, 7)]:
        for pf in parking.enumerate_pf(a, b):
            path, labels = stretch_to_ppp(pf)
            pp = SimpleNamespace(word=path.word, labels=labels, path=path)
            assert dinv_classical(pp) == old_dinv_classical(pp), pf
            assert drw_classical(pp) == old_drw_classical(pp), pf


def test_frob_closed_forms_small():
    assert frob_h(2, 3).as_dict() == {
        (2,): LaurentQT.const(1),
        (1, 1): LaurentQT.const(1),
    }
    assert frob_s(3, 5).as_dict() == {
        (3,): LaurentQT.const(7),
        (2, 1): LaurentQT.const(8),
        (1, 1, 1): LaurentQT.const(2),
    }


def test_frob_routes_agree():
    for a in range(1, 6):
        for b in range(1, 9):
            if gcd(a, b) != 1:
                continue
            fm = basis_convert(frob_h(a, b), "m")
            assert basis_convert(frob_p(a, b), "m") == fm
            assert basis_convert(frob_s(a, b), "m") == fm
            assert frob_via_genfunc(a, b) == fm
            assert hilbert_series(pf_qt(a, b)).evaluate() == b ** (a - 1)


def test_frob_s_divisibility_check_survives_optimize():
    # s_lam(1^b) must be a multiple of b; the check must raise under -O
    code = (
        "import ratcat.frob as f\n"
        "f.schur_principal_special = lambda lam, b: 1\n"
        "try:\n"
        "    f.frob_s(3, 5)\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def test_frob_genfunc_divisibility_check_survives_optimize():
    # the m-coefficients of [H]^b are multiples of b; with products that
    # break this, the division by b must raise under -O, not leave 4/5
    code = (
        "import ratcat.frob as f\n"
        "f._m_product = lambda x, y, i, j: {(i + j,): 1}\n"
        "try:\n"
        "    f.frob_via_genfunc(3, 5)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "4 is not divisible by 5\n"


def _varpoly_frob_via_genfunc(a, b):
    """The frob_via_genfunc body the m-basis products replaced: each h_i an
    explicit polynomial in a variables, the t-series truncated at degree a."""
    k = max(a, 1)
    base = [h_poly(i, k) for i in range(a + 1)]
    series = [VarPoly.one(k)] + [VarPoly(k) for _ in range(a)]
    for _ in range(b):
        nxt = [VarPoly(k) for _ in range(a + 1)]
        for i in range(a + 1):
            if not series[i].terms:
                continue
            for j in range(a + 1 - i):
                nxt[i + j] = nxt[i + j] + series[i] * base[j]
        series = nxt
    return varpoly_to_m(series[a] * Fraction(1, b), a)


def test_frob_genfunc_matches_the_varpoly_route():
    # the 27 pf frames of the sweep, and two frames with more variables
    frames = [(a, b) for a in range(1, 5) for b in range(1, 10) if gcd(a, b) == 1]
    frames += [(5, 8), (7, 4), (8, 3), (7, 9)]
    assert len(frames) == 29
    for a, b in frames:
        got = frob_via_genfunc(a, b)
        assert got == _varpoly_frob_via_genfunc(a, b), (a, b)
        assert got == basis_convert(frob_h(a, b), "m"), (a, b)


def test_frob_genfunc_single_car():
    assert frob_via_genfunc(1, 4) == single(1, "m", (1,))


def test_frob_rejects_non_coprime():
    with pytest.raises(ValueError):
        frob_h(2, 4)


def test_schroeder():
    assert schroeder(5, 3, 4) == 7
    assert schroeder(2, 3, 1) == 2
    assert schroeder(5, 3, 0) == 0  # k < a - b
    with pytest.raises(ValueError):
        schroeder(3, 5, 3)


def test_schroeder_matches_hook_coefficients():
    for a, b in [(2, 3), (3, 5), (4, 7), (5, 3)]:
        fs = frob_s(a, b)
        for k in range(a):
            hook = (k + 1,) + (1,) * (a - k - 1)
            assert fs.coeff(hook).evaluate() == schroeder(a, b, k)


def test_cat_qt_small():
    assert cat_qt(2, 3) == Q + T
    want = LaurentQT(
        {(4, 0): 1, (3, 1): 1, (2, 2): 1, (2, 1): 1, (1, 2): 1, (1, 3): 1, (0, 4): 1}
    )
    assert cat_qt(3, 5) == want


def test_cat_qt_twins_and_symmetry():
    for a, b in [(2, 3), (3, 5), (4, 7)]:
        c = cat_qt(a, b)
        assert c == cat_qt(b, a)
        assert c == c.swap_q_t()


def _per_path_cat_qt(a, b):
    """cat_qt as it summed before it counted exponent pairs: one LaurentQT
    added per path."""
    total = LaurentQT.zero()
    for d in enumerate_dyck(a, b):
        total = total + LaurentQT.monomial(area(d), area(sweep(d)))
    return total


def _per_path_classical_cat_qt(n):
    """classical_cat_qt as it summed before it counted exponent pairs."""
    total = LaurentQT.zero()
    for d in enumerate_dyck(n, n):
        g = [i - x for i, x in enumerate(east_counts(d.word))]
        dinv = sum(1 for i in range(n) for j in range(i + 1, n)
                   if g[i] == g[j] or g[i] == g[j] + 1)
        total = total + LaurentQT.monomial(sum(g), dinv)
    return total


def test_counted_cat_sums_match_the_per_path_sums():
    for a in range(1, 9):
        for b in range(1, 9):
            if gcd(a, b) == 1:
                assert cat_qt(a, b) == _per_path_cat_qt(a, b), (a, b)
    for n in range(1, 8):
        assert classical_cat_qt(n) == _per_path_classical_cat_qt(n), n


def test_pf_qt_2_3():
    series = pf_qt(2, 3)
    assert series.as_dict() == {
        (2,): Q + T,
        (1, 1): ONE,
    }


def test_pf_qt_descending_is_omega():
    for a, b in [(2, 3), (3, 4), (3, 5)]:
        assert pf_qt(a, b, descending=True) == omega(pf_qt(a, b))


def test_pf_qt_at_one_recovers_frobenius():
    for a, b in [(2, 3), (2, 5), (3, 5), (4, 7), (4, 3)]:
        graded = pf_qt(a, b)
        flat = {lam: c.evaluate() for lam, c in graded.coeffs}
        want = {lam: c.evaluate() for lam, c in frob_s(a, b).coeffs}
        assert flat == want


def test_hilb():
    assert hilbert_series(pf_qt(2, 3)) == ONE + Q + T
    # q=t=1 gives the count of parking functions
    for a, b in [(3, 4), (4, 5)]:
        assert hilbert_series(pf_qt(a, b)).evaluate() == b ** (a - 1)


def test_hilb_specialization():
    for a, b in [(2, 3), (3, 5), (4, 7)]:
        shift = (a - 1) * (b - 1) // 2
        hilb = hilbert_series(pf_qt(a, b))
        assert hilb.specialize_t(-1, shift) == q_int(b) ** (a - 1)


def test_hilbert_series_matches_direct_sum():
    for a, b in [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 3)]:
        assert hilbert_series(pf_qt(a, b)) == direct_hilbert_series(a, b)


def test_sign_coefficient_vs_cat_qt_reported():
    # whether the s_(1^a) coefficient of the series matches cat_qt is an
    # open comparison: computed and printed, deliberately not asserted
    for a, b in [(2, 3), (3, 4), (3, 5), (4, 3)]:
        same = pf_qt(a, b).coeff((1,) * a) == cat_qt(a, b)
        print(f"pf_qt[1^{a}] == cat_qt for ({a},{b}): {same}")


def test_classical_shuffle_side():
    assert classical_shuffle_side(1) == single(1, "s", (1,))
    for n in (2, 3, 4):
        series = classical_shuffle_side(n)
        got = hall_inner(series, single(n, "s", (1,) * n))
        assert got == classical_cat_qt(n)


def test_classical_case_is_frame_n_n_plus_1():
    for n in (2, 3, 4):
        want = classical_shuffle_side(n)
        assert omega(pf_qt(n, n + 1)) == want
        assert pf_qt(n, n + 1, descending=True) == want
    for n in (2, 3, 4, 5):
        assert cat_qt(n, n + 1) == classical_cat_qt(n)


def test_trivial_coefficient_is_cat_qt():
    # <PF_{a,b}, h_a> = Cat_{a,b}(q,t): the s_(a) coefficient
    for a, b in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 3), (4, 7)]:
        assert pf_qt(a, b).coeff((a,)) == cat_qt(a, b)


def test_to_matrix():
    # the grid matrix_of_poly lays out: row i, column j holds q^i t^j
    assert matrix_of_poly(ONE) == "1"
    assert matrix_of_poly(Q + T) == ". 1\n1 ."
    assert matrix_of_poly(LaurentQT.zero()) == "."
    assert matrix_of_poly(T * 3 + Q * Q * -2) == " .  3\n .  .\n-2  ."
    with pytest.raises(ValueError):
        matrix_of_poly(LaurentQT.monomial(-1, 0))
    with pytest.raises(ValueError):
        matrix_of_poly(LaurentQT.monomial(1, -1), "tex")


def test_render_matrix():
    # the two styles, and the one width of a plain grid
    assert matrix_of_poly(Q + T, "tex") == ". & 1\n1 & ."
    assert matrix_of_poly(LaurentQT.zero(), "tex") == "."
    wide = Q + T * 10
    assert matrix_of_poly(wide) == " . 10\n 1  ."
    assert matrix_of_poly(wide, "tex") == ". & 10\n1 & ."
    with pytest.raises(ValueError, match="unknown style"):
        matrix_of_poly(Q + T, "html")


def test_matrix_of_poly_cat_3_5():
    want = (
        ". . . . 1\n"
        ". . 1 1 .\n"
        ". 1 1 . .\n"
        ". 1 . . .\n"
        "1 . . . ."
    )
    assert matrix_of_poly(cat_qt(3, 5)) == want
