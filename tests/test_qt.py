"""Laurent polynomial ring and q-analogue constructors."""

import copy
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcat.qt import (
    ExactDivisionError,
    LaurentQT,
    ONE,
    ZERO,
    q_binomial,
    q_int,
    rational_q_catalan,
)
from ratcat.qt import (
    _dense_q_binomial,
    _divide_q_int,
    _from_dense,
    _times_q_int,
)

from ratcat.symfunc import SymExpansion

Q, T = LaurentQT.monomial(1, 0), LaurentQT.monomial(0, 1)

exponents = st.integers(min_value=-4, max_value=4)
coeffs = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coeffs, max_size=6
).map(LaurentQT)


def test_zero_and_constants():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert LaurentQT.const(0) == ZERO
    assert LaurentQT.const(Fraction(4, 2)) == LaurentQT.const(2)


def test_constants_hash_like_numbers():
    assert len({LaurentQT.const(1), 1}) == 1
    for c in (0, 1, -7, 2**70, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 3)):
        assert LaurentQT.const(c) == c
        assert hash(LaurentQT.const(c)) == hash(c)


def test_terms_sorted_and_no_zeros():
    p = LaurentQT({(1, 0): 2, (0, 1): 3, (2, 2): 0})
    assert p.terms() == [(0, 1, 3), (1, 0, 2)]


def test_negative_exponents():
    p = LaurentQT.monomial(-2, 3)
    q = LaurentQT.monomial(2, -3)
    assert p * q == ONE


def test_coeff_lookup():
    p = Q + T * 5
    assert p.coeff(1, 0) == 1
    assert p.coeff(0, 1) == 5
    assert p.coeff(7, 7) == 0


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO


@settings(max_examples=40)
@given(polys, polys)
def test_exact_divide_round_trip(p, d):
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            (p * d).exact_divide(d)
        return
    assert (p * d).exact_divide(d) == p


def test_exact_divide_detects_remainder():
    p = Q + ONE + T
    with pytest.raises(ExactDivisionError):
        p.exact_divide(Q + ONE)


def test_pickles_at_every_protocol_and_copies():
    p = LaurentQT({(2, -1): Fraction(1, 3), (0, 4): -5})
    expansion = SymExpansion.build(2, "s", {(2,): p, (1, 1): Q + T})
    for value in (p, ZERO, ONE, expansion):
        backs = [pickle.loads(pickle.dumps(value, proto))
                 for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in (*backs, copy.copy(value), copy.deepcopy(value)):
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)
    # the state a slotted value has by default, so the default protocol,
    # which verify's workers send reports with, pickles the same bytes
    assert p.__getstate__() == (None, {"_terms": p._terms})
    assert p.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2] == (
        None, {"_terms": {(2, -1): Fraction(1, 3), (0, 4): -5}})


@settings(max_examples=50)
@given(polys, polys)
def test_evaluate_is_ring_map(p, q):
    at = lambda f: f.evaluate(2, Fraction(1, 3))
    assert at(p + q) == at(p) + at(q)
    assert at(p * q) == at(p) * at(q)


@settings(max_examples=40)
@given(polys)
def test_swap_involution(p):
    assert p.swap_q_t().swap_q_t() == p


def test_specialize_t():
    p = LaurentQT.monomial(2, 1) + LaurentQT.monomial(0, 3)
    # t -> 1/q, then shift by q^3
    assert p.specialize_t(-1, 3) == LaurentQT.monomial(4, 0) + ONE


def qt_from_json(data):
    """Inverse of LaurentQT.to_json."""
    return LaurentQT({(int(qe), int(te)): Fraction(c) for qe, te, c in data})


@settings(max_examples=40)
@given(polys)
def test_json_round_trip(p):
    assert qt_from_json(p.to_json()) == p


# Fraction coefficients with small denominators on few keys, so that terms
# collide, cancel to zero and add up to integers
small_exponents = st.integers(min_value=-2, max_value=2)
scalars = st.one_of(
    coeffs, st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])))
term_pairs = st.lists(
    st.tuples(st.tuples(small_exponents, small_exponents), scalars), max_size=8)


def _per_term(pairs):
    """Reference: the term map of the sum of pairs, with each coefficient
    normalised and each zero popped as every term is added."""
    def norm(c):
        return int(c) if type(c) is Fraction and c.denominator == 1 else c

    tm = {}
    for k, c in pairs:
        cur = norm(tm.get(k, 0) + norm(c))
        if cur:
            tm[k] = cur
        else:
            tm.pop(k, None)
    return tm


def _terms_of(p):
    return {(qe, te): c for qe, te, c in p.terms()}


def _assert_canonical(p):
    for _, _, c in p.terms():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=150)
@given(term_pairs, term_pairs, st.integers(-2, 2), st.integers(-3, 3))
def test_operations_match_per_term_normalisation(x, y, power, shift):
    p, q = LaurentQT(x), LaurentQT(y)
    pt, qt = _per_term(x), _per_term(y)
    cases = [
        (p, pt),
        (p + q, _per_term([*pt.items(), *qt.items()])),
        (p - q, _per_term([*pt.items(), *((k, -c) for k, c in qt.items())])),
        (p * q, _per_term(((q1 + q2, t1 + t2), c1 * c2)
                          for (q1, t1), c1 in pt.items()
                          for (q2, t2), c2 in qt.items())),
        (p.specialize_t(power, shift),
         _per_term(((qe + te * power + shift, 0), c)
                   for (qe, te), c in pt.items())),
        (p.swap_q_t(), _per_term(((te, qe), c) for (qe, te), c in pt.items())),
        (-p, _per_term((k, -c) for k, c in pt.items())),
    ]
    for got, want in cases:
        assert _terms_of(got) == want
        assert got == LaurentQT(want)
        _assert_canonical(got)
    # the constructor takes a map as well as pairs
    assert _terms_of(LaurentQT(dict(x))) == _per_term(dict(x).items())


@settings(max_examples=100)
@given(st.lists(scalars, max_size=6))
def test_constants_equal_and_hash_as_their_value(cs):
    # a sum of Fraction constants that comes out integral is an int
    value = sum(cs, Fraction(0))
    for p in (LaurentQT([((0, 0), c) for c in cs]),
              sum((LaurentQT.const(c) for c in cs), ZERO)):
        _assert_canonical(p)
        assert p == value and hash(p) == hash(value)
        assert p.terms() == ([(0, 0, value)] if value else [])
        if value.denominator == 1:
            assert p == int(value) and hash(p) == hash(int(value))
            assert all(type(c) is int for _, _, c in p.terms())


def test_integral_fractions_are_stored_as_ints():
    half = LaurentQT.monomial(1, 0, Fraction(1, 2))
    for p in (half + half, half * 2, LaurentQT.monomial(1, 0, Fraction(4, 2)),
              (half * half * 4).swap_q_t().swap_q_t()):
        assert [type(c) for _, _, c in p.terms()] == [int]
    assert (half - half).terms() == []
    assert (half * Fraction(2, 3)).terms() == [(1, 0, Fraction(1, 3))]
    assert (half * half * 4).terms() == [(2, 0, 1)]
    assert hash(half + half) == hash(Q) and half + half == Q


def test_constructor_rejects_non_integer_exponents_and_inexact_coefficients():
    for terms in ({(0, 0): 0.5}, {(1.0, 0): 1}, {(0, True): 1},
                  [((0, "1"), 1)], {(0, 0): 1.0}):
        with pytest.raises(TypeError, match="LaurentQT entry"):
            LaurentQT(terms)
    with pytest.raises(TypeError, match="0.5"):
        LaurentQT.const(0.5)
    with pytest.raises(TypeError):
        LaurentQT.monomial(1.0, 0)
    p = LaurentQT([([1, -2], Fraction(1, 2)), ((1, -2), Fraction(1, 2))])
    assert p.terms() == [(1, -2, 1)] and p.to_json() == [[1, -2, "1"]]


def test_power_rejects_an_exponent_that_is_not_an_int():
    # a float used to reach `n & 1` and fail there, naming no exponent
    for n in (1.5, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError, match=re.escape(f"power {n!r}:")):
            LaurentQT.const(2) ** n
    with pytest.raises(ValueError):
        LaurentQT.const(2) ** -1
    assert LaurentQT.const(2) ** 10 == LaurentQT.const(1024)
    assert LaurentQT.const(2) ** 0 == ONE


def test_q_int_and_factorial():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3).evaluate(q=1) == 3
    assert q_factorial(4).evaluate(q=1) == 24


def _dense_q_factorial(n):
    """[n]!_q as a coefficient list."""
    p = [1]
    for j in range(2, n + 1):
        p = _times_q_int(p, j)
    return p


def q_factorial(n):
    """[n]!_q = [1]_q [2]_q ... [n]_q. Only tests use it, so it lives
    test-side."""
    return _from_dense(_dense_q_factorial(n))


def q_binomial_boxcount(s, r):
    """Sum of q^|mu| over partitions mu fitting in an s x r box.

    Enumerates the box directly, so it is an independent route from the
    exact quotients in q_binomial.
    """
    if s < 0 or r < 0:
        raise ValueError("box dimensions must be nonnegative")
    counts = {}

    def rec(rows_left, max_part, weight):
        counts[weight] = counts.get(weight, 0) + 1
        if rows_left == 0:
            return
        for part in range(1, max_part + 1):
            rec(rows_left - 1, part, weight + part)

    rec(s, r if s else 0, 0)
    return LaurentQT({(w, 0): c for w, c in counts.items()})


def test_q_binomial_against_box_count():
    for n in range(17):
        for s in range(n + 1):
            assert q_binomial(n, s) == q_binomial_boxcount(s, n - s)


# The sparse route the dense q-analogues replaced: products of q_int through
# LaurentQT.__mul__, quotients through LaurentQT.exact_divide.

def _sparse_q_factorial(n):
    result = ONE
    for j in range(1, n + 1):
        result = result * q_int(j)
    return result


def _int_coeffs(p):
    return all(type(c) is int for _, _, c in p.terms())


def test_dense_q_analogues_match_sparse_route():
    fact = [_sparse_q_factorial(n) for n in range(25)]
    for n in range(21):
        assert q_factorial(n) == fact[n]
        assert _int_coeffs(q_factorial(n))
        for k in range(n + 1):
            got = q_binomial(n, k)
            assert got == fact[n].exact_divide(fact[k] * fact[n - k]), (n, k)
            assert _int_coeffs(got)
    for a in range(1, 13):
        for b in range(1, 13):
            if gcd(a, b) == 1:
                got = rational_q_catalan(a, b)
                want = fact[a + b].exact_divide(fact[a] * fact[b]).exact_divide(
                    q_int(a + b))
                assert got == want, (a, b)
                assert _int_coeffs(got)


def test_dense_q_analogue_edge_cases():
    assert q_int(0) == ZERO and q_int(0).terms() == []
    assert q_factorial(0) == ONE
    assert q_binomial(0, 0) == ONE
    for n in range(6):
        assert q_binomial(n, 0) == ONE == q_binomial(n, n)
    assert q_binomial(5, 1) == q_int(5)
    with pytest.raises(ValueError):
        q_binomial(3, 4)


def _dense_divide(num, den):
    """Exact quotient num / den of coefficient lists, by long division from
    the top degree; den must end in a nonzero coefficient. Any nonzero
    remainder raises ExactDivisionError. The q-analogues divided with it
    before _divide_q_int; it stays as that function's reference."""
    top = len(den) - 1
    lead = den[top]
    rem = list(num)
    quot = [0] * max(len(num) - top, 0)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + top], lead)
        if r:
            raise ExactDivisionError("nonzero remainder in a q-analogue quotient")
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    if any(rem[:top]):
        raise ExactDivisionError("nonzero remainder in a q-analogue quotient")
    return quot


def _factorial_quotient_q_binomial(n, k):
    """The body _dense_q_binomial had before it divided stepwise:
    [n]!_q over the product [k]!_q [n-k]!_q, in one long division."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial requires 0 <= k <= n, got ({n}, {k})")
    den = _dense_q_factorial(k)
    for j in range(2, n - k + 1):
        den = _times_q_int(den, j)
    return _dense_divide(_dense_q_factorial(n), den)


def test_stepwise_q_binomial_matches_factorial_quotient():
    for n in range(31):
        for k in range(n + 1):
            got = _dense_q_binomial(n, k)
            assert got == _factorial_quotient_q_binomial(n, k), (n, k)
            assert got[-1] != 0 and all(type(c) is int for c in got), (n, k)
    for n, k in ((0, 1), (3, 4), (3, -1), (0, -1), (30, 31)):
        with pytest.raises(ValueError):
            _dense_q_binomial(n, k)
        with pytest.raises(ValueError):
            q_binomial(n, k)


def test_dense_divide_detects_remainder():
    assert _dense_divide([1, 2, 2, 1], [1, 1]) == [1, 1, 1]
    assert _dense_divide([], [1, 1]) == []
    for num, den in (([1, 1, 1, 1], [1, 1, 1]),  # [4]_q / [3]_q
                     ([3], [2]),                  # 3 / 2 leaves 1
                     ([0, 3], [0, 2]),            # 3q / 2q leaves q
                     ([1], [1, 1])):              # divisor of higher degree
        with pytest.raises(ExactDivisionError):
            _dense_divide(num, den)


def _quotient_or_error(divide, num, den):
    try:
        return divide(num, den)
    except ExactDivisionError:
        return ExactDivisionError


def test_division_by_q_int_matches_long_division():
    # every q-binomial [n, k] with n <= 24 over [j]_q for j = 1..n+1, and
    # for j as long as it and one longer: the same quotient, or
    # ExactDivisionError from both
    exact = tried = 0
    for n in range(25):
        for k in range(n + 1):
            num = _dense_q_binomial(n, k)
            for j in {*range(1, n + 2), len(num), len(num) + 1}:
                got = _quotient_or_error(_divide_q_int, num, j)
                assert got == _quotient_or_error(_dense_divide, num, [1] * j), (
                    n, k, j)
                exact += got is not ExactDivisionError
                tried += 1
    assert 0 < exact < tried  # both outcomes occur
    for num, j in (([], 1), ([], 3), ([1], 2), ([1, 2, 2, 1], 2), ([2, 2], 2)):
        assert _quotient_or_error(_divide_q_int, num, j) == _quotient_or_error(
            _dense_divide, num, [1] * j), (num, j)


def test_dense_divide_check_survives_optimize():
    code = (
        "from ratcat.qt import ExactDivisionError, _divide_q_int\n"
        "try:\n"
        "    _divide_q_int([1, 1, 1, 1], 3)\n"
        "except ExactDivisionError:\n"
        "    print('raised')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def test_q_binomial_examples():
    # [4 choose 2] = 1 + q + 2q^2 + q^3 + q^4
    assert q_binomial(4, 2) == LaurentQT(
        {(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1}
    )


def test_rational_q_catalan_small():
    assert rational_q_catalan(2, 3) == ONE + LaurentQT.monomial(2, 0)
    got = rational_q_catalan(3, 5)
    want = LaurentQT({(e, 0): 1 for e in (0, 2, 3, 4, 5, 6, 8)})
    assert got == want


def test_rational_q_catalan_polynomiality():
    from math import gcd

    for a in range(1, 13):
        for b in range(1, 13):
            if gcd(a, b) != 1:
                continue
            p = rational_q_catalan(a, b)
            for qe, te, c in p.terms():
                assert te == 0 and qe >= 0
                assert isinstance(c, int) and c > 0


def test_rational_q_catalan_rejects_non_coprime():
    with pytest.raises(ValueError):
        rational_q_catalan(4, 6)
