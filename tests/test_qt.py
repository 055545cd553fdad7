"""Laurent polynomial ring and q-analogue constructors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcat.qt import (
    ExactDivisionError,
    LaurentQT,
    ONE,
    ZERO,
    q_binomial,
    q_binomial_boxcount,
    q_factorial,
    q_int,
    rational_q_catalan,
)

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
    p = LaurentQT.q() + LaurentQT.t() * 5
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
    p = LaurentQT.q() + ONE + LaurentQT.t()
    with pytest.raises(ExactDivisionError):
        p.exact_divide(LaurentQT.q() + ONE)


@settings(max_examples=40)
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


@settings(max_examples=40)
@given(polys)
def test_json_round_trip(p):
    assert LaurentQT.from_json(p.to_json()) == p


def test_q_int_and_factorial():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3).evaluate(q=1) == 3
    assert q_factorial(4).evaluate(q=1) == 24


def test_q_binomial_against_box_count():
    for s in range(9):
        for r in range(9):
            assert q_binomial(s + r, s) == q_binomial_boxcount(s, r)


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
