"""Symmetric function engine: expansions, conversions, pairings."""

import functools
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratcat.partitions import (
    conjugate,
    multiplicities,
    normalize,
    partitions_of,
    z_lambda,
)
from ratcat.qt import ZERO, LaurentQT
from ratcat.symfunc import (
    BASES,
    SymExpansion,
    VarPoly,
    _basis_in_m,
    _distinct_perm_count,
    _horizontal_strip_removals,
    _m_product,
    _max_exponent,
    basis_convert,
    h_poly,
    hook_length_dim,
    kostka,
    p_poly,
    schur_principal_special,
    varpoly_to_m,
)
from test_qt import qt_from_json

Q, T = LaurentQT.monomial(1, 0), LaurentQT.monomial(0, 1)


# -- the h and p routes and the pairings built on them -----------------------
#
# No command converts into h or p, so these reference routes live test-side;
# to_basis reaches all four bases, m and s through src's basis_convert.


def single(degree, basis, mu, coeff=1):
    return SymExpansion.build(degree, basis, {normalize(mu): coeff})


def _m_to_p(f: SymExpansion):
    """Peel the lexicographically smallest partition.

    The m-support of p_mu consists of coarsenings of mu, all lex-greater or
    equal, and the coefficient of m_mu in p_mu is prod_j m_j(mu)!, so the
    system is triangular from below. Quotients can be Fractions.
    """
    rem = f.as_dict()
    out = {}
    while rem:
        lam = min(rem)
        lead = 1
        for m in multiplicities(lam).values():
            lead *= factorial(m)
        c = rem[lam] * Fraction(1, lead)
        out[lam] = c
        for mu, pc in _basis_in_m("p", lam).coeffs:
            cur = rem.get(mu, ZERO) - c * pc
            if cur.is_zero():
                rem.pop(mu, None)
            else:
                rem[mu] = cur
    return SymExpansion.build(f.degree, "p", out)


def _s_to_h(f: SymExpansion):
    """Jacobi-Trudi: s_lam = det(h_{lam_i - i + j}), expanded over S_l."""
    out = {}
    for lam, c in f.coeffs:
        ell = len(lam)
        if ell == 0:
            out[()] = out.get((), ZERO) + c
            continue
        for sigma in itertools.permutations(range(ell)):
            rows = [lam[i] - i + sigma[i] for i in range(ell)]
            if any(r < 0 for r in rows):
                continue
            sign = _perm_sign(sigma)
            mu = normalize(tuple(sorted((r for r in rows if r > 0), reverse=True)))
            out[mu] = out.get(mu, ZERO) + c * sign
    return SymExpansion.build(f.degree, "h", out)


def _perm_sign(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def to_basis(f: SymExpansion, target):
    """f in any of the four bases: m and s by basis_convert, p by peeling
    the m-expansion, h by Jacobi-Trudi on the s-expansion."""
    if f.basis == target:
        return f
    if target == "p":
        return _m_to_p(basis_convert(f, "m"))
    if target == "h":
        return _s_to_h(basis_convert(f, "s"))
    return basis_convert(f, target)


def hall_inner(f: SymExpansion, g: SymExpansion):
    """Hall inner product, via duality of the h and m bases."""
    if f.degree != g.degree:
        raise ValueError("degree mismatch in hall_inner")
    fm = basis_convert(f, "m").as_dict()
    gh = to_basis(g, "h").as_dict()
    total = LaurentQT.zero()
    for lam, c in gh.items():
        if lam in fm:
            total = total + fm[lam] * c
    return total


def omega(f: SymExpansion):
    """The involution p_k -> (-1)^(k-1) p_k, returned in f's original basis."""
    fp = to_basis(f, "p")
    flipped = SymExpansion.build(
        f.degree,
        "p",
        {
            lam: c * ((-1) ** (sum(lam) - len(lam)))
            for lam, c in fp.coeffs
        },
    )
    return to_basis(flipped, f.basis)


def test_varpoly_to_m():
    assert varpoly_to_m(h_poly(2, 2), 2).as_dict() == {
        (2,): LaurentQT.const(1),
        (1, 1): LaurentQT.const(1),
    }
    assert varpoly_to_m(p_poly(2, 2), 2).as_dict() == {(2,): LaurentQT.const(1)}


def test_varpoly_to_m_rejects_asymmetric():
    with pytest.raises(ValueError):
        varpoly_to_m(VarPoly(2, {(2, 0): 1}), 2)


def _reference_mul(x, y):
    """The tuple-key product that packed-key VarPoly.__mul__ replaced."""
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            cur = out.get(key, 0) + c1 * c2
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
    return out


def _scaled(poly, c):
    return VarPoly(poly.k, {ev: v * c for ev, v in poly.terms.items()})


def test_varpoly_mul_matches_tuple_keys():
    coefficients = (1, -3, Fraction(2, 7), Q + 2 * T)
    for k in range(1, 8):
        pieces = [maker(r, k) for maker in (h_poly, p_poly)
                  for r in range(0, 8 - k + 1)]
        for i, x in enumerate(pieces):
            for y in pieces[i:]:
                assert (x * y).terms == _reference_mul(x, y), (k, x.terms)
        x, y = h_poly(2, k), p_poly(3, k)
        for c in coefficients:
            for left, right in ((_scaled(x, c), y), (x, _scaled(y, c)),
                                (_scaled(x, c), _scaled(y, c))):
                assert (left * right).terms == _reference_mul(left, right)
    # a product of products: keys and exponents larger than one operand's
    x = h_poly(3, 4) * p_poly(2, 4)
    assert (x * x).terms == _reference_mul(x, x)


def test_basis_in_m_matches_the_varpoly_product():
    # h_lam and p_lam as products of one-row pieces in n explicit variables,
    # the route the dominant-monomial products replaced
    for n in range(9):
        for lam in partitions_of(n):
            for basis, maker in (("h", h_poly), ("p", p_poly)):
                poly = VarPoly.one(max(n, 1))
                for part in lam:
                    poly = poly * maker(part, max(n, 1))
                assert _basis_in_m(basis, lam) == varpoly_to_m(poly, n), (
                    basis, lam)


def test_varpoly_helpers_match_direct_counts():
    for k in range(1, 6):
        for n in range(k + 2):
            for lam in partitions_of(n):
                if len(lam) <= k:
                    padded = lam + (0,) * (k - len(lam))
                    assert _distinct_perm_count(lam, k) == len(
                        set(itertools.permutations(padded))), (lam, k)
        poly = h_poly(3, k) * p_poly(2, k)
        assert _max_exponent(poly.terms) == max(map(max, poly.terms))
        assert VarPoly._of(k, dict(poly.terms)).terms == VarPoly(
            k, poly.terms).terms
    assert _max_exponent({}) == 0


def test_m_product_on_small_cases():
    # m_1 * m_1 = m_2 + 2 m_11, m_1 * m_2 = m_3 + m_21
    assert _m_product({(1,): 1}, {(1,): 1}, 1, 1) == {(2,): 1, (1, 1): 2}
    assert _m_product({(1,): 1}, {(2,): 1}, 1, 2) == {(3,): 1, (2, 1): 1}
    assert _m_product({(): 3}, {(2,): 1, (1, 1): -1}, 0, 2) == {
        (2,): 3, (1, 1): -3}
    assert _m_product({(1,): 1}, {}, 1, 2) == {}


def test_varpoly_mul_stores_no_cancelled_term():
    for one in (1, Fraction(1, 3), Q):
        minus = VarPoly(2, {(1, 0): one, (0, 1): -one})
        plus = VarPoly(2, {(1, 0): one, (0, 1): one})
        square = one * one
        assert (minus * plus).terms == {(2, 0): square, (0, 2): -square}
        assert (minus * plus).terms == _reference_mul(minus, plus)


def test_varpoly_scalar_multiply():
    x = h_poly(3, 3)
    assert (x * 2).terms == {ev: 2 * c for ev, c in x.terms.items()}
    assert (x * Fraction(1, 2)).terms == {
        ev: Fraction(c, 2) for ev, c in x.terms.items()}
    assert (x * T).terms == {
        ev: LaurentQT.monomial(0, 1, c) for ev, c in x.terms.items()}
    assert (x * 0).terms == {}


def test_varpoly_rejects_mismatched_and_negative_exponents():
    with pytest.raises(ValueError, match="variable count"):
        h_poly(2, 3) * h_poly(2, 4)
    with pytest.raises(ValueError, match="wrong length"):
        VarPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="negative"):
        VarPoly(2, {(2, -1): 1})


def test_kostka():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    for lam in partitions_of(5):
        assert kostka(lam, lam) == 1


# -- the Kostka-sum Schur layer, kept as the reference of the closed formulas


def _strip_removals_recursive(shape, strip_size):
    """All partitions nu with shape/nu a horizontal strip of the given size,
    choosing nu_i row by row and pruning once too many cells are removed."""
    rows = len(shape)

    def rec(i, remaining, prefix):
        if i == rows:
            if remaining == 0:
                yield normalize(prefix)
            return
        lower = shape[i + 1] if i + 1 < rows else 0
        upper = shape[i]
        cap = prefix[-1] if prefix else None
        for nu_i in range(lower, upper + 1):
            removed = upper - nu_i
            if removed > remaining:
                continue
            if cap is not None and nu_i > cap:
                continue
            yield from rec(i + 1, remaining - removed, prefix + (nu_i,))

    yield from rec(0, strip_size, ())


@functools.lru_cache(maxsize=None)
def _kostka_recursive(shape, content):
    """kostka with its special cases spelled out: a last letter 0 is
    dropped, and a one-letter content fills only the one-row shape."""
    shape = normalize(shape)
    if sum(shape) != sum(content):
        return 0
    if not shape:
        return 1
    last = content[-1]
    if last == 0:
        return _kostka_recursive(shape, content[:-1])
    if len(content) == 1:
        return 1 if shape == (last,) else 0
    return sum(_kostka_recursive(inner, content[:-1])
               for inner in _strip_removals_recursive(shape, last))


def _kostka_sum_schur_special(lam, b):
    """s_lam(1^b) as the sum over mu of K(lam, mu) times the number of
    compositions of length b that sort to mu."""
    lam = normalize(lam)
    total = 0
    for mu in partitions_of(sum(lam)):
        ell = len(mu)
        if ell > b:
            continue
        ways = factorial(b)
        for m in multiplicities(mu).values():
            ways //= factorial(m)
        ways //= factorial(b - ell)
        total += _kostka_recursive(lam, mu) * ways
    return total


def _weak_compositions(n, length):
    """Every tuple of `length` nonnegative ints that sums to n."""
    if length == 0:
        return [()] if n == 0 else []
    return [(first,) + rest for first in range(n + 1)
            for rest in _weak_compositions(n - first, length - 1)]


def test_strip_removals_match_the_recursion():
    for n in range(9):
        for shape in partitions_of(n):
            for size in range(n + 1):
                assert (list(_horizontal_strip_removals(shape, size))
                        == list(_strip_removals_recursive(shape, size)))


def test_kostka_matches_the_recursion_with_its_special_cases():
    pairs = 0
    for n in range(7):
        for shape in partitions_of(n):
            for length in range(n + 2):
                for content in _weak_compositions(n, length):
                    assert (kostka(shape, content)
                            == _kostka_recursive(shape, content)), (shape, content)
                    pairs += 1
    assert pairs == 22870


def test_hook_content_matches_the_kostka_sum():
    for n in range(11):
        for lam in partitions_of(n):
            for b in range(12):
                assert (schur_principal_special(lam, b)
                        == _kostka_sum_schur_special(lam, b)), (lam, b)


def _semistandard_contents(lam, b):
    """{content: how many fillings of lam with entries 1..b have it}, over
    the fillings whose rows weakly increase and columns strictly increase;
    content is the tuple of the counts of 1..b."""
    cells = [(i, j) for i, p in enumerate(lam) for j in range(p)]
    out = {}
    for values in itertools.product(range(1, b + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        rows_ok = all(t[i, j - 1] <= v for (i, j), v in t.items() if j)
        columns_ok = all(t[i - 1, j] < v for (i, j), v in t.items() if i)
        if rows_ok and columns_ok:
            content = tuple(values.count(x) for x in range(1, b + 1))
            out[content] = out.get(content, 0) + 1
    return out


def test_schur_numbers_count_semistandard_fillings():
    for n in range(6):
        for lam in partitions_of(n):
            for b in range(5):
                counts = _semistandard_contents(lam, b)
                assert schur_principal_special(lam, b) == sum(counts.values())
                for content in _weak_compositions(n, b):
                    assert kostka(lam, content) == counts.get(content, 0)


def test_build_adds_keys_equal_after_normalize():
    assert SymExpansion.build(2, "m", {(2,): 1, (2, 0): 1}).coeffs == (
        ((2,), LaurentQT.const(2)),)
    assert SymExpansion.build(2, "m", {(2,): 1, (2, 0): -1}).coeffs == ()
    f = SymExpansion.build(3, "m", {(2, 1): 1, (2, 1, 0): 2})
    assert f.coeffs == (((2, 1), LaurentQT.const(3)),)


def test_basis_examples():
    assert basis_convert(single(2, "h", (1, 1)), "s") == (
        single(2, "s", (2,)) + single(2, "s", (1, 1))
    )
    assert basis_convert(single(2, "p", (2,)), "s") == (
        single(2, "s", (2,)) + single(2, "s", (1, 1), -1)
    )
    f = single(2, "s", (2,), 2) + single(2, "s", (1, 1))
    assert to_basis(f, "h") == single(2, "h", (2,)) + single(2, "h", (1, 1))


def test_round_trips():
    rng = random.Random(7)
    for deg in (2, 3, 4, 5, 6):
        for basis in "mhps":
            f = SymExpansion.build(
                deg, basis,
                {lam: rng.randint(-3, 3) for lam in partitions_of(deg)},
            )
            for target in "mhps":
                assert to_basis(to_basis(f, target), basis) == f


def test_basis_convert_targets_m_and_s_only():
    f = single(3, "s", (2, 1))
    for target in ("p", "h", "x"):
        with pytest.raises(ValueError, match=repr(target)):
            basis_convert(f, target)
    # also when f is already in that basis
    with pytest.raises(ValueError, match="'h'"):
        basis_convert(single(3, "h", (2, 1)), "h")


def test_to_basis_matches_basis_convert_on_m_and_s():
    # for m and s, straight and by way of the test-side h and p routes
    for n in range(6):
        for basis in BASES:
            for lam in partitions_of(n):
                f = single(n, basis, lam, 2 * Q - T)
                for target in "ms":
                    want = basis_convert(f, target)
                    assert to_basis(f, target) == want, (basis, lam, target)
                    for via in "hp":
                        assert basis_convert(to_basis(f, via), target) == want


def test_omega_on_a_schur_expansion_transposes_its_shapes():
    # the p-basis route against the shortcut s_lam -> s_lam'
    rng = random.Random(11)
    for n in range(1, 7):
        coeffs = {lam: rng.randint(-3, 3) * Q + rng.randint(-2, 2) * T
                  for lam in partitions_of(n)}
        f = SymExpansion.build(n, "s", coeffs)
        transposed = SymExpansion.build(
            n, "s", {conjugate(lam): c for lam, c in f.coeffs})
        assert omega(f) == transposed, n


def test_hall_inner_dualities():
    for n in (2, 3, 4):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                s = hall_inner(single(n, "s", lam), single(n, "s", mu))
                assert s == LaurentQT.const(1 if lam == mu else 0)
                p = hall_inner(single(n, "p", lam), single(n, "p", mu))
                want = z_lambda(lam) if lam == mu else 0
                assert p == LaurentQT.const(want)
    assert hall_inner(single(2, "h", (2,)), single(2, "m", (2,))) == LaurentQT.const(1)


def test_hall_inner_degree_mismatch():
    with pytest.raises(ValueError):
        hall_inner(single(2, "m", (2,)), single(3, "m", (3,)))


def test_omega():
    for n in (2, 3, 4, 5):
        for lam in partitions_of(n):
            assert omega(single(n, "s", lam)) == single(n, "s", conjugate(lam))
    assert omega(single(3, "p", (1, 1, 1))) == single(3, "p", (1, 1, 1))


@settings(max_examples=20)
@given(st.integers(2, 5), st.data())
def test_omega_involution(deg, data):
    coeffs = {
        lam: data.draw(st.integers(-2, 2)) for lam in partitions_of(deg)
    }
    f = SymExpansion.build(deg, "s", coeffs)
    assert omega(omega(f)) == f


def test_schur_principal_special():
    assert schur_principal_special((2,), 3) == 6
    for b in (1, 2, 4):
        assert schur_principal_special((1,) * b, b) == 1
    # ell(lam) > b gives zero
    assert schur_principal_special((1, 1, 1), 2) == 0


def test_hook_length_dim():
    assert hook_length_dim((2, 2)) == 2
    assert hook_length_dim((3, 1)) == 3
    total = sum(hook_length_dim(lam) ** 2 for lam in partitions_of(5))
    assert total == 120


def cauchy_slices(n):
    """The three degree-n Cauchy kernels in x_1..x_n, y_1..y_n.

    Returns (h*m, p*p/z, s*s) as VarPoly objects in 2n variables so callers
    can assert they agree. Only tests use it, so it lives test-side.
    """
    k = 2 * n

    def embed_x(poly):
        return VarPoly(k, {ev + (0,) * n: c for ev, c in poly.terms.items()})

    def embed_y(poly):
        return VarPoly(k, {(0,) * n + ev: c for ev, c in poly.terms.items()})

    def expansion_poly(f: SymExpansion, embed):
        total = VarPoly(k)
        fm = basis_convert(f, "m")
        for lam, c in fm.coeffs:
            mono = VarPoly(n)
            for ev in set(itertools.permutations(lam + (0,) * (n - len(lam)))):
                mono = mono + VarPoly(n, {ev: 1})
            total = total + embed(mono) * c
        return total

    def pair(basis, weight):
        total = VarPoly(k)
        for lam in partitions_of(n):
            fx = expansion_poly(single(n, basis, lam), embed_x)
            fy = expansion_poly(single(n, basis, lam), embed_y)
            total = total + (fx * fy) * weight(lam)
        return total

    hm = VarPoly(k)
    for lam in partitions_of(n):
        hx = expansion_poly(single(n, "h", lam), embed_x)
        my = expansion_poly(single(n, "m", lam), embed_y)
        hm = hm + hx * my
    pp = pair("p", lambda lam: Fraction(1, z_lambda(lam)))
    ss = pair("s", lambda lam: 1)
    return hm, pp, ss


def test_cauchy_identity():
    for n in (1, 2, 3, 4, 5):
        hm, pp, ss = cauchy_slices(n)
        assert hm.terms == pp.terms
        assert pp.terms == ss.terms


def expansion_from_json(data):
    """Inverse of SymExpansion.to_json."""
    return SymExpansion.build(
        data["degree"], data["basis"],
        {tuple(mu): qt_from_json(c) for mu, c in data["terms"]})


def test_json_round_trip():
    f = single(3, "s", (2, 1), Q + T)
    assert expansion_from_json(f.to_json()) == f
