"""Degree-bounded symmetric functions in the m, h, p and s bases.

The monomial basis is the hub: h and p reach it as products of one-row
pieces (h_r is the sum of all m_mu with mu a partition of r, p_r is m_(r)), s
by Kostka numbers, and m reaches s by peeling the unitriangular Kostka
system. basis_convert converts into m and s only, the two targets the
commands use. A product of two m-expansions is read off the dominant
monomials of the result (_m_product), so no monomial is ever expanded.
s_lam(1^b) is the hook-content product over the cells of lam, and reads
no Kostka number.

The conversions into h and p, and the Hall pairing and omega built on them,
are the tests' reference routes and live in tests/test_symfunc.py.

VarPoly, a polynomial in explicit variables, remains as the tests' reference
route (the Cauchy kernels, h and p products, the generating-function
Frobenius): everything homogeneous of degree n is expanded in exactly n
variables, which is faithful since no partition of n has more than n parts.
Its products multiply on exponent vectors packed into ints, so a monomial
product is one int addition. It and its helpers (h_poly, p_poly,
varpoly_to_m) stay here, not test-side, because perfbench/tracing.py reads
symfunc.VarPoly whenever it installs its spans.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod
from operator import mul, sub

from .partitions import (
    conjugate,
    multiplicities,
    normalize,
    partitions_of,
)
from .qt import ZERO, LaurentQT, Record, exact_quotient

BASES = ("m", "h", "p", "s")


class SymExpansion(Record):
    """A homogeneous symmetric function in one of the m, h, p, s bases."""

    _fields = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: tuple):
        # coeffs: sorted ((partition, LaurentQT), ...), no zeros
        self.__dict__.update(degree=degree, basis=basis, coeffs=coeffs)
        self.__post_init__()

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        for mu, c in self.coeffs:
            if sum(mu) != self.degree:
                raise ValueError(f"{mu} is not a partition of {self.degree}")
            if c.is_zero():
                raise ValueError("zero coefficient stored")

    @classmethod
    def build(cls, degree, basis, mapping):
        """The expansion sum c * basis_mu over mapping {mu: c}; keys equal
        after normalize, as (2,) and (2, 0), add up."""
        summed = {}
        for mu, c in mapping.items():
            mu, c = normalize(mu), LaurentQT.coerce(c)
            summed[mu] = summed[mu] + c if mu in summed else c
        return cls(degree, basis, tuple(
            (mu, c) for mu, c in sorted(summed.items(), reverse=True)
            if not c.is_zero()))

    def as_dict(self):
        return dict(self.coeffs)

    def coeff(self, mu):
        mu = normalize(mu)
        for key, c in self.coeffs:
            if key == mu:
                return c
        return LaurentQT.zero()

    def __add__(self, other):
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("can only add expansions in the same basis and degree")
        out = self.as_dict()
        for mu, c in other.coeffs:
            out[mu] = out.get(mu, ZERO) + c
        return SymExpansion.build(self.degree, self.basis, out)

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": self.basis,
            "terms": [[list(mu), c.to_json()] for mu, c in self.coeffs],
        }


# -- finite-variable polynomials -------------------------------------------


class VarPoly:
    """Homogeneous polynomial in k variables: exponent vector -> coefficient.

    terms maps exponent tuples (nonnegative ints) to coefficients, which may
    be ints, Fractions, or LaurentQT; zero entries are never stored. A
    product packs each operand's exponent vectors into ints once, in a base
    larger than any exponent the product can reach, so that multiplying two
    monomials is one int addition with no carry between variables.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k, terms=None):
        self.k = k
        self.terms = {}
        if terms:
            for ev, c in terms.items():
                if len(ev) != k:
                    raise ValueError(f"exponent vector {ev} has wrong length")
                if min(ev, default=0) < 0:
                    raise ValueError(f"exponent vector {ev} has a negative entry")
                if c:
                    self.terms[ev] = c

    def __mul__(self, other):
        if isinstance(other, VarPoly):
            if other.k != self.k:
                raise ValueError("variable count mismatch")
            # digit i of a packed key is the exponent of variable i; no digit
            # of a product reaches base, so keys add without carries
            base = 1 + _max_exponent(self.terms) + _max_exponent(other.terms)
            weights = [base ** i for i in range(self.k)]
            right = [(sum(map(mul, ev, weights)), c)
                     for ev, c in other.terms.items()]
            out = {}
            get = out.get
            for e1, c1 in self.terms.items():
                k1 = sum(map(mul, e1, weights))
                for k2, c2 in right:
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
            terms = {
                tuple([key // w % base for w in weights]): c
                for key, c in out.items() if c
            }
            return VarPoly._of(self.k, terms)
        return VarPoly(self.k, {ev: c * other for ev, c in self.terms.items()})

    @classmethod
    def _of(cls, k, terms):
        """A VarPoly on terms already checked: exponent tuples of length k
        with no negative entry, and no zero coefficient."""
        out = cls.__new__(cls)
        out.k = k
        out.terms = terms
        return out

    def __add__(self, other):
        if other.k != self.k:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for ev, c in other.terms.items():
            cur = out.get(ev, 0) + c
            if cur:
                out[ev] = cur
            else:
                out.pop(ev, None)
        return VarPoly._of(self.k, out)

    def coeff(self, ev):
        return self.terms.get(tuple(ev), 0)

    @classmethod
    def one(cls, k):
        return cls(k, {(0,) * k: 1})


def _max_exponent(terms):
    """The largest exponent of any variable in any of the exponent tuples."""
    return max(itertools.chain.from_iterable(terms), default=0)


def h_poly(r, k):
    """Complete homogeneous h_r in k variables."""
    terms = {}
    for combo in itertools.combinations_with_replacement(range(k), r):
        ev = [0] * k
        for i in combo:
            ev[i] += 1
        terms[tuple(ev)] = terms.get(tuple(ev), 0) + 1
    return VarPoly(k, terms)


def p_poly(r, k):
    """Power sum p_r in k variables."""
    terms = {}
    for i in range(k):
        ev = [0] * k
        ev[i] = r
        terms[tuple(ev)] = 1
    return VarPoly(k, terms)


def varpoly_to_m(poly: VarPoly, n):
    """Collect a symmetric VarPoly into the monomial basis at degree n.

    The coefficient of m_lam is read off the dominant exponent ordering; one
    non-dominant reordering per partition is compared to catch asymmetric
    input.
    """
    out = {}
    for lam in partitions_of(n):
        if len(lam) > poly.k:
            continue
        dominant = lam + (0,) * (poly.k - len(lam))
        c = poly.coeff(dominant)
        other = dominant[::-1]
        if other != dominant and poly.coeff(other) != c:
            raise ValueError(f"input not symmetric at exponent {lam}")
        if c:
            out[lam] = c
    collected = SymExpansion.build(n, "m", out)
    total = sum(1 for _ in poly.terms)
    expected = sum(_distinct_perm_count(lam, poly.k) for lam, _ in collected.coeffs)
    if total != expected:
        raise ValueError("input not symmetric: stray monomials remain")
    return collected


def _distinct_perm_count(lam, k):
    ev = list(lam) + [0] * (k - len(lam))
    denom = 1
    for m in multiplicities(tuple(x for x in ev if x)).values():
        denom *= factorial(m)
    denom *= factorial(ev.count(0))
    return factorial(k) // denom


# -- Kostka numbers --------------------------------------------------------


@lru_cache(maxsize=None)
def kostka(shape, content):
    """Number of semistandard tableaux of the given shape and content.

    The cells holding the last letter form a horizontal strip, so the count
    sums over the ways to strip it; the empty content fills only ().
    """
    shape = normalize(shape)
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    return sum(kostka(inner, content[:-1])
               for inner in _horizontal_strip_removals(shape, content[-1]))


def _horizontal_strip_removals(shape, strip_size):
    """All partitions nu with shape/nu a horizontal strip of the given size:
    those that interlace shape, shape[i+1] <= nu_i <= shape[i], and have
    strip_size cells fewer."""
    size = sum(shape) - strip_size
    ranges = map(range, shape[1:] + (0,), [p + 1 for p in shape])
    for nu in itertools.product(*ranges):
        if sum(nu) == size:
            yield normalize(nu)


# -- basis elements expanded in the monomial basis -------------------------


def _one_row(basis, r):
    """h_r or p_r as an m-basis dict {partition: coeff}: h_r is the sum of
    every monomial of degree r, p_r is m_(r)."""
    if basis == "h":
        return dict.fromkeys(partitions_of(r), 1)
    return {(r,): 1}


def _m_product(f, g, df, dg):
    """The product of two symmetric functions given as m-basis dicts
    {partition: coeff} of degrees df and dg, as such a dict of degree df+dg.

    The coefficient of m_lam in f*g is that of the dominant monomial x^lam:
    the sum of f[sort alpha] * g[sort(lam - alpha)] over the vectors
    0 <= alpha <= lam with |alpha| = df. Only the partitions of df+dg are
    read, and no monomial is expanded.
    """
    out = {}
    for lam in partitions_of(df + dg):
        c = 0
        for left, right, ways in _splits(lam)[df]:
            x = f.get(left)
            if x:
                y = g.get(right)
                if y:
                    c += ways * x * y
        if c:
            out[lam] = c
    return out


@lru_cache(maxsize=None)
def _splits(lam):
    """{d: ((sort alpha, sort(lam - alpha), how many alpha), ...)} over the
    vectors 0 <= alpha <= lam, grouped by d = |alpha|; sort v is the
    partition of the nonzero entries of v."""
    counts = {}
    for alpha in itertools.product(*[range(p + 1) for p in lam]):
        key = (_parts(alpha), _parts(map(sub, lam, alpha)))
        by_key = counts.setdefault(sum(alpha), {})
        by_key[key] = by_key.get(key, 0) + 1
    return {d: tuple((*key, ways) for key, ways in by_key.items())
            for d, by_key in counts.items()}


def _parts(vector):
    return tuple(sorted([v for v in vector if v], reverse=True))


@lru_cache(maxsize=None)
def _basis_in_m(basis, lam):
    n = sum(lam)
    if basis == "m":
        return SymExpansion.build(n, "m", {lam: 1})
    if basis == "s":
        return SymExpansion.build(
            n, "m", {mu: kostka(lam, mu) for mu in partitions_of(n)}
        )
    out, degree = {(): 1}, 0
    for part in lam:
        out = _m_product(out, _one_row(basis, part), degree, part)
        degree += part
    return SymExpansion.build(n, "m", out)


def _to_m(f: SymExpansion):
    out = {}
    for lam, c in f.coeffs:
        for mu, base_c in _basis_in_m(f.basis, lam).coeffs:
            out[mu] = out.get(mu, ZERO) + c * base_c
    return SymExpansion.build(f.degree, "m", out)


def _m_to_s(f: SymExpansion):
    """Peel the lexicographically greatest partition; K is unitriangular."""
    rem = f.as_dict()
    out = {}
    while rem:
        lam = max(rem)
        c = rem[lam]
        out[lam] = c
        for mu, k in _basis_in_m("s", lam).coeffs:
            cur = rem.get(mu, ZERO) - c * k
            if cur.is_zero():
                rem.pop(mu, None)
            else:
                rem[mu] = cur
    return SymExpansion.build(f.degree, "s", out)


def basis_convert(f: SymExpansion, target):
    """f in the m or the s basis. No command converts into h or p; those
    routes, and the pairings built on them, are the tests' reference."""
    if target not in ("m", "s"):
        raise ValueError(f"basis_convert converts to m or s only, not {target!r}")
    if f.basis == target:
        return f
    g = f if f.basis == "m" else _to_m(f)
    return g if target == "m" else _m_to_s(g)


def _hooks(lam):
    """(content j - i, hook length) of each cell (i, j) of the partition lam."""
    conj = conjugate(lam)
    return [(j - i, p - j + conj[j] - i - 1)
            for i, p in enumerate(lam) for j in range(p)]


def schur_principal_special(lam, b):
    """s_lam(1^b), the number of semistandard tableaux of shape lam with
    entries <= b, by hook-content: prod (b + content) / prod hook."""
    cells = _hooks(normalize(lam))
    return exact_quotient(prod(b + c for c, _ in cells),
                          prod(h for _, h in cells))


def hook_length_dim(lam):
    """Number of standard tableaux of shape lam, by the hook length formula."""
    lam = normalize(lam)
    return exact_quotient(factorial(sum(lam)), prod(h for _, h in _hooks(lam)))
