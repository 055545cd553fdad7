"""Degree-bounded symmetric and quasisymmetric functions.

Everything homogeneous of degree n is expanded in exactly n variables, which
is faithful since no partition of n has more than n parts. The monomial basis
is the hub: h and p reach it by expanding products of one-row pieces, s by
Kostka numbers, and the reverse direction peels triangular systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import (
    conjugate,
    multiplicities,
    normalize,
    partitions_of,
    z_lambda,
)
from .qt import LaurentQT, exact_quotient

BASES = ("m", "h", "p", "s")


def _as_poly(c):
    if isinstance(c, LaurentQT):
        return c
    return LaurentQT.const(c)


@dataclass(frozen=True)
class SymExpansion:
    """A homogeneous symmetric function in one of the m, h, p, s bases."""

    degree: int
    basis: str
    coeffs: tuple  # sorted ((partition, LaurentQT), ...), no zeros

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
        items = []
        for mu, c in mapping.items():
            c = _as_poly(c)
            if not c.is_zero():
                items.append((normalize(mu), c))
        items.sort(reverse=True)
        return cls(degree, basis, tuple(items))

    def as_dict(self):
        return dict(self.coeffs)

    def coeff(self, mu):
        mu = normalize(mu)
        for key, c in self.coeffs:
            if key == mu:
                return c
        return LaurentQT.zero()

    def scale(self, c):
        c = _as_poly(c)
        return SymExpansion.build(
            self.degree, self.basis, {mu: v * c for mu, v in self.coeffs}
        )

    def __add__(self, other):
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("can only add expansions in the same basis and degree")
        out = self.as_dict()
        for mu, c in other.coeffs:
            out[mu] = out.get(mu, LaurentQT.zero()) + c
        return SymExpansion.build(self.degree, self.basis, out)

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": self.basis,
            "terms": [[list(mu), c.to_json()] for mu, c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        return cls.build(
            data["degree"],
            data["basis"],
            {tuple(mu): LaurentQT.from_json(c) for mu, c in data["terms"]},
        )


def single(degree, basis, mu, coeff=1):
    return SymExpansion.build(degree, basis, {normalize(mu): coeff})


# -- finite-variable polynomials -------------------------------------------


class VarPoly:
    """Homogeneous polynomial in k variables: exponent vector -> coefficient.

    Coefficients may be ints, Fractions, or LaurentQT; zero entries are never
    stored.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k, terms=None):
        self.k = k
        self.terms = {}
        if terms:
            for ev, c in terms.items():
                if len(ev) != k:
                    raise ValueError(f"exponent vector {ev} has wrong length")
                if c:
                    self.terms[ev] = c

    def __mul__(self, other):
        if isinstance(other, VarPoly):
            if other.k != self.k:
                raise ValueError("variable count mismatch")
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    cur = out.get(key, 0) + c1 * c2
                    if cur:
                        out[key] = cur
                    else:
                        out.pop(key, None)
            return VarPoly(self.k, out)
        return VarPoly(self.k, {ev: c * other for ev, c in self.terms.items()})

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
        return VarPoly(self.k, out)

    def coeff(self, ev):
        return self.terms.get(tuple(ev), 0)

    @classmethod
    def one(cls, k):
        return cls(k, {(0,) * k: 1})


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

    Recursion strips the cells holding the largest content letter, which must
    form a horizontal strip.
    """
    shape = normalize(shape)
    if sum(shape) != sum(content):
        return 0
    if not shape:
        return 1
    r = len(content)
    last = content[-1]
    if last == 0:
        return kostka(shape, content[:-1])
    if r == 1:
        return 1 if shape == (last,) else 0
    total = 0
    for inner in _horizontal_strip_removals(shape, last):
        total += kostka(inner, content[:-1])
    return total


def _horizontal_strip_removals(shape, strip_size):
    """All partitions nu with shape/nu a horizontal strip of the given size."""
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


# -- basis elements expanded in the monomial basis -------------------------


@lru_cache(maxsize=None)
def _basis_in_m(basis, lam):
    n = sum(lam)
    if basis == "m":
        return SymExpansion.build(n, "m", {lam: 1})
    if basis == "s":
        return SymExpansion.build(
            n, "m", {mu: kostka(lam, mu) for mu in partitions_of(n)}
        )
    maker = h_poly if basis == "h" else p_poly
    poly = VarPoly.one(max(n, 1))
    for part in lam:
        poly = poly * maker(part, max(n, 1))
    return varpoly_to_m(poly, n)


def _to_m(f: SymExpansion):
    out = {}
    for lam, c in f.coeffs:
        for mu, base_c in _basis_in_m(f.basis, lam).coeffs:
            out[mu] = out.get(mu, LaurentQT.zero()) + c * _as_poly(base_c)
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
            cur = rem.get(mu, LaurentQT.zero()) - c * _as_poly(k)
            if cur.is_zero():
                rem.pop(mu, None)
            else:
                rem[mu] = cur
    return SymExpansion.build(f.degree, "s", out)


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
            cur = rem.get(mu, LaurentQT.zero()) - c * _as_poly(pc)
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
            out[()] = out.get((), LaurentQT.zero()) + c
            continue
        for sigma in itertools.permutations(range(ell)):
            rows = [lam[i] - i + sigma[i] for i in range(ell)]
            if any(r < 0 for r in rows):
                continue
            sign = _perm_sign(sigma)
            mu = normalize(tuple(sorted((r for r in rows if r > 0), reverse=True)))
            out[mu] = out.get(mu, LaurentQT.zero()) + c * sign
    return SymExpansion.build(f.degree, "h", out)


def _perm_sign(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def basis_convert(f: SymExpansion, target):
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    g = f if f.basis == "m" else _to_m(f)
    if target == "m":
        return g
    if target == "s":
        return _m_to_s(g)
    if target == "p":
        return _m_to_p(g)
    return _s_to_h(_m_to_s(g))


# -- pairings and involutions ----------------------------------------------


def hall_inner(f: SymExpansion, g: SymExpansion):
    """Hall inner product, via duality of the h and m bases."""
    if f.degree != g.degree:
        raise ValueError("degree mismatch in hall_inner")
    fm = basis_convert(f, "m").as_dict()
    gh = basis_convert(g, "h").as_dict()
    total = LaurentQT.zero()
    for lam, c in gh.items():
        if lam in fm:
            total = total + fm[lam] * c
    return total


def omega(f: SymExpansion):
    """The involution p_k -> (-1)^(k-1) p_k, returned in f's original basis."""
    fp = basis_convert(f, "p")
    flipped = SymExpansion.build(
        f.degree,
        "p",
        {
            lam: c * ((-1) ** (sum(lam) - len(lam)))
            for lam, c in fp.coeffs
        },
    )
    return basis_convert(flipped, f.basis)


def schur_principal_special(lam, b):
    """s_lam(1^b): semistandard tableaux of shape lam with entries <= b."""
    lam = normalize(lam)
    n = sum(lam)
    total = 0
    for mu in partitions_of(n):
        ell = len(mu)
        if ell > b:
            continue
        ways = factorial(b)
        for m in multiplicities(mu).values():
            ways //= factorial(m)
        ways //= factorial(b - ell)
        total += kostka(lam, mu) * ways
    return total


def hook_length_dim(lam):
    """Number of standard tableaux of shape lam, by the hook length formula."""
    lam = normalize(lam)
    n = sum(lam)
    conj = conjugate(lam)
    denom = 1
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            denom *= (p - j) + (conj[j - 1] - i) + 1
    return exact_quotient(factorial(n), denom)


def cauchy_slices(n):
    """The three degree-n Cauchy kernels in x_1..x_n, y_1..y_n.

    Returns (h*m, p*p/z, s*s) as VarPoly objects in 2n variables so callers
    can assert they agree.
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
