"""Generating functions: Frobenius characteristics of rational parking
functions in four independent ways, rational Schroeder numbers, q,t-Catalan
polynomials, the q,t-parking-function series, and matrix rendering."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

from .parking import (
    dinv_classical,
    dinv_rational,
    drw_classical,
    drw_rational,
    ides,
    labelings_of,
)
from .partitions import multiplicities, partitions_of, z_lambda
from .paths import area, east_counts, enumerate_dyck, sweep
from .qt import LaurentQT, exact_quotient
from .symfunc import (
    SymExpansion,
    VarPoly,
    basis_convert,
    expand_fundamental,
    h_poly,
    hook_length_dim,
    schur_principal_special,
    varpoly_to_m,
)


class SchurPositivityError(RuntimeError):
    """A claimed Schur-positive series produced a negative or fractional
    coefficient; this falsifies an assumed property, so it never passes
    silently."""


def _require_coprime(a, b):
    if a <= 0 or b <= 0 or gcd(a, b) != 1:
        raise ValueError(f"frame ({a},{b}) must be positive and coprime")


# -- closed-form Frobenius expansions --------------------------------------


def frob_h(a, b):
    """Coefficient of h_lam: (b-1)!/((b-len(lam))! prod_j m_j(lam)!)."""
    _require_coprime(a, b)
    out = {}
    for lam in partitions_of(a):
        ell = len(lam)
        if ell > b:
            continue
        denom = factorial(b - ell)
        for m in multiplicities(lam).values():
            denom *= factorial(m)
        out[lam] = exact_quotient(factorial(b - 1), denom)
    return SymExpansion.build(a, "h", out)


def frob_p(a, b):
    """Coefficient of p_lam: b^(len(lam)-1)/z_lam."""
    _require_coprime(a, b)
    out = {}
    for lam in partitions_of(a):
        out[lam] = LaurentQT.const(Fraction(b ** (len(lam) - 1), z_lambda(lam)))
    return SymExpansion.build(a, "p", out)


def frob_s(a, b):
    """Coefficient of s_lam: s_lam(1^b)/b, an exact integer quotient."""
    _require_coprime(a, b)
    out = {}
    for lam in partitions_of(a):
        out[lam] = exact_quotient(schur_principal_special(lam, b), b)
    return SymExpansion.build(a, "s", out)


def frob_via_genfunc(a, b):
    """Coefficient of t^a in (1/b)[H(t)]^b, H(t) = sum_i h_i t^i.

    Computed with the t-series truncated at degree a and each h_i carried as
    an explicit polynomial in a variables; an independent route from the
    closed forms above.
    """
    _require_coprime(a, b)
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
    top = series[a] * Fraction(1, b)
    return varpoly_to_m(top, a)


def schroeder(a, b, k):
    """(1/b) C(a-1,k) C(b+k,a); zero iff k < a-b."""
    _require_coprime(a, b)
    if not 0 <= k <= a - 1:
        raise ValueError(f"k={k} outside 0..{a - 1}")
    return exact_quotient(comb(a - 1, k) * comb(b + k, a), b)


# -- q,t series ------------------------------------------------------------


def cat_qt(a, b):
    """Sum of q^area(D) t^area(sweep(D)) over (a,b)-Dyck paths."""
    _require_coprime(a, b)
    total = LaurentQT.zero()
    for d in enumerate_dyck(a, b):
        total = total + LaurentQT.monomial(area(d), area(sweep(d)))
    return total


def pf_qt(a, b, descending=False):
    """Schur expansion of sum_P q^area t^dinv F_{a, IDes(P)}.

    The reading word is taken by ascending level; descending=True reverses
    it, which should produce the omega image of the default series. The peel
    to the Schur basis must come out with nonnegative integer coefficients;
    anything else raises SchurPositivityError.
    """
    _require_coprime(a, b)
    step = -1 if descending else 1
    return _shuffle_schur(a, b, lambda pf: drw_rational(pf)[::step],
                          dinv_rational, f"in frame ({a},{b})")


def _shuffle_schur(a, b, reading_word, dinv, where):
    """Schur expansion of sum_P q^area t^dinv F_{a, IDes(reading word)} over
    the (a,b) parking functions: the F_{a,S} are folded over the descent-set
    histogram, converted m -> s, and checked to be Schur positive."""
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
    result = basis_convert(varpoly_to_m(acc, a), "s")
    for lam, c in result.coeffs:
        for _, _, coef in c.terms():
            if not isinstance(coef, int) or coef < 0:
                raise SchurPositivityError(
                    f"coefficient of s_{lam} {where} contains {coef}"
                )
    return result


def hilb(a, b):
    """Sum of q^area t^dinv over all (a,b) parking functions."""
    _require_coprime(a, b)
    total = LaurentQT.zero()
    for d in enumerate_dyck(a, b):
        ar = area(d)
        for pf in labelings_of(d):
            total = total + LaurentQT.monomial(ar, dinv_rational(pf))
    return total


def classical_shuffle_side(n):
    """Schur expansion of sum q^area t^dinv F_{n, IDes} over classical
    parking functions (the combinatorial side only)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _shuffle_schur(n, n, drw_classical, dinv_classical, f"at n={n}")


def classical_cat_qt(n):
    """Sum of q^area t^dinv over unlabeled classical Dyck paths; dinv counts
    rows i < j with g_i = g_j or g_i = g_j + 1."""
    total = LaurentQT.zero()
    for d in enumerate_dyck(n, n):
        g = [i - x for i, x in enumerate(east_counts(d.word))]
        dinv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if g[i] == g[j] or g[i] == g[j] + 1
        )
        total = total + LaurentQT.monomial(sum(g), dinv)
    return total


def dimension_check(a, b):
    """Sum over lam of (s-coefficient at q=t=1) * f^lam must equal b^(a-1)."""
    total = 0
    for lam, c in pf_qt(a, b).coeffs:
        total += c.evaluate() * hook_length_dim(lam)
    return total == b ** (a - 1)


# -- matrix display --------------------------------------------------------


class QTMatrix:
    """Integer grid: entry [i][j] is the coefficient of q^i t^j."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix must be rectangular and nonempty")
        self.rows = [list(r) for r in rows]

    def __eq__(self, other):
        return isinstance(other, QTMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"QTMatrix({self.rows})"


def to_matrix(p: LaurentQT) -> QTMatrix:
    triples = p.terms()
    if any(qe < 0 or te < 0 for qe, te, _ in triples):
        raise ValueError("matrix display needs nonnegative exponents")
    if not triples:
        return QTMatrix([[0]])
    nrow = max(qe for qe, _, _ in triples) + 1
    ncol = max(te for _, te, _ in triples) + 1
    rows = [[0] * ncol for _ in range(nrow)]
    for qe, te, c in triples:
        rows[qe][te] = c
    return QTMatrix(rows)


def render_matrix(m: QTMatrix, style="plain"):
    """Plain: right-aligned entries, single-space separated, '.' for zero.
    TeX: ' & ' separated, no padding."""
    cells = [[("." if v == 0 else str(v)) for v in row] for row in m.rows]
    if style == "plain":
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)
    if style == "tex":
        return "\n".join(" & ".join(row) for row in cells)
    raise ValueError(f"unknown style {style!r}")


def matrix_of_poly(p: LaurentQT, style="plain"):
    return render_matrix(to_matrix(p), style)
