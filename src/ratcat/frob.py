"""Generating functions: Frobenius characteristics of rational parking
functions in four independent ways, rational Schroeder numbers, q,t-Catalan
polynomials, the q,t-parking-function series, and matrix_of_poly, the one
renderer of a q,t-polynomial as a grid of coefficients (plain or TeX)."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd

from .parking import _classical_terms, _ranks, _rational_terms, _run_label_groups
from .partitions import multiplicities, partitions_of, z_lambda
from .paths import area, east_counts, enumerate_dyck, sweep
from .qt import LaurentQT, exact_quotient
from .symfunc import (
    SymExpansion,
    _m_product,
    _one_row,
    basis_convert,
    hook_length_dim,
    schur_principal_special,
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

    Computed with the t-series truncated at degree a, each coefficient an
    m-basis dict, and each h_i the sum of all m_mu with mu a partition of i;
    the products are read off dominant monomials (symfunc._m_product). An
    independent route from the closed forms above and from Kostka numbers.
    """
    _require_coprime(a, b)
    base = [_one_row("h", i) for i in range(a + 1)]
    series = [{(): 1}] + [{} for _ in range(a)]
    for _ in range(b):
        nxt = [{} for _ in range(a + 1)]
        for i in range(a + 1):
            if not series[i]:
                continue
            for j in range(a + 1 - i):
                acc = nxt[i + j]
                for lam, c in _m_product(series[i], base[j], i, j).items():
                    acc[lam] = acc.get(lam, 0) + c
        series = nxt
    return SymExpansion.build(
        a, "m", {lam: exact_quotient(c, b) for lam, c in series[a].items()})


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
    return LaurentQT(Counter(
        (area(d), area(sweep(d))) for d in enumerate_dyck(a, b)))


def pf_qt(a, b, descending=False):
    """Schur expansion of sum_P q^area t^dinv F_{a, IDes(P)}.

    The reading word is taken by ascending level; descending=True reverses
    it, which should produce the omega image of the default series. The peel
    to the Schur basis must come out with nonnegative integer coefficients;
    anything else raises SchurPositivityError.
    """
    _require_coprime(a, b)
    hist = _descent_histogram(a, b, lambda d: _rational_terms(d, descending))
    return _descent_set_fold(a, hist, f"in frame ({a},{b})")


def _descent_histogram(a, b, path_terms):
    """{(IDes bitmask, area, dinv): how many parking functions} over the
    (a,b) parking functions, where path_terms(d) gives the (dinv offset,
    dinv bound, pairs, reading order) of each Dyck path d.

    On each path the labels 1..a are placed in turn, each on the lowest free
    north step of some run. Labels increase up a run, so a labeling is the
    sequence of runs its labels 1..a fall in: the walk visits each labeling
    once, and scores a prefix shared by many labelings once. Rows are bits:
    `avail` holds the lowest free row of each run that has one, `filled`
    the rows that carry a smaller label. Label k on row r adds to dinv the
    pairs (i, r) with i filled, and sets IDes bit k-2 iff r comes before
    the row of label k-1 in the reading order. The last label takes the one
    row left, so it is placed with the label before it. A dinv outside
    0..bound raises AssertionError, also under python -O.
    """
    hist = {}
    full = (1 << a) - 1
    top = 1 << a >> 2  # IDes bit of the last label
    last = a - 1
    for d in enumerate_dyck(a, b):
        offset, bound, pairs, order = path_terms(d)
        rank = _ranks(order)
        into = [0] * a  # into[j]: bitmask of the rows i with (i, j) a pair
        for i, j in pairs:
            into[j] |= 1 << i
        succ = [0] * a  # succ[r]: bit of the row above r in its run, if any
        starts = 0
        for run in _run_label_groups(d.word, range(a)):
            starts |= 1 << run[0]
            for r in run[:-1]:
                succ[r] = 1 << (r + 1)
        counts = {}  # (IDes bitmask, dinv) -> count on this path

        def place(k, filled, avail, prev, dv, mask):
            # label k goes on a row of avail; label k-1 sits on row prev
            before = rank[prev]
            bit = 1 << k >> 2  # IDes bit k-2; none for k = 1
            todo = avail
            while todo:
                low = todo & -todo
                todo ^= low
                r = low.bit_length() - 1
                v = dv + (into[r] & filled).bit_count()
                m = mask | bit if rank[r] < before else mask
                if k == last:
                    s = (full ^ filled ^ low).bit_length() - 1
                    key = (m | top if rank[s] < rank[r] else m,
                           v + into[s].bit_count())
                    counts[key] = counts.get(key, 0) + 1
                else:
                    place(k + 1, filled | low, avail ^ low | succ[r], r, v, m)

        if a == 1:
            counts[0, offset] = 1
        else:
            place(1, 0, starts, 0, offset, 0)
        ar = area(d)
        for (mask, dv), count in counts.items():
            if not 0 <= dv <= bound:
                raise AssertionError(f"dinv {dv} outside 0..{bound} on path {d.word}")
            key = (mask, ar, dv)
            hist[key] = hist.get(key, 0) + count
    return hist


def _descent_set_fold(a, hist, where):
    """Schur expansion of sum count q^area t^dinv F_{a,S} over a descent-set
    histogram {(S as a bitmask, area, dinv): count}, checked to be symmetric
    and Schur positive.

    F_{a,S} = sum_{T >= S} M_T (Gessel), so the coefficient of M_T in the
    series is the sum of the histogram over the subsets of T, with S, T in
    {1..a-1} stored as bitmasks. M_T belongs to the composition whose
    partial sums are T, and the series is symmetric iff compositions that
    sort to the same partition lam carry the same coefficient, the
    coefficient of m_lam.
    """
    by_exps = {}
    for (S, ar, dv), count in hist.items():
        by_exps.setdefault(S, {})[ar, dv] = count
    by_mask = [LaurentQT.zero()] * (1 << (a - 1))
    for S, terms in by_exps.items():
        by_mask[S] = LaurentQT(terms)
    for j in range(a - 1):
        bit = 1 << j
        for T in range(len(by_mask)):
            if T & bit:
                by_mask[T] = by_mask[T] + by_mask[T ^ bit]
    in_m = {}
    for T, c in enumerate(by_mask):
        cuts = [0] + [j for j in range(1, a) if T >> (j - 1) & 1] + [a]
        lam = tuple(sorted((y - x for x, y in zip(cuts, cuts[1:])), reverse=True))
        if in_m.setdefault(lam, c) != c:
            raise ValueError(f"series {where} is not symmetric at m_{lam}")
    result = basis_convert(SymExpansion.build(a, "m", in_m), "s")
    for lam, c in result.coeffs:
        for _, _, coef in c.terms():
            if not isinstance(coef, int) or coef < 0:
                raise SchurPositivityError(
                    f"coefficient of s_{lam} {where} contains {coef}"
                )
    return result


def classical_shuffle_side(n):
    """Schur expansion of sum q^area t^dinv F_{n, IDes} over classical
    parking functions (the combinatorial side only)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _descent_set_fold(n, _descent_histogram(n, n, _classical_terms),
                             f"at n={n}")


def classical_cat_qt(n):
    """Sum of q^area t^dinv over unlabeled classical Dyck paths; dinv counts
    rows i < j with g_i = g_j or g_i = g_j + 1."""
    counts = Counter()  # (area, dinv): how many paths
    for d in enumerate_dyck(n, n):
        g = [i - x for i, x in enumerate(east_counts(d.word))]
        dinv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if g[i] == g[j] or g[i] == g[j] + 1
        )
        counts[sum(g), dinv] += 1
    return LaurentQT(counts)


def hilbert_series(series):
    """<series, h_1^a> = sum_lam c_lam f^lam for a Schur expansion; for the
    q,t-parking-function series it is sum_P q^area t^dinv."""
    total = LaurentQT.zero()
    for lam, c in series.coeffs:
        total = total + c * hook_length_dim(lam)
    return total


# -- matrix display --------------------------------------------------------


def matrix_of_poly(p: LaurentQT, style="plain"):
    """p as a grid: row i, column j holds the coefficient of q^i t^j, and '.'
    stands for zero (the zero polynomial is one '.'). Plain: entries
    right-aligned to one width, single-space separated. TeX: ' & '
    separated, no padding. Exponents must be nonnegative."""
    triples = p.terms()
    if any(qe < 0 or te < 0 for qe, te, _ in triples):
        raise ValueError("matrix display needs nonnegative exponents")
    nrow = max((qe for qe, _, _ in triples), default=0) + 1
    ncol = max((te for _, te, _ in triples), default=0) + 1
    cells = [["."] * ncol for _ in range(nrow)]
    for qe, te, c in triples:
        cells[qe][te] = str(c)
    if style == "plain":
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)
    if style == "tex":
        return "\n".join(" & ".join(row) for row in cells)
    raise ValueError(f"unknown style {style!r}")
