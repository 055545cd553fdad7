"""Claim checkers: each computes both sides of one identity or conjecture
independently and returns a report with a witness on failure."""

from __future__ import annotations

import functools
import json
import resource
import time
from dataclasses import dataclass, field
from itertools import product
from math import gcd

from .frob import (
    basis_convert,
    cat_qt,
    frob_h,
    frob_p,
    frob_s,
    frob_via_genfunc,
    hilbert_series,
    pf_qt,
    schroeder,
)
from .parking import (
    _label_tuples,
    _run_label_groups,
    area_prime,
    dinv_classical,
    enumerate_pf,
    labelings_of,
    zeta,
)
from .partitions import (
    _h_pair,
    _orbit_indexing_holds,
    _word_stats,
    frame_entries,
    length,
    normalize,
    partition_of_frontier,
    partitions_of,
)
from .paths import (
    count_by_runs,
    count_dyck,
    cyclic_shift,
    enumerate_dyck,
    enumerate_dyck_words,
    levels,
    maj,
    run_structure,
    sweep,
)
from .qt import (
    LaurentQT,
    q_binomial,
    q_int,
    rational_q_catalan,
)


@dataclass
class CheckReport:
    claim: str
    params: dict
    passed: bool
    witness: object = None
    seconds: float = 0.0
    error: Exception | None = None  # what the checker raised; not serialised
    peak_rss_kb: int = 0  # of this process, read when the check ended
    counters: dict = field(default_factory=dict)  # objects the check enumerated

    def to_json(self, include_seconds=False):
        """The report as a dict; include_seconds adds what varies from run
        to run: the wall time, the peak RSS and the counters."""
        out = {
            "claim": self.claim,
            "params": self.params,
            "passed": self.passed,
        }
        if include_seconds:
            out["seconds"] = round(self.seconds, 4)
            out["peak_rss_kb"] = self.peak_rss_kb
            if self.counters:
                out["counters"] = self.counters
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _timed(claim, params, body, args):
    """Run body(*args, counters) as one check of claim: body fills in the
    counters dict and returns its witness, or None when the claim holds.
    A body that raises gives a failed report whose witness names the
    exception, so the rest of a sweep still runs."""
    counters, error = {}, None
    t0 = time.perf_counter()
    try:
        witness = body(*args, counters)
    except Exception as exc:
        witness = {"exception": type(exc).__name__, "message": str(exc)}
        error = exc
    return CheckReport(
        claim, params, witness is None, witness, time.perf_counter() - t0,
        error, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, counters,
    )


CLAIMS = []  # claim names (as in the reports), in the order defined below


def _claim(name, *params):
    """Make the decorated body the checker of claim `name`: it takes the
    frame args, names them by params in the report, and returns a
    CheckReport (see _timed)."""

    def wrap(body):
        @functools.wraps(body)
        def check(*args):
            return _timed(name, dict(zip(params, args)), body, args)

        check.claim = name
        CLAIMS.append(name)
        return check

    return wrap


# -- partition-statistic claims --------------------------------------------
#
# Each checker but conj_rat_qcat reads the box walk frame_entries: pairs
# (frontier word, (mu, |mu|, ml, h+, h-)) in descending lexicographic word
# order, with the triangle where ml == 0. A checker keeps of it only what it
# needs. conj_rat_qcat needs only the triangle and walks the Dyck words
# instead.


def _box_entries(a, b, counters):
    """frame_entries(a, b), counting the words it yields as box_words."""
    counters["box_words"] = 0
    for entry in frame_entries(a, b):
        counters["box_words"] += 1
        yield entry


def _q_sum(exponents):
    """Sum of q^e over the given exponents, as one LaurentQT."""
    counts = {}
    for e in exponents:
        counts[e] = counts.get(e, 0) + 1
    return LaurentQT({(e, 0): c for e, c in counts.items()})


@_claim("conj_rat_qcat", "a", "b")
def check_conj_rat_qcat(a, b, counters):
    """Triangle sum of q^(|mu| + h) equals the rational q-Catalan number,
    for both the h+ and h- statistics. The triangle's frontier words are
    the (a,b)-Dyck words, so it walks those and leaves the rest of the box
    alone."""
    target = rational_q_catalan(a, b)
    tri = []
    for d in enumerate_dyck(a, b):
        stats = _word_stats(d.word, a, b)  # (|mu|, ml, h+, h-)
        if stats[1] != 0:
            raise AssertionError(f"Dyck word {d.word} has ml {stats[1]}")
        tri.append(stats)
    counters["dyck_words"] = len(tri)
    if not len(tri) == count_dyck(a, b) == target.evaluate():
        raise AssertionError(
            f"walked {len(tri)} Dyck words, count_dyck gives "
            f"{count_dyck(a, b)}, Cat_{{a,b}}(1) is {target.evaluate()}")
    for tag, k in (("h+", 2), ("h-", 3)):  # k: where h sits in stats
        total = _q_sum(s[0] + s[k] for s in tri)
        if total != target:
            return {"variant": tag, "sum": total.to_json(),
                    "target": target.to_json()}


@_claim("conj_nonstd_qbin", "a", "b")
def check_conj_nonstd_qbin(a, b, counters):
    """Box sum of q^(|mu| + ml + h) equals the q-binomial, both variants;
    no coprimality required."""
    target = q_binomial(a + b, a)
    box = [(size + ml + hp, size + ml + hm)
           for _, (_, size, ml, hp, hm) in _box_entries(a, b, counters)]
    for tag, k in (("h+", 0), ("h-", 1)):
        total = _q_sum(s[k] for s in box)
        if total != target:
            return {"variant": tag, "sum": total.to_json(),
                    "target": target.to_json()}


@_claim("thm_ratcat", "a", "b")
def check_thm_ratcat(a, b, counters):
    """Box sum factors as [a+b]_q times the triangle sum, and every orbit
    passes the fine shift-indexing check."""
    table = dict(_box_entries(a, b, counters))
    triangle = {w: s for w, s in table.items() if s[2] == 0}
    box = _q_sum(size + ml + hp for _, size, ml, hp, _ in table.values())
    tri = _q_sum(size + hp for _, size, _, hp, _ in triangle.values())
    if box != q_int(a + b) * tri:
        return {"box": box.to_json(), "tri": tri.to_json()}

    def stats(word):
        return table[word][2:4]  # (ml, h+)

    for w, (mu0, *_) in triangle.items():
        if not _orbit_indexing_holds(w, a, b, stats):
            return {"orbit_rep": list(mu0)}


@_claim("lem_h_via_labels", "a", "b")
def check_lem_h_via_labels(a, b, counters):
    """Arm/leg window counts match the frontier-level pair counts, checked
    entry by entry as the box walk yields them."""
    for _, (mu, _, _, hp, hm) in _box_entries(a, b, counters):
        arm_hp, arm_hm = _h_pair(mu, a, b)
        if arm_hp != hp:
            return {"mu": list(mu), "sign": "+"}
        if arm_hm != hm:
            return {"mu": list(mu), "sign": "-"}


@_claim("lem_cyc_shift", "a", "b")
def check_lem_cyc_shift(a, b, counters):
    """The h+ increment of one cyclic shift, via both stated formulas."""
    h_plus_of = {w: s[3] for w, s in _box_entries(a, b, counters)}
    n = a + b
    for w, hp in h_plus_of.items():
        lv = levels(w, a, b)
        delta = h_plus_of[cyclic_shift(w, 1)] - hp
        if w[0] == "N":
            f1 = sum(
                1 for i in range(1, n + 1)
                if w[i - 1] == "E" and 1 <= lv[i - 1] <= n
            )
            f2 = sum(1 for k in range(1, n + 1) if 1 <= lv[k - 1] <= b)
        else:
            f1 = -sum(
                1 for j in range(1, n + 1)
                if w[j - 1] == "N" and 1 <= -lv[j - 1] <= n
            )
            f2 = -sum(1 for k in range(1, n + 1) if 1 <= -lv[k - 1] <= a)
        if not delta == f1 == f2:
            return {"mu": list(partition_of_frontier(w, a, b)),
                    "delta": delta, "pairs": f1, "levels": f2}


# -- q,t-Catalan claims ----------------------------------------------------


@_claim("conj_ratqt_symm", "a", "b")
def check_symmetry(a, b, counters):
    """Cat_{a,b}(q,t) = Cat_{a,b}(t,q)."""
    c = cat_qt(a, b)
    if c != c.swap_q_t():
        return {"poly": c.to_json()}


@_claim("conj_qtcat_spec", "a", "b")
def check_spec(a, b, counters):
    """q^((a-1)(b-1)/2) Cat_{a,b}(q, 1/q) equals the rational q-Catalan."""
    shift = (a - 1) * (b - 1) // 2
    left = cat_qt(a, b).specialize_t(-1, shift)
    right = rational_q_catalan(a, b)
    if left != right:
        return {"left": left.to_json(), "right": right.to_json()}


# -- parking-function claims -----------------------------------------------


@_claim("conj_abpf", "a", "b")
def check_conj_abpf(a, b, counters):
    """Three-part parking-function conjecture: q,t symmetry of every Schur
    coefficient, the Hilbert specialization [b]_q^(a-1), and the Schroeder
    hook specialization."""
    series = pf_qt(a, b)
    counters["schur_terms"] = len(series.coeffs)
    for lam, c in series.coeffs:
        if c != c.swap_q_t():
            return {"part": 1, "lam": list(lam), "coeff": c.to_json()}
    shift = (a - 1) * (b - 1) // 2
    left = hilbert_series(series).specialize_t(-1, shift)
    right = q_int(b) ** (a - 1)
    if left != right:
        return {"part": 2, "left": left.to_json(), "right": right.to_json()}
    for k in range(a):
        hook = normalize((k + 1,) + (1,) * (a - k - 1))
        schro = series.coeff(hook)
        exp = 2 * a * k - k - k * k + b * a - a * a - b + 1
        if exp % 2:
            raise AssertionError(f"odd hook exponent {exp} for ({a},{b}), k={k}")
        left = schro.specialize_t(-1, exp // 2)
        if b + k < a:
            right = LaurentQT.zero()
        else:
            right = (q_binomial(a - 1, k) * q_binomial(b + k, a)).exact_divide(
                q_int(b)
            )
        if left != right:
            return {"part": 3, "k": k, "left": left.to_json(),
                    "right": right.to_json()}


# -- counting and bijection claims -----------------------------------------


@_claim("macmahon_maj", "n")
def check_macmahon(n, counters):
    """Major index on Dyck words is distributed by Cat_{n,n+1}(q)."""
    total = LaurentQT.zero()
    for w in enumerate_dyck_words(n):
        total = total + LaurentQT.monomial(maj(w), 0)
    target = rational_q_catalan(n, n + 1)
    if total != target:
        return {"sum": total.to_json(), "target": target.to_json()}


@_claim("prop_multinomial", "a", "b")
def check_prop_multinomial(a, b, counters):
    """Dyck path counts by run structure match the multinomial formula."""
    seen = {}
    for d in enumerate_dyck(a, b):
        m = run_structure(d.word)
        seen[m] = seen.get(m, 0) + 1
    total = counters["dyck_paths"] = sum(seen.values())
    for m, count in seen.items():
        if count != count_by_runs(a, b, m):
            return {"runs": list(m), "count": count}
    if total != count_dyck(a, b):
        return {"total": total}


@_claim("bizley_counts", "a", "b")
def check_bizley(a, b, counters):
    """|D(N^a E^b)| = (a+b-1)!/(a! b!) and |PF_{a,b}| = b^(a-1)."""
    paths = sum(1 for _ in enumerate_dyck(a, b))
    if paths != count_dyck(a, b):
        return {"paths": paths}
    pfs = sum(1 for _ in enumerate_pf(a, b))
    if pfs != b ** (a - 1):
        return {"pfs": pfs}


@_claim("dinv_eq_area_prime_zeta", "n")
def check_dinv_zeta(n, counters):
    """dinv(P) = area'(zeta(P)) over all classical parking functions."""
    for d in enumerate_dyck(n, n):
        for pf in labelings_of(d):
            if dinv_classical(pf) != area_prime(zeta(pf)):
                return pf.to_json()


@_claim("thm_rational_frobenius", "a", "b")
def check_frobenius(a, b, counters):
    """The four Frobenius routes agree and carry the right dimension."""
    fm = basis_convert(frob_h(a, b), "m")
    fs = frob_s(a, b)
    counters["schur_terms"] = len(fs.coeffs)
    counters["partitions"] = sum(1 for _ in partitions_of(a))
    for tag, other in (
        ("p", basis_convert(frob_p(a, b), "m")),
        ("s", basis_convert(fs, "m")),
        ("genfunc", frob_via_genfunc(a, b)),
    ):
        if other != fm:
            return {"route": tag}
    dim = hilbert_series(fs).evaluate()
    if dim != b ** (a - 1):
        return {"dimension": dim}
    for k in range(a):
        hook = normalize((k + 1,) + (1,) * (a - k - 1))
        if fs.coeff(hook).evaluate() != schroeder(a, b, k):
            return {"hook_k": k}


@_claim("fixed_points", "a", "b")
def check_fixed_points(a, b, counters):
    """Parking functions fixed by a permutation of cycle type lam number
    b^(len(lam)-1); checked by brute-force relabeling."""
    for lam, fixed in _fixed_point_counts(a, b, counters).items():
        expect = b ** (length(lam) - 1)
        if fixed != expect:
            return {"lam": list(lam), "fixed": fixed, "expected": expect}


def _fixed_point_counts(a, b, counters):
    """{lam: how many (a,b)-parking functions a permutation of cycle type
    lam fixes}, in partitions_of(a) order, counted for every lam in one pass
    over the label tuples of each Dyck path."""
    sigmas = {lam: _perm_of_cycle_type(lam) for lam in partitions_of(a)}
    fixed = dict.fromkeys(sigmas, 0)
    pfs = 0
    for d in enumerate_dyck(a, b):
        runs = _run_slices(d.word, a)
        for labels in _label_tuples(d):
            pfs += 1
            for lam, sigma in sigmas.items():
                # sigma sends the parking function to the one with the
                # relabeled labels re-sorted within each vertical run
                if _resorted([sigma[x] for x in labels], runs) == labels:
                    fixed[lam] += 1
    counters["parking_functions"] = pfs
    return fixed


def _perm_of_cycle_type(lam):
    sigma = {}
    start = 1
    for part in lam:
        block = list(range(start, start + part))
        for i, x in enumerate(block):
            sigma[x] = block[(i + 1) % part]
        start += part
    return sigma


def _run_slices(word, a):
    """One slice of the label tuple per vertical run of word, bottom to top."""
    return [slice(run[0], run[-1] + 1) for run in _run_label_groups(word, range(a))]


def _resorted(labels, runs):
    """The labels re-sorted within each run slice."""
    out = []
    for run in runs:
        out += sorted(labels[run])
    return tuple(out)


@_claim("qbin_recursion", "n")
def check_qbin_recursion(n, counters):
    """Both standard q-binomial recursions at total degree n."""
    for s in range(1, n):
        r = n - s
        lhs = q_binomial(n, s)
        one = LaurentQT.monomial(s, 0) * q_binomial(n - 1, s) + q_binomial(
            n - 1, s - 1
        )
        two = q_binomial(n - 1, s) + LaurentQT.monomial(r, 0) * q_binomial(
            n - 1, s - 1
        )
        if not lhs == one == two:
            return {"s": s, "r": r}


@_claim("sweep_injective", "a", "b")
def check_sweep_contract(a, b, counters):
    """sweep lands in Dyck paths and is injective on them."""
    counters["dyck_paths"] = 0
    seen = {}
    for d in enumerate_dyck(a, b):
        counters["dyck_paths"] += 1
        s = sweep(d)  # raises SweepContractError if not Dyck
        if s.word in seen:
            return {"collision": [seen[s.word], d.word]}
        seen[s.word] = d.word


# -- sweep runner ----------------------------------------------------------


def _coprime_pairs(bound_a, bound_b=None):
    bound_b = bound_b or bound_a
    for a in range(1, bound_a + 1):
        for b in range(1, bound_b + 1):
            if gcd(a, b) == 1:
                yield a, b


def sweep_tasks(limit=10):
    """The default sweep as an ordered list of (checker, args) pairs: each
    row of the table runs its checkers in turn at each of its frames. Only
    the rows over a, b <= limit grow with limit.

    Checkers are looked up by their global names each time, so a rebound
    check_* (a wrapped or traced one) is the one that runs."""
    coprime = list(_coprime_pairs(limit))
    table = (
        (coprime, (check_conj_rat_qcat, check_symmetry, check_spec)),
        (product(range(1, limit + 1), repeat=2), (check_conj_nonstd_qbin,)),
        (coprime, (check_thm_ratcat,)),
        (_coprime_pairs(8), (check_lem_h_via_labels, check_lem_cyc_shift)),
        ([*_coprime_pairs(4, 9), (5, 8), (7, 4)],
         (check_conj_abpf, check_frobenius)),
        (coprime, (check_sweep_contract,)),
        ([(n,) for n in range(1, 7)], (check_macmahon,)),
        ([(n,) for n in range(2, 21)], (check_qbin_recursion,)),
        (_coprime_pairs(5, 9), (check_prop_multinomial, check_bizley)),
        ([(n,) for n in range(1, 6)], (check_dinv_zeta,)),
        (_coprime_pairs(5, 8), (check_fixed_points,)),
    )
    return [(chk, args) for frames, checkers in table
            for args in frames for chk in checkers]


def run_sweep(limit=10, claim="all"):
    """Run the default sweep in task order, yielding each report as its
    check finishes; a claim name from CLAIMS keeps only that claim's tasks."""
    for chk, args in sweep_tasks(limit):
        if claim == "all" or chk.claim == claim:
            yield chk(*args)


def reports_to_jsonl(reports, include_seconds=False):
    """One JSON line per report, joined by newlines: the only place that
    decides the line format (`ratcat verify` writes each report with it)."""
    return "\n".join(
        json.dumps(r.to_json(include_seconds), sort_keys=True) for r in reports
    )
