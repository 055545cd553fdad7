"""Claim checkers: each computes both sides of one identity or conjecture
independently and returns a report with a witness on failure."""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field
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
    frame_stats,
    length,
    normalize,
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
    details: dict = field(default_factory=dict)
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
        if self.details:
            out["details"] = self.details
        return out


def _timed(claim, params, run, counters=None):
    """Run one check. A checker that raises gives a failed report whose
    witness names the exception, so the rest of a sweep still runs.
    counters is a dict that run fills in as it goes."""
    counters = {} if counters is None else counters
    t0 = time.perf_counter()
    try:
        passed, witness, details = run()
    except Exception as exc:
        witness = {"exception": type(exc).__name__, "message": str(exc)}
        passed, details, error = False, None, exc
    else:
        error = None
    return CheckReport(
        claim, params, passed, witness, time.perf_counter() - t0,
        details or {}, error,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, counters,
    )


# -- partition-statistic claims --------------------------------------------
#
# Each checker but conj_rat_qcat reads one frame_stats table: {frontier
# word: (mu, |mu|, ml, h+, h-)} in enumerate_box order, with the triangle
# where ml == 0. conj_rat_qcat needs only the triangle and walks the Dyck
# words instead.


def _frame_table(a, b, counters):
    table = frame_stats(a, b)
    counters["box_words"] = len(table)
    return table


def _q_sum(exponents):
    """Sum of q^e over the given exponents, as one LaurentQT."""
    counts = {}
    for e in exponents:
        counts[e] = counts.get(e, 0) + 1
    return LaurentQT({(e, 0): c for e, c in counts.items()})


def check_conj_rat_qcat(a, b):
    """Triangle sum of q^(|mu| + h) equals the rational q-Catalan number,
    for both the h+ and h- statistics. The triangle's frontier words are
    the (a,b)-Dyck words, so it walks those and leaves the rest of the box
    alone."""
    counters = {}

    def run():
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
                return False, {"variant": tag, "sum": total.to_json(),
                               "target": target.to_json()}, None
        return True, None, None

    return _timed("conj_rat_qcat", {"a": a, "b": b}, run, counters)


def check_conj_nonstd_qbin(a, b):
    """Box sum of q^(|mu| + ml + h) equals the q-binomial, both variants;
    no coprimality required."""
    counters = {}

    def run():
        target = q_binomial(a + b, a)
        box = _frame_table(a, b, counters).values()
        for tag, k in (("h+", 3), ("h-", 4)):  # k: where h sits in an entry
            total = _q_sum(s[1] + s[2] + s[k] for s in box)
            if total != target:
                return False, {"variant": tag, "sum": total.to_json(),
                               "target": target.to_json()}, None
        return True, None, None

    return _timed("conj_nonstd_qbin", {"a": a, "b": b}, run, counters)


def check_thm_ratcat(a, b):
    """Box sum factors as [a+b]_q times the triangle sum, and every orbit
    passes the fine shift-indexing check."""
    counters = {}

    def run():
        table = _frame_table(a, b, counters)
        triangle = {w: s for w, s in table.items() if s[2] == 0}
        box = _q_sum(size + ml + hp for _, size, ml, hp, _ in table.values())
        tri = _q_sum(size + hp for _, size, _, hp, _ in triangle.values())
        if box != q_int(a + b) * tri:
            return False, {"box": box.to_json(), "tri": tri.to_json()}, None

        def stats(word):
            return table[word][2:4]  # (ml, h+)

        for w, (mu0, *_) in triangle.items():
            if not _orbit_indexing_holds(w, a, b, stats):
                return False, {"orbit_rep": list(mu0)}, None
        return True, None, None

    return _timed("thm_ratcat", {"a": a, "b": b}, run, counters)


def check_lem_h_via_labels(a, b):
    """Arm/leg window counts match the frontier-level pair counts."""
    counters = {}

    def run():
        for mu, _, _, hp, hm in _frame_table(a, b, counters).values():
            arm_hp, arm_hm = _h_pair(mu, a, b)
            if arm_hp != hp:
                return False, {"mu": list(mu), "sign": "+"}, None
            if arm_hm != hm:
                return False, {"mu": list(mu), "sign": "-"}, None
        return True, None, None

    return _timed("lem_h_via_labels", {"a": a, "b": b}, run, counters)


def check_lem_cyc_shift(a, b):
    """The h+ increment of one cyclic shift, via both stated formulas."""
    counters = {}

    def run():
        table = _frame_table(a, b, counters)
        n = a + b
        for w, (mu, _, _, hp, _) in table.items():
            lv = levels(w, a, b)
            delta = table[cyclic_shift(w, 1)][3] - hp
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
                return False, {"mu": list(mu), "delta": delta,
                               "pairs": f1, "levels": f2}, None
        return True, None, None

    return _timed("lem_cyc_shift", {"a": a, "b": b}, run, counters)


# -- q,t-Catalan claims ----------------------------------------------------


def check_symmetry(a, b):
    """Cat_{a,b}(q,t) = Cat_{a,b}(t,q)."""

    def run():
        c = cat_qt(a, b)
        if c != c.swap_q_t():
            return False, {"poly": c.to_json()}, None
        return True, None, None

    return _timed("conj_ratqt_symm", {"a": a, "b": b}, run)


def check_spec(a, b):
    """q^((a-1)(b-1)/2) Cat_{a,b}(q, 1/q) equals the rational q-Catalan."""

    def run():
        shift = (a - 1) * (b - 1) // 2
        left = cat_qt(a, b).specialize_t(-1, shift)
        right = rational_q_catalan(a, b)
        if left != right:
            return False, {"left": left.to_json(), "right": right.to_json()}, None
        return True, None, None

    return _timed("conj_qtcat_spec", {"a": a, "b": b}, run)


# -- parking-function claims -----------------------------------------------


def check_conj_abpf(a, b):
    """Three-part parking-function conjecture: q,t symmetry of every Schur
    coefficient, the Hilbert specialization [b]_q^(a-1), and the Schroeder
    hook specialization."""

    def run():
        series = pf_qt(a, b)
        for lam, c in series.coeffs:
            if c != c.swap_q_t():
                return False, {"part": 1, "lam": list(lam),
                               "coeff": c.to_json()}, None
        shift = (a - 1) * (b - 1) // 2
        left = hilbert_series(series).specialize_t(-1, shift)
        right = q_int(b) ** (a - 1)
        if left != right:
            return False, {"part": 2, "left": left.to_json(),
                           "right": right.to_json()}, None
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
                return False, {"part": 3, "k": k, "left": left.to_json(),
                               "right": right.to_json()}, None
        return True, None, None

    return _timed("conj_abpf", {"a": a, "b": b}, run)


# -- counting and bijection claims -----------------------------------------


def check_macmahon(n):
    """Major index on Dyck words is distributed by Cat_{n,n+1}(q)."""

    def run():
        total = LaurentQT.zero()
        for w in enumerate_dyck_words(n):
            total = total + LaurentQT.monomial(maj(w), 0)
        target = rational_q_catalan(n, n + 1)
        if total != target:
            return False, {"sum": total.to_json(), "target": target.to_json()}, None
        return True, None, None

    return _timed("macmahon_maj", {"n": n}, run)


def check_prop_multinomial(a, b):
    """Dyck path counts by run structure match the multinomial formula."""
    counters = {}

    def run():
        seen = {}
        for d in enumerate_dyck(a, b):
            m = run_structure(d.word)
            seen[m] = seen.get(m, 0) + 1
        total = counters["dyck_paths"] = sum(seen.values())
        for m, count in seen.items():
            if count != count_by_runs(a, b, m):
                return False, {"runs": list(m), "count": count}, None
        if total != count_dyck(a, b):
            return False, {"total": total}, None
        return True, None, None

    return _timed("prop_multinomial", {"a": a, "b": b}, run, counters)


def check_bizley(a, b):
    """|D(N^a E^b)| = (a+b-1)!/(a! b!) and |PF_{a,b}| = b^(a-1)."""

    def run():
        paths = sum(1 for _ in enumerate_dyck(a, b))
        if paths != count_dyck(a, b):
            return False, {"paths": paths}, None
        pfs = sum(1 for _ in enumerate_pf(a, b))
        if pfs != b ** (a - 1):
            return False, {"pfs": pfs}, None
        return True, None, None

    return _timed("bizley_counts", {"a": a, "b": b}, run)


def check_dinv_zeta(n):
    """dinv(P) = area'(zeta(P)) over all classical parking functions."""

    def run():
        for d in enumerate_dyck(n, n):
            for pf in labelings_of(d):
                if dinv_classical(pf) != area_prime(zeta(pf)):
                    return False, pf.to_json(), None
        return True, None, None

    return _timed("dinv_eq_area_prime_zeta", {"n": n}, run)


def check_frobenius(a, b):
    """The four Frobenius routes agree and carry the right dimension."""

    def run():
        fm = basis_convert(frob_h(a, b), "m")
        fs = frob_s(a, b)
        for tag, other in (
            ("p", basis_convert(frob_p(a, b), "m")),
            ("s", basis_convert(fs, "m")),
            ("genfunc", frob_via_genfunc(a, b)),
        ):
            if other != fm:
                return False, {"route": tag}, None
        dim = hilbert_series(fs).evaluate()
        if dim != b ** (a - 1):
            return False, {"dimension": dim}, None
        for k in range(a):
            hook = normalize((k + 1,) + (1,) * (a - k - 1))
            if fs.coeff(hook).evaluate() != schroeder(a, b, k):
                return False, {"hook_k": k}, None
        return True, None, None

    return _timed("thm_rational_frobenius", {"a": a, "b": b}, run)


def check_fixed_points(a, b):
    """Parking functions fixed by a permutation of cycle type lam number
    b^(len(lam)-1); checked by brute-force relabeling."""
    counters = {}

    def run():
        for lam, fixed in _fixed_point_counts(a, b, counters).items():
            expect = b ** (length(lam) - 1)
            if fixed != expect:
                return False, {"lam": list(lam), "fixed": fixed,
                               "expected": expect}, None
        return True, None, None

    return _timed("fixed_points", {"a": a, "b": b}, run, counters)


def _fixed_point_counts(a, b, counters):
    """{lam: how many (a,b)-parking functions a permutation of cycle type
    lam fixes}, in partitions_of(a) order, counted for every lam in one pass
    over the parking functions."""
    sigmas = {lam: _perm_of_cycle_type(lam) for lam in partitions_of(a)}
    fixed = dict.fromkeys(sigmas, 0)
    pfs = 0
    for p in enumerate_pf(a, b):
        pfs += 1
        for lam, sigma in sigmas.items():
            # sigma sends p to the parking function with the relabeled
            # labels re-sorted within each vertical run
            relabeled = tuple(sigma[x] for x in p.labels)
            if _sorted_runs(p.word, relabeled) == p.labels:
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


def _sorted_runs(word, labels):
    """The labels re-sorted within each vertical run of word."""
    return tuple(x for run in _run_label_groups(word, labels) for x in sorted(run))


def check_qbin_recursion(n):
    """Both standard q-binomial recursions at total degree n."""

    def run():
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
                return False, {"s": s, "r": r}, None
        return True, None, None

    return _timed("qbin_recursion", {"n": n}, run)


def check_sweep_contract(a, b):
    """sweep lands in Dyck paths and is injective on them."""
    counters = {"dyck_paths": 0}

    def run():
        seen = {}
        for d in enumerate_dyck(a, b):
            counters["dyck_paths"] += 1
            s = sweep(d)  # raises SweepContractError if not Dyck
            if s.word in seen:
                return False, {"collision": [seen[s.word], d.word]}, None
            seen[s.word] = d.word
        return True, None, None

    return _timed("sweep_injective", {"a": a, "b": b}, run, counters)


# -- sweep runner ----------------------------------------------------------


def _coprime_pairs(bound_a, bound_b=None):
    bound_b = bound_b or bound_a
    for a in range(1, bound_a + 1):
        for b in range(1, bound_b + 1):
            if gcd(a, b) == 1:
                yield a, b


def sweep_tasks(limit=10, pf_limit=(4, 9), extra_pf=((5, 8), (7, 4))):
    """The default sweep as an ordered list of (checker, args) pairs.

    limit bounds conj_nonstd_qbin (over all a, b <= limit), and
    conj_rat_qcat, thm_ratcat, the two q,t-Catalan claims and
    sweep_injective (over coprime a, b <= limit). The pf-series checks run
    over coprime a <= pf_limit[0], b <= pf_limit[1] plus the frames in
    extra_pf. The rest run at fixed frames whatever the limit:
    lem_h_via_labels and lem_cyc_shift at coprime a, b <= 8, macmahon_maj
    for n <= 6, qbin_recursion for n = 2..20, prop_multinomial and
    bizley_counts at coprime a <= 5, b <= 9, dinv_eq_area_prime_zeta for
    n <= 5 and fixed_points at coprime a <= 5, b <= 8.
    """
    tasks = []
    for a, b in _coprime_pairs(limit):
        tasks.append((check_conj_rat_qcat, (a, b)))
        tasks.append((check_symmetry, (a, b)))
        tasks.append((check_spec, (a, b)))
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            tasks.append((check_conj_nonstd_qbin, (a, b)))
    for a, b in _coprime_pairs(limit):
        tasks.append((check_thm_ratcat, (a, b)))
    for a, b in _coprime_pairs(8):
        tasks.append((check_lem_h_via_labels, (a, b)))
        tasks.append((check_lem_cyc_shift, (a, b)))
    pf_frames = [
        (a, b) for a, b in _coprime_pairs(pf_limit[0], pf_limit[1])
    ] + [f for f in extra_pf if gcd(*f) == 1]
    for a, b in pf_frames:
        tasks.append((check_conj_abpf, (a, b)))
        tasks.append((check_frobenius, (a, b)))
    for a, b in _coprime_pairs(limit):
        tasks.append((check_sweep_contract, (a, b)))
    for n in range(1, 7):
        tasks.append((check_macmahon, (n,)))
    for n in range(2, 21):
        tasks.append((check_qbin_recursion, (n,)))
    for a, b in _coprime_pairs(5, 9):
        tasks.append((check_prop_multinomial, (a, b)))
        tasks.append((check_bizley, (a, b)))
    for n in range(1, 6):
        tasks.append((check_dinv_zeta, (n,)))
    for a, b in _coprime_pairs(5, 8):
        tasks.append((check_fixed_points, (a, b)))
    return tasks


# claim name (as in the reports) -> its checker
CLAIMS = {
    "conj_rat_qcat": check_conj_rat_qcat,
    "conj_ratqt_symm": check_symmetry,
    "conj_qtcat_spec": check_spec,
    "conj_nonstd_qbin": check_conj_nonstd_qbin,
    "thm_ratcat": check_thm_ratcat,
    "lem_h_via_labels": check_lem_h_via_labels,
    "lem_cyc_shift": check_lem_cyc_shift,
    "conj_abpf": check_conj_abpf,
    "thm_rational_frobenius": check_frobenius,
    "sweep_injective": check_sweep_contract,
    "macmahon_maj": check_macmahon,
    "qbin_recursion": check_qbin_recursion,
    "prop_multinomial": check_prop_multinomial,
    "bizley_counts": check_bizley,
    "dinv_eq_area_prime_zeta": check_dinv_zeta,
    "fixed_points": check_fixed_points,
}


def run_sweep(limit=10, pf_limit=(4, 9), extra_pf=((5, 8), (7, 4)),
              claim="all"):
    """Run the default sweep in task order, yielding each report as its
    check finishes; a claim name from CLAIMS keeps only that claim's tasks."""
    only = None if claim == "all" else CLAIMS[claim]
    for chk, args in sweep_tasks(limit, pf_limit, extra_pf):
        if only is None or chk is only:
            yield chk(*args)


def reports_to_jsonl(reports, include_seconds=False):
    """One JSON line per report, joined by newlines: the only place that
    decides the line format (`ratcat verify` writes each report with it)."""
    return "\n".join(
        json.dumps(r.to_json(include_seconds), sort_keys=True) for r in reports
    )
