"""Claim checkers: each computes both sides of one identity or conjecture
independently and returns a report with a witness on failure."""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
import sys
import time
from collections import Counter
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
    enumerate_dyck,
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


class CheckReport:
    """The outcome of one check. Mutable, and compared by nothing: tests
    compare the JSON lines."""

    def __init__(self, claim, params, passed, witness=None, seconds=0.0,
                 error=None, peak_rss_kb=0, counters=None):
        self.claim = claim
        self.params = params
        self.passed = passed
        self.witness = witness
        self.seconds = seconds
        # what the checker raised (run_sweep gives its traceback text
        # instead, which a worker process can send back); not serialised
        self.error = error
        self.peak_rss_kb = peak_rss_kb  # of the process that ran it, at its end
        self.counters = {} if counters is None else counters  # what it enumerated

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

        check.claim, check.params = name, params
        CLAIMS.append(name)
        return check

    return wrap


# -- partition-statistic claims --------------------------------------------
#
# conj_nonstd_qbin, thm_ratcat, lem_h_via_labels and lem_cyc_shift read the
# one box walk frame_entries: pairs (code, (|mu|, ml, h+, h-)) in descending
# code order, with the triangle where ml == 0. The code is the frontier word
# as an (a+b)-bit int, N = 1 and the first step highest, so a cyclic shift
# is a bit rotation. A checker keeps of it only what it needs, and rebuilds
# the word (_word) and mu (partition_of_frontier) only for a witness or, in
# thm_ratcat, once per triangle word. conj_rat_qcat needs only the triangle
# and walks the Dyck words instead.
#
# The level route (frame_entries, _word_stats) lives in partitions.py and
# the arm/leg route (_arm_leg_walk, _arm_leg_cells) here: they are the two
# sides of lem_h_via_labels and share no helper. The helpers below serve
# only these checkers, so they live here and not in partitions.py, which
# every command imports and compiles.


_N_E = str.maketrans("10", "NE")


def _word(code, n):
    """The frontier word of n steps whose code is code (N = 1, first step
    highest)."""
    return bin(code | 1 << n)[3:].translate(_N_E)


def _mu(code, a, b):
    """mu, as a list, of the a x b box word with the given code: a
    witness."""
    return list(partition_of_frontier(_word(code, a + b), a, b))


def _box_entries(a, b, counters):
    """frame_entries(a, b), counting the words it yields as box_words."""
    counters["box_words"] = 0
    for entry in frame_entries(a, b):
        counters["box_words"] += 1
        yield entry


def _arm_leg_walk(a, b):
    """(code, h+, h-) for every partition in the a x b box, in frame_entries
    order, counted from the arm/leg windows; no level is read.

    The walk takes the same steps (depth first, N child first) and writes
    its own code. An N step at x lays a row of length x on top of the rows
    already down. Column j (from 0) of the row has arm x-1-j and, as leg,
    the number of rows already on column j, so its cell is
    cells[leg*b + arm] (_arm_leg_cells): the walk keeps leg*b - j per
    column and adds x-1. The E steps after the last row change nothing, so
    a prefix with a - 1 rows yields its leaves at once, one per length of
    that row.
    """
    if not a:
        yield 0, 0, 0
        return
    cells, width = _arm_leg_cells(a, b)
    low = (1 << width) - 1
    # code, leg*b - j of each column j, x, rows, h+ | h- << width
    stack = [(0, tuple(range(0, -b, -1)), 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        code, keys, x, rows, h = pop()
        if rows == a - 1:
            code <<= b - x + 1
            for y in range(x, b + 1):  # the last row, of length y
                arm = y - 1
                row = h + sum([cells[k + arm] for k in keys[:y]])
                yield code | 1 << (b - y), row & low, row >> width
            continue
        if x < b:  # pushed first, so the N child is walked first
            push((code << 1, keys, x + 1, rows, h))
        arm = x - 1
        push((code << 1 | 1, tuple([k + b for k in keys[:x]]) + keys[x:], x,
              rows + 1, h + sum([cells[k + arm] for k in keys[:x]])))


def _arm_leg_cells(a, b):
    """(cells, width): cells[leg*b + arm], for leg < a and arm < b, packs
    the h+ and h- counts of one cell as h+ | h- << width. With
    v = a*arm - b*leg, h+ counts the cells with -a < v <= b and h- those
    with -a <= v < b; width holds a*b, so a sum of cells never carries
    from one field into the other."""
    width = (a * b).bit_length()
    cells = []
    for leg in range(a):
        for arm in range(b):
            v = a * arm - b * leg
            cells.append((-a < v <= b) | (-a <= v < b) << width)
    return cells, width


def _shift_increments(code, a, b):
    """(pairs, levels): the two formulas of the cyclic-shift lemma for the
    h+ increment from a word to its shift by one step, in one pass over the
    steps of its code.

    With l the level before each step and n = a + b: if the word starts
    with N, pairs counts the E steps with 1 <= l <= n and levels the steps
    with 1 <= l <= b; if it starts with E, pairs is minus the count of N
    steps with 1 <= -l <= n and levels minus the count of steps with
    1 <= -l <= a.
    """
    n = a + b
    w = bin(code | 1 << n)[3:]  # the steps, "1" for N and "0" for E
    if w[0] == "1":  # v = l
        sign, partner, top, up, down = 1, "0", b, b, -a
    else:  # v = -l
        sign, partner, top, up, down = -1, "1", a, -b, a
    v = pairs = lv = 0
    for step in w:
        if 1 <= v <= n:
            if step == partner:
                pairs += 1
            if v <= top:
                lv += 1
        v += up if step == "1" else down
    return sign * pairs, sign * lv


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
        total = LaurentQT(Counter((s[0] + s[k], 0) for s in tri))
        if total != target:
            return {"variant": tag, "sum": total.to_json(),
                    "target": target.to_json()}


@_claim("conj_nonstd_qbin", "a", "b")
def check_conj_nonstd_qbin(a, b, counters):
    """Box sum of q^(|mu| + ml + h) equals the q-binomial, both variants;
    no coprimality required."""
    target = q_binomial(a + b, a)
    hist = Counter((size + ml + hp, size + ml + hm)  # how many partitions
                   for _, (size, ml, hp, hm) in frame_entries(a, b))
    counters["box_words"] = sum(hist.values())
    for tag, k in (("h+", 0), ("h-", 1)):
        total = LaurentQT(((key[k], 0), n) for key, n in hist.items())
        if total != target:
            return {"variant": tag, "sum": total.to_json(),
                    "target": target.to_json()}


@_claim("thm_ratcat", "a", "b")
def check_thm_ratcat(a, b, counters):
    """Box sum factors as [a+b]_q times the triangle sum, and the orbit of
    every triangle word under cyclic shifts has the shape the factorisation
    rests on.

    The orbit of a triangle word w0 (mu0) is its n = a+b shifts. Their h+
    are h+(w0)+0..n-1, the shift with minimum level ml sits at the offset
    of -ml among the sorted levels of w0, and |mu| + ml = |mu0| on each.
    The rest of the orbit decomposition of the box follows. Distinct h+
    make the n shifts distinct. Offset 0 is w0's lowest level, 0, so
    exactly one shift has ml = 0: an orbit holds one triangle word, and
    the orbits of distinct triangle words are disjoint. With
    box(1) = n * tri(1), they cover the box.
    """
    table = dict(_box_entries(a, b, counters))  # code: (|mu|, ml, h+, h-)
    triangle = [c for c, s in table.items() if s[1] == 0]
    box = LaurentQT(Counter((size + ml + hp, 0)
                            for size, ml, hp, _ in table.values()))
    tri = LaurentQT(Counter((table[c][0] + table[c][2], 0) for c in triangle))
    if box != q_int(a + b) * tri:
        return {"box": box.to_json(), "tri": tri.to_json()}
    n = a + b
    mask = (1 << n) - 1
    for c0 in triangle:
        size0, _, base, _ = table[c0]
        w0 = _word(c0, n)
        # the levels before w0's n steps, distinct as gcd(a, b) = 1, by rank
        offset = {lv: i for i, lv in enumerate(sorted(levels(w0, a, b)[:n]))}
        # the shift by k steps is the window of c0 c0 that starts at step k
        twice = c0 << n | c0
        shifts = [table[twice >> (n - k) & mask] for k in range(n)]
        if (sorted(hp for _, _, hp, _ in shifts) != list(range(base, base + n))
                or any(size + ml != size0 or offset.get(-ml) != hp - base
                       for size, ml, hp, _ in shifts)):
            return {"orbit_rep": list(partition_of_frontier(w0, a, b))}


@_claim("lem_h_via_labels", "a", "b")
def check_lem_h_via_labels(a, b, counters):
    """Arm/leg window counts match the frontier-level pair counts, checked
    word by word as the two walks yield them in step."""
    walks = zip(_box_entries(a, b, counters), _arm_leg_walk(a, b), strict=True)
    for (c, (_, _, hp, hm)), (arm_c, arm_hp, arm_hm) in walks:
        if arm_c != c:
            raise AssertionError(
                f"the arm/leg walk is at {_word(arm_c, a + b)}, "
                f"the box walk at {_word(c, a + b)}")
        if arm_hp != hp:
            return {"mu": _mu(c, a, b), "sign": "+"}
        if arm_hm != hm:
            return {"mu": _mu(c, a, b), "sign": "-"}


@_claim("lem_cyc_shift", "a", "b")
def check_lem_cyc_shift(a, b, counters):
    """The h+ increment of one cyclic shift, via both stated formulas."""
    h_plus_of = {c: s[2] for c, s in _box_entries(a, b, counters)}
    n = a + b
    mask = (1 << n) - 1
    for c, hp in h_plus_of.items():
        delta = h_plus_of[c << 1 & mask | c >> (n - 1)] - hp  # shift by one
        f1, f2 = _shift_increments(c, a, b)
        if not delta == f1 == f2:
            return {"mu": _mu(c, a, b), "delta": delta, "pairs": f1,
                    "levels": f2}


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
    total = LaurentQT(Counter((maj(d), 0) for d in enumerate_dyck(n, n)))
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
    paths = counters["dyck_paths"] = sum(1 for _ in enumerate_dyck(a, b))
    if paths != count_dyck(a, b):
        return {"paths": paths}
    pfs = counters["parking_functions"] = sum(1 for _ in enumerate_pf(a, b))
    if pfs != b ** (a - 1):
        return {"pfs": pfs}


@_claim("dinv_eq_area_prime_zeta", "n")
def check_dinv_zeta(n, counters):
    """dinv(P) = area'(zeta(P)) over all classical parking functions."""
    counters["parking_functions"] = 0
    for d in enumerate_dyck(n, n):
        for pf in labelings_of(d):
            counters["parking_functions"] += 1
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
    lam fixes}, in partitions_of(a) order, by brute force over every
    labeling of every Dyck path.

    sigma fixes a parking function exactly when it maps the label set of
    each vertical run onto itself. With img[m] the image under sigma_k of
    the subset with bitmask m, stab[m] has bit k set when img[m] == m; a
    labeling is fixed by the sigma_k whose bit is in stab of every run.
    """
    lams = list(partitions_of(a))
    stab = [0] * (1 << a)  # subset bitmask -> bitmask of the lams fixing it
    for k, lam in enumerate(lams):
        sigma = _perm_of_cycle_type(lam)
        img = [0] * (1 << a)
        for m in range(1, 1 << a):
            low = m & -m
            img[m] = img[m ^ low] | 1 << (sigma[low.bit_length()] - 1)
            if img[m] == m:
                stab[m] |= 1 << k
    # a run's labels increase, so its label set is keyed by their tuple
    stab_of = {tuple(x for x in range(1, a + 1) if m >> (x - 1) & 1): s
               for m, s in enumerate(stab)}
    everyone = (1 << len(lams)) - 1
    hist = {}  # bitmask of the lams fixing a labeling -> how many labelings
    for d in enumerate_dyck(a, b):
        runs = _run_slices(d.word, a)
        for labels in _label_tuples(d):
            fixers = everyone
            for run in runs:
                fixers &= stab_of[labels[run]]
            hist[fixers] = hist.get(fixers, 0) + 1
    counters["parking_functions"] = sum(hist.values())
    return {lam: sum(c for f, c in hist.items() if f >> k & 1)
            for k, lam in enumerate(lams)}


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


@_claim("qbin_recursion", "n")
def check_qbin_recursion(n, counters):
    """Both standard q-binomial recursions at total degree n."""
    row = [q_binomial(n - 1, s) for s in range(n)]
    for s in range(1, n):
        r = n - s
        lhs = q_binomial(n, s)
        one = LaurentQT.monomial(s, 0) * row[s] + row[s - 1]
        two = row[s] + LaurentQT.monomial(r, 0) * row[s - 1]
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


def run_sweep(limit=10, claim="all", workers=1):
    """Run the default sweep, yielding each report in task order as soon as
    it and every report before it are done; a claim name from CLAIMS keeps
    only that claim's tasks. A crashed check's report carries the formatted
    traceback as its error.

    With workers > 1, task 0 runs here first, so its report is not delayed,
    and the rest on up to `workers` processes forked from this one
    (_run_forked). A worker that dies (killed by a signal, say) ends the
    sweep: the first task with no report then gets a failed report whose
    witness names WorkerDied, the worker's pid and its signal or exit
    status. With one worker, fewer than two tasks after the first, or no
    fork on this platform, every task runs here in turn. Every worker is
    killed and reaped however the caller stops, so close the generator (or
    run it to its end) before the process exits.
    """
    tasks = [(chk, args) for chk, args in sweep_tasks(limit)
             if claim == "all" or chk.claim == claim]
    workers = min(workers, len(tasks) - 1)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(_run_task, tasks)
        return
    yield _run_task(tasks[0])
    yield from _run_forked(tasks, workers)


def _run_forked(tasks, workers):
    """The reports of tasks[1:] in task order, from `workers` forked
    processes, which inherit the task list (rebound checkers included).

    Every worker reads task indices, 4 bytes at a time, from one shared
    feed pipe, so each index goes to exactly one worker as it comes free.
    This process deals them in writes of at most PIPE_BUF bytes, which a
    pipe takes whole or not at all, as fast as the pipe takes them, and
    never blocks on the feed. Each worker sends back length-prefixed
    pickles of (index, report) on a pipe of its own, which reaches end of
    file only once the worker is gone. The feed stays open until the last
    report is in, so a worker gone before then has died: the feed is then
    closed and emptied, the other workers leave once they have sent what
    they took, and the first task with no report gets the failed
    WorkerDied report.
    """
    # imported here, so that the imports do not delay task 0
    import pickle
    import select
    import signal

    # flush first, so that no worker writes this process's buffered output
    # again; the workers' collector leaves frozen objects alone, instead of
    # copying the pages they share with this process
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    feed_r, feed_w = os.pipe()
    os.set_blocking(feed_w, False)
    pids = {}  # each worker's report pipe (read end): its pid, 0 once reaped
    died = None  # how the first worker to end early ended
    try:
        for _ in range(workers):
            r, w = os.pipe()
            pids[r] = 0
            # SIGINT waits until the worker is inside _work, so that its
            # KeyboardInterrupt cannot unwind through this frame there
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if not (pid := os.fork()):
                    _work(tasks, feed_r, w, [feed_w, *pids])
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                os.close(w)
            pids[r] = pid
        poller = select.poll()
        for r in pids:
            poller.register(r, select.POLLIN)
        inbox = {r: bytearray() for r in pids}  # read, not yet a whole report
        done = {}  # reports that came before their turn, by task index
        sent = turn = 1  # the next task to deal, and the next to yield
        while True:
            if died is None and sent < len(tasks):
                count = min(len(tasks) - sent, select.PIPE_BUF // 4)
                batch = b"".join(i.to_bytes(4, "little")
                                 for i in range(sent, sent + count))
                try:
                    os.write(feed_w, batch)
                    sent += count
                except BlockingIOError:
                    pass  # the pipe is full; the next report wakes us
            while turn in done:
                yield done.pop(turn)
                turn += 1
            if turn == len(tasks) or not any(pids.values()):
                break
            for r, _ in poller.poll():
                if data := os.read(r, 1 << 16):
                    buf = inbox[r]
                    buf += data
                    while len(buf) >= 4 + (
                            size := int.from_bytes(buf[:4], "little")):
                        i, report = pickle.loads(buf[4:4 + size])
                        done[i] = report
                        del buf[:4 + size]
                    continue
                pid, status = os.waitpid(pids[r], 0)
                pids[r] = 0  # reaped: the finally below must not kill it
                poller.unregister(r)
                if died is None:
                    code = os.waitstatus_to_exitcode(status)
                    died = f"worker {pid} " + (
                        f"was killed by {signal.Signals(-code).name}"
                        if code < 0 else f"exited with status {code}")
                    # with no writer left, a read of the feed returns what
                    # is queued, or b"" once it is empty: it never blocks
                    os.close(feed_w)
                    while os.read(feed_r, select.PIPE_BUF):
                        pass
        if turn < len(tasks):
            chk, args = tasks[turn]
            yield CheckReport(chk.claim, dict(zip(chk.params, args)), False,
                              {"exception": "WorkerDied", "message": died},
                              error=f"WorkerDied: {died}\n")
    finally:
        for r, pid in pids.items():
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(r)
        os.close(feed_r)
        if died is None:
            os.close(feed_w)
        gc.unfreeze()


def _work(tasks, feed, out, inherited):
    """The life of a forked worker: close the inherited fds it has no use
    for, then run each task whose index it reads from feed, writing the
    report to out as a length-prefixed pickle of (index, report), until
    feed ends. It leaves by os._exit on every path, KeyboardInterrupt
    included, so it never returns into the parent's code and never flushes
    the parent's buffers."""
    code = 1
    try:
        import pickle
        import signal

        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in inherited:
            os.close(fd)
        while index := os.read(feed, 4):
            i = int.from_bytes(index, "little")
            data = pickle.dumps((i, _run_task(tasks[i])))
            frame = memoryview(len(data).to_bytes(4, "little") + data)
            while frame:
                frame = frame[os.write(out, frame):]
        code = 0
    finally:
        os._exit(code)


def _run_task(task):
    """The report of one (checker, args) task; a crash's exception becomes
    its traceback text, which pickles whatever the exception holds."""
    chk, args = task
    report = chk(*args)
    if report.error is not None:
        import traceback  # only a crash needs it

        report.error = "".join(traceback.format_exception(report.error))
    return report


def reports_to_jsonl(reports, include_seconds=False):
    """One JSON line per report, joined by newlines: the only place that
    decides the line format (`ratcat verify` writes each report with it)."""
    return "\n".join(
        json.dumps(r.to_json(include_seconds), sort_keys=True) for r in reports
    )
