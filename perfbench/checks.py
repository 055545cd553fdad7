"""Output checks for the benchmark, computed without any of ratcat's code.

Every check returns a list of problems; an empty list means the output
passed. The formulas are the classical closed forms the paper's tables must
satisfy, evaluated here with plain integer arithmetic:

- the hook-length formula for f^lam (standard tableaux),
- the hook-content formula for s_lam(1^b),
- the Schroeder hook numbers C(a-1,k) C(b+k,a) / b,
- Bizley's count (a+b-1)!/(a! b!) of (a,b)-Dyck paths,
- the rational q-Catalan number [a+b choose a]_q / [a+b]_q, by dividing
  integer coefficient lists.
"""

from __future__ import annotations

import json
import os
from math import comb, factorial, gcd

GOLDEN_CAT_FRAMES = [(2, 3), (3, 5), (3, 7), (4, 7), (5, 8)]
GOLDEN_PF_FRAMES = [(2, 3), (2, 5), (3, 5), (4, 7), (5, 3), (5, 8), (7, 4)]


# -- integer combinatorics -------------------------------------------------


def partitions(n, max_part=None):
    """All partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _hooks_and_contents(lam):
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    for i, p in enumerate(lam):
        for j in range(p):
            yield (p - j - 1) + (cols[j] - i - 1) + 1, j - i


def standard_tableaux(lam):
    """f^lam by the hook-length formula."""
    denom = 1
    for hook, _ in _hooks_and_contents(lam):
        denom *= hook
    return factorial(sum(lam)) // denom


def schur_at_ones(lam, b):
    """s_lam(1^b) by the hook-content formula."""
    num = denom = 1
    for hook, content in _hooks_and_contents(lam):
        num *= b + content
        denom *= hook
    value, rem = divmod(num, denom)
    if rem:
        raise ArithmeticError(f"hook-content quotient for {lam} is not integral")
    return value


def q_binomial(n, k):
    """Coefficient list of the Gaussian binomial [n choose k]_q (Pascal rule)."""
    row = [[1]]  # row[j] = [i choose j]_q for the current i
    for i in range(1, n + 1):
        new = []
        for j in range(i + 1):
            # [i choose j] = [i-1 choose j-1] + q^j [i-1 choose j]
            left = row[j - 1] if j >= 1 else []
            right = [0] * j + row[j] if j < i else []
            size = max(len(left), len(right))
            new.append([
                (left[d] if d < len(left) else 0)
                + (right[d] if d < len(right) else 0)
                for d in range(size)
            ])
        row = new
    return row[k]


def divide_exactly(num, den):
    """Quotient of two integer coefficient lists; raises if inexact."""
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for d in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[d + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact coefficient in polynomial division")
        quot[d] = c
        for i, x in enumerate(den):
            rem[d + i] -= c * x
    if any(rem):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return quot


def rational_q_catalan(a, b):
    """Coefficient list of [a+b choose a]_q / [a+b]_q."""
    return divide_exactly(q_binomial(a + b, a), [1] * (a + b))


# -- parsing ---------------------------------------------------------------


def parse_matrix(text):
    """Rows of a rendered q,t matrix: '.' is zero, entry [i][j] is q^i t^j."""
    rows = []
    for line in text.strip("\n").split("\n"):
        rows.append([0 if tok == "." else int(tok) for tok in line.split()])
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix is not rectangular")
    return rows


def _matrix_terms(rows):
    return {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}


def parse_pf_table(text):
    """A golden pf table: '[parts]' header lines, each followed by a matrix."""
    series = {}
    for block in text.strip("\n").split("\n\n"):
        head, _, body = block.partition("\n")
        if not (head.startswith("[") and head.endswith("]")):
            raise ValueError(f"bad block header {head!r}")
        lam = tuple(int(x) for x in head[1:-1].split())
        if lam in series:
            raise ValueError(f"repeated block {lam}")
        series[lam] = _matrix_terms(parse_matrix(body))
    return series


def parse_pf_json(text, a):
    """`ratcat pfqt --format json` output as {lam: {(i, j): coeff}}.

    A coefficient that is not an integer is kept as its string, so the
    integrality check reports it instead of the parser failing.
    """
    data = json.loads(text)
    if data.get("basis") != "s" or data.get("degree") != a:
        raise ValueError("expected a Schur expansion of degree a")
    series = {}
    for lam, terms in data["terms"]:
        poly = {}
        for qe, te, c in terms:
            try:
                poly[(qe, te)] = int(c)
            except ValueError:
                poly[(qe, te)] = c
        series[tuple(lam)] = poly
    return series


# -- checks ----------------------------------------------------------------


def check_pf_series(series, a, b):
    """Checks on the Schur expansion of the (a,b) q,t-parking-function series."""
    problems = []
    for lam, poly in series.items():
        if sorted(lam, reverse=True) != list(lam) or sum(lam) != a or min(lam, default=1) < 1:
            problems.append(f"{lam} is not a partition of {a}")
        for (i, j), c in poly.items():
            if not isinstance(c, int) or c < 0 or i < 0 or j < 0:
                problems.append(f"s_{lam}: term q^{i} t^{j} has coefficient {c!r}")
            elif poly.get((j, i), 0) != c:
                problems.append(f"s_{lam}: not symmetric at q^{i} t^{j}")
    if problems:
        return problems
    at_ones = {lam: sum(poly.values()) for lam, poly in series.items()}
    dimension = 0
    for lam in partitions(a):
        value = at_ones.get(lam, 0)
        dimension += value * standard_tableaux(lam)
        expect, rem = divmod(schur_at_ones(lam, b), b)
        if rem or value != expect:
            problems.append(f"s_{lam} at q=t=1 is {value}, s_lam(1^b)/b is {expect}")
    if dimension != b ** (a - 1):
        problems.append(f"sum of c_lam(1,1) f^lam is {dimension}, not {b ** (a - 1)}")
    for k in range(a):
        hook = (k + 1,) + (1,) * (a - k - 1)
        expect, rem = divmod(comb(a - 1, k) * comb(b + k, a), b)
        if rem or at_ones.get(hook, 0) != expect:
            problems.append(f"hook {hook} at q=t=1 is {at_ones.get(hook, 0)}, not {expect}")
    return problems


def check_cat_matrix(rows, a, b):
    """Checks on the q,t-Catalan matrix of the frame (a,b)."""
    problems = []
    if any(c < 0 for row in rows for c in row):
        problems.append("negative entry")
    total = sum(map(sum, rows))
    bizley = factorial(a + b - 1) // (factorial(a) * factorial(b))
    if total != bizley:
        problems.append(f"entries sum to {total}, not {bizley}")
    if any(len(row) != len(rows) for row in rows) or any(
        rows[i][j] != rows[j][i] for i in range(len(rows)) for j in range(len(rows))
    ):
        problems.append("matrix is not symmetric")
    # t = 1/q sends q^i t^j to q^(i-j); the paper shifts by (a-1)(b-1)/2
    shift = (a - 1) * (b - 1) // 2
    diagonal = {}
    for (i, j), c in _matrix_terms(rows).items():
        diagonal[shift + i - j] = diagonal.get(shift + i - j, 0) + c
    target = {e: c for e, c in enumerate(rational_q_catalan(a, b)) if c}
    if {e: c for e, c in diagonal.items() if c} != target:
        problems.append("sums along i-j do not give the rational q-Catalan number")
    return problems


def check_golden_table(name, text):
    """Checks on one golden table file, named cat_a_b.txt or pf_a_b.txt."""
    kind, a, b = name[: -len(".txt")].split("_")
    a, b = int(a), int(b)
    try:
        if kind == "cat":
            return check_cat_matrix(parse_matrix(text), a, b)
        return check_pf_series(parse_pf_table(text), a, b)
    except ValueError as exc:
        return [f"{name}: {exc}"]


def golden_names():
    return sorted(
        [f"cat_{a}_{b}.txt" for a, b in GOLDEN_CAT_FRAMES]
        + [f"pf_{a}_{b}.txt" for a, b in GOLDEN_PF_FRAMES]
    )


def check_golden(stdout, golden_dir):
    """`ratcat golden` must report every table, in name order, as 'ok', that
    is equal to its file in golden_dir; each file must pass its checks."""
    lines = [line.split() for line in stdout.splitlines()]
    expect = [["ok", name] for name in golden_names()]
    if lines != expect:
        return [f"golden listing differs from 'ok' for every table: {lines}"]
    problems = []
    for name in golden_names():
        with open(os.path.join(golden_dir, name)) as f:
            problems += check_golden_table(name, f.read())
    return problems


def _coprime(bound_a, bound_b):
    return [(a, b) for a in range(1, bound_a + 1)
            for b in range(1, bound_b + 1) if gcd(a, b) == 1]


def expected_sweep_checks(limit):
    """(claim, params) of every report `ratcat verify all --range limit` makes.

    Rebuilt from the documented sweep rules: partition-statistic and
    q,t-Catalan claims over all coprime a, b <= limit (the non-standard
    q-binomial claim over every a, b <= limit); the h-window lemmas over
    coprime a, b <= 8; the pf-series claims over coprime a <= 4, b <= 9
    plus (5,8) and (7,4); MacMahon for n <= 6; the q-binomial recursion
    for 2 <= n <= 20; the counting claims over coprime a <= 5, b <= 9;
    dinv = area'(zeta) for n <= 5; fixed points over coprime a <= 5, b <= 8.
    """
    out = []

    def add(claim, frames, keys=("a", "b")):
        for frame in frames:
            out.append((claim, dict(zip(keys, frame))))

    frames = _coprime(limit, limit)
    for claim in ("conj_rat_qcat", "conj_ratqt_symm", "conj_qtcat_spec",
                  "thm_ratcat", "sweep_injective"):
        add(claim, frames)
    add("conj_nonstd_qbin", [(a, b) for a in range(1, limit + 1)
                             for b in range(1, limit + 1)])
    for claim in ("lem_h_via_labels", "lem_cyc_shift"):
        add(claim, _coprime(8, 8))
    for claim in ("conj_abpf", "thm_rational_frobenius"):
        add(claim, _coprime(4, 9) + [(5, 8), (7, 4)])
    add("macmahon_maj", [(n,) for n in range(1, 7)], ("n",))
    add("qbin_recursion", [(n,) for n in range(2, 21)], ("n",))
    for claim in ("prop_multinomial", "bizley_counts"):
        add(claim, _coprime(5, 9))
    add("dinv_eq_area_prime_zeta", [(n,) for n in range(1, 6)], ("n",))
    add("fixed_points", _coprime(5, 8))
    return out


def check_sweep_reports(stdout, limit):
    """Every report passed, and there is exactly one per expected check."""
    problems = []
    seen = {}
    for line in stdout.splitlines():
        report = json.loads(line)
        key = (report["claim"], json.dumps(report["params"], sort_keys=True))
        seen[key] = seen.get(key, 0) + 1
        if report.get("passed") is not True:
            problems.append(f"{key} did not pass")
    expect = {(c, json.dumps(p, sort_keys=True)) for c, p in expected_sweep_checks(limit)}
    missing = expect - set(seen)
    extra = set(seen) - expect
    repeated = [k for k, n in seen.items() if n > 1]
    if missing:
        problems.append(f"{len(missing)} expected reports missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} unexpected reports, e.g. {min(extra)}")
    if repeated:
        problems.append(f"{len(repeated)} reports repeated, e.g. {min(repeated)}")
    return problems
