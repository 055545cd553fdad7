"""Claim checkers: spot checks plus report plumbing."""

import functools
import json
import os
import re
import signal
import time
from glob import glob
from math import gcd
from pathlib import Path

import pytest

import ratcat.verify
from ratcat.frob import frob_s, pf_qt
from ratcat.parking import _label_tuples, _run_label_groups, enumerate_pf
from ratcat.partitions import (
    _word_stats,
    frame_entries,
    partition_of_frontier,
    partitions_of,
)
from ratcat.paths import (
    count_dyck,
    enumerate_dyck,
    levels,
    maj,
)
from ratcat.qt import LaurentQT
from ratcat.verify import (
    CLAIMS,
    CheckReport,
    _fixed_point_counts,
    _perm_of_cycle_type,
    _run_slices,
    _shift_increments,
    _timed,
    check_bizley,
    check_conj_abpf,
    check_conj_nonstd_qbin,
    check_conj_rat_qcat,
    check_dinv_zeta,
    check_fixed_points,
    check_frobenius,
    check_lem_cyc_shift,
    check_lem_h_via_labels,
    check_macmahon,
    check_prop_multinomial,
    check_qbin_recursion,
    check_spec,
    check_sweep_contract,
    check_symmetry,
    check_thm_ratcat,
    reports_to_jsonl,
    run_sweep,
    sweep_tasks,
)
from test_partitions import code_of, word_of
from test_paths import cyclic_shift


def test_spot_checks_pass():
    reports = [
        check_conj_rat_qcat(3, 5),
        check_conj_rat_qcat(1, 7),
        check_conj_nonstd_qbin(2, 3),
        check_conj_nonstd_qbin(4, 6),  # non-coprime allowed
        check_thm_ratcat(3, 5),
        check_lem_h_via_labels(3, 4),
        check_lem_cyc_shift(3, 5),
        check_symmetry(5, 8),
        check_spec(2, 3),
        check_conj_abpf(2, 3),
        check_macmahon(4),
        check_prop_multinomial(3, 5),
        check_bizley(4, 7),
        check_dinv_zeta(3),
        check_frobenius(4, 7),
        check_fixed_points(3, 5),
        check_qbin_recursion(8),
        check_sweep_contract(4, 7),
    ]
    failing = [r for r in reports if not r.passed]
    assert not failing, failing


def test_report_json_shape():
    r = check_conj_rat_qcat(2, 3)
    data = r.to_json()
    assert data == {"claim": "conj_rat_qcat", "params": {"a": 2, "b": 3},
                    "passed": True}
    timed = r.to_json(include_seconds=True)
    assert "seconds" in timed


def test_failed_report_carries_witness():
    r = CheckReport("demo", {"a": 1}, False, witness={"mu": [2, 1]})
    line = reports_to_jsonl([r])
    parsed = json.loads(line)
    assert parsed["passed"] is False
    assert parsed["witness"] == {"mu": [2, 1]}


def _coprime_box(bound_a, bound_b):
    return [(a, b) for a in range(1, bound_a + 1)
            for b in range(1, bound_b + 1) if gcd(a, b) == 1]


def _nested_loop_plan(limit):
    """(claim, args) of the default sweep, as the nested loops wrote it out
    before the plan became one table."""
    plan = []
    for f in _coprime_box(limit, limit):
        plan += [("conj_rat_qcat", f), ("conj_ratqt_symm", f),
                 ("conj_qtcat_spec", f)]
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            plan.append(("conj_nonstd_qbin", (a, b)))
    plan += [("thm_ratcat", f) for f in _coprime_box(limit, limit)]
    for f in _coprime_box(8, 8):
        plan += [("lem_h_via_labels", f), ("lem_cyc_shift", f)]
    for f in _coprime_box(4, 9) + [(5, 8), (7, 4)]:
        plan += [("conj_abpf", f), ("thm_rational_frobenius", f)]
    plan += [("sweep_injective", f) for f in _coprime_box(limit, limit)]
    plan += [("macmahon_maj", (n,)) for n in range(1, 7)]
    plan += [("qbin_recursion", (n,)) for n in range(2, 21)]
    for f in _coprime_box(5, 9):
        plan += [("prop_multinomial", f), ("bizley_counts", f)]
    plan += [("dinv_eq_area_prime_zeta", (n,)) for n in range(1, 6)]
    plan += [("fixed_points", f) for f in _coprime_box(5, 8)]
    return plan


def test_sweep_table_matches_the_nested_loop_plan():
    for limit in range(1, 11):
        plan = [(chk.claim, args) for chk, args in sweep_tasks(limit)]
        assert plan == _nested_loop_plan(limit), limit


def test_claim_registry_names_each_checker():
    tasks = sweep_tasks(limit=2)
    assert {chk.claim for chk, _ in tasks} == set(CLAIMS)
    assert len(CLAIMS) == len(set(CLAIMS))
    for name in CLAIMS:
        chk, first = next((c, args) for c, args in tasks if c.claim == name)
        assert chk(*first).claim == name


def test_claim_selects_a_rebound_checker(monkeypatch):
    # a wrapped module-level checker (as a tracer installs) still runs
    calls = []

    @functools.wraps(check_macmahon)
    def wrapped(*args):
        calls.append(args)
        return check_macmahon(*args)

    monkeypatch.setattr(ratcat.verify, "check_macmahon", wrapped)
    reports = list(run_sweep(claim="macmahon_maj"))
    assert [r.params for r in reports] == [{"n": n} for n in range(1, 7)]
    assert all(r.passed and r.claim == "macmahon_maj" for r in reports)
    assert calls == [(n,) for n in range(1, 7)]


def _children():
    """This process's children, running or not yet reaped."""
    return [int(pid) for path in glob("/proc/self/task/*/children")
            for pid in Path(path).read_text().split()]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a pool test whose sweep takes over 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the sweep took over 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _task(n, body):
    """A task whose check runs body(n) and passes, unless body raises."""
    def run(n, counters):
        body(n)

    def check(n):
        return _timed("task", {"n": n}, run, (n,))

    check.claim, check.params = "task", ("n",)
    return check, (n,)


def test_a_sweep_stopped_early_leaves_no_worker(monkeypatch, deadline):
    tasks = [(check_macmahon, (n,)) for n in range(1, 7)]
    monkeypatch.setattr(ratcat.verify, "sweep_tasks", lambda *args: tasks)
    reports = run_sweep(workers=2)
    assert [next(reports).params for _ in range(3)] == [
        {"n": 1}, {"n": 2}, {"n": 3}]
    assert len(_children()) == 2
    reports.close()
    _assert_no_child()


def test_stopping_early_ends_busy_workers_at_once(monkeypatch, deadline):
    # every task after the third keeps its worker busy for 5 s
    tasks = [_task(n, lambda n: time.sleep(5 if n >= 3 else 0))
             for n in range(12)]
    monkeypatch.setattr(ratcat.verify, "sweep_tasks", lambda *args: tasks)
    reports = run_sweep(workers=2)
    assert [next(reports).params["n"] for _ in range(3)] == [0, 1, 2]
    t0 = time.monotonic()
    reports.close()
    assert time.monotonic() - t0 < 1
    _assert_no_child()


@pytest.mark.parametrize("workers", [2, 5])  # 5: more workers than cores
def test_the_feed_outgrows_a_pipe(monkeypatch, tmp_path, deadline, workers):
    # 20 000 task indices are 80 000 bytes, more than a pipe holds; each
    # task appends its n to one log, so a task run twice would show there
    fd = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        tasks = [_task(n, lambda n: os.write(fd, b"%d\n" % n))
                 for n in range(20_000)]
        monkeypatch.setattr(ratcat.verify, "sweep_tasks", lambda *args: tasks)
        reports = list(run_sweep(workers=workers))
    finally:
        os.close(fd)
    assert [r.params["n"] for r in reports] == list(range(20_000))
    assert all(r.passed for r in reports)
    ran = sorted(map(int, (tmp_path / "ran").read_text().split()))
    assert ran == list(range(20_000))
    _assert_no_child()


def test_a_killed_worker_ends_the_sweep_with_a_failed_report(monkeypatch,
                                                             deadline):
    @functools.wraps(check_macmahon)
    def dying(n):  # the worker that runs n = 4 is killed, as by the OOM killer
        if n == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return check_macmahon(n)

    tasks = [(dying, (n,)) for n in range(1, 7)]
    monkeypatch.setattr(ratcat.verify, "sweep_tasks", lambda *args: tasks)
    reports = list(run_sweep(workers=2))
    # a worker takes one task at a time and sends its report before the
    # next, so n = 2 and 3 are reported whichever worker ran them
    assert [r.params for r in reports] == [{"n": n} for n in range(1, 5)]
    assert [r.passed for r in reports] == [True, True, True, False]
    assert reports[3].claim == "macmahon_maj"
    assert reports[3].witness["exception"] == "WorkerDied"
    message = reports[3].witness["message"]
    assert re.fullmatch(r"worker \d+ was killed by SIGKILL", message)
    assert reports[3].error == f"WorkerDied: {message}\n"
    _assert_no_child()


def test_a_worker_that_exits_ends_the_sweep_with_its_status(monkeypatch,
                                                            deadline):
    tasks = [_task(n, lambda n: n == 3 and os._exit(7)) for n in range(6)]
    monkeypatch.setattr(ratcat.verify, "sweep_tasks", lambda *args: tasks)
    reports = list(run_sweep(workers=2))
    assert [r.params["n"] for r in reports] == [0, 1, 2, 3]
    assert [r.passed for r in reports] == [True, True, True, False]
    assert re.fullmatch(r"worker \d+ exited with status 7",
                        reports[3].witness["message"])
    _assert_no_child()


def test_small_sweep_rerun_determinism():
    # the range-3 sweep with the pf-series claims cut to coprime a <= 2,
    # b <= 3
    pf_claims = ("conj_abpf", "thm_rational_frobenius")
    tasks = [(chk, args) for chk, args in sweep_tasks(limit=3)
             if chk.claim not in pf_claims or args in _coprime_box(2, 3)]
    first = [chk(*args) for chk, args in tasks]
    rerun = [chk(*args) for chk, args in tasks]
    assert reports_to_jsonl(rerun) == reports_to_jsonl(first)
    assert all(r.passed for r in first)


PARTITION_CHECKERS = [
    check_conj_rat_qcat,
    check_conj_nonstd_qbin,
    check_thm_ratcat,
    check_lem_h_via_labels,
    check_lem_cyc_shift,
]


def test_partition_checks_bite_on_a_changed_table(monkeypatch):
    # raise h+ and h- of one triangle entry by one: every check must fail
    mu = (2, 1)
    word = "NENENEEE"
    assert partition_of_frontier(word, 3, 5) == mu

    def changed(a, b):  # the one box walk all four box checks read
        for c, (size, ml, hp, hm) in frame_entries(a, b):
            if c == code_of(word):
                assert ml == 0
                hp, hm = hp + 1, hm + 1
            yield c, (size, ml, hp, hm)

    def changed_stats(w, a, b):  # the same change, for the Dyck-word walk
        size, ml, hp, hm = _word_stats(w, a, b)
        return (size, ml, hp + 1, hm + 1) if w == word else (size, ml, hp, hm)

    monkeypatch.setattr(ratcat.verify, "frame_entries", changed)
    monkeypatch.setattr(ratcat.verify, "_word_stats", changed_stats)
    for chk in PARTITION_CHECKERS:
        report = chk(3, 5)
        assert not report.passed, report.claim
        assert report.error is None, report.claim
    # the two lemma checks name the changed partition itself
    assert check_lem_h_via_labels(3, 5).witness == {"mu": list(mu), "sign": "+"}
    assert check_lem_cyc_shift(3, 5).witness == {
        "mu": list(mu), "delta": 3, "pairs": 4, "levels": 4}


def test_thm_ratcat_bites_on_a_moved_unit_of_size(monkeypatch):
    # two words off the triangle, in different orbits, whose exponents
    # |mu| + ml + h+ differ by one trade them when one unit of |mu| moves
    # from one to the other: the box and triangle sums, every ml and every
    # h+ stay, so only |mu| + ml = |mu0| along the orbits can see it
    a, b = 3, 5
    table = dict(frame_entries(a, b))  # code: (|mu|, ml, h+, h-)
    rep = {}  # code: the triangle word of its orbit
    for c0, (_, ml, _, _) in table.items():
        if ml == 0:
            w0 = word_of(c0, a + b)
            rep.update((code_of(cyclic_shift(w0, k)), w0) for k in range(a + b))

    def exponent(stats):
        size, ml, hp, _ = stats
        return size + ml + hp

    low, high = next((u, v) for u in table for v in table
                     if table[u][1] and table[v][1] and rep[u] != rep[v]
                     and exponent(table[v]) == exponent(table[u]) + 1)
    changed = dict(table)
    for w, step in ((low, 1), (high, -1)):
        size, ml, hp, hm = table[w]
        changed[w] = (size + step, ml, hp, hm)
    assert sorted(map(exponent, changed.values())) == sorted(
        map(exponent, table.values()))

    monkeypatch.setattr(ratcat.verify, "frame_entries",
                        lambda a, b: iter(changed.items()))
    report = check_thm_ratcat(a, b)
    assert not report.passed
    assert report.error is None
    assert report.witness["orbit_rep"] in [
        list(partition_of_frontier(rep[w], a, b)) for w in (low, high)]


def test_triangle_frontier_words_are_the_dyck_words():
    # conj_rat_qcat walks the Dyck words in place of the box table's triangle
    for a, b in [(3, 5), (5, 3), (4, 7), (6, 6), (4, 6)]:
        triangle = {word_of(c, a + b): s
                    for c, s in frame_entries(a, b) if s[1] == 0}
        walked = {d.word: _word_stats(d.word, a, b) for d in enumerate_dyck(a, b)}
        assert walked == triangle, (a, b)


def test_conj_rat_qcat_counts_dyck_words():
    for a, b in [(1, 7), (3, 5), (5, 3), (4, 7)]:
        report = check_conj_rat_qcat(a, b)
        assert report.passed
        assert report.counters == {"dyck_words": count_dyck(a, b)}


def test_conj_rat_qcat_raises_on_a_word_below_the_diagonal(monkeypatch):
    def dipping(w, a, b):
        size, _, hp, hm = _word_stats(w, a, b)
        return size, -1, hp, hm

    monkeypatch.setattr(ratcat.verify, "_word_stats", dipping)
    report = check_conj_rat_qcat(3, 5)
    assert not report.passed
    assert report.witness["exception"] == "AssertionError"
    assert "ml -1" in report.witness["message"]


def test_conj_rat_qcat_raises_on_a_short_walk(monkeypatch):
    monkeypatch.setattr(ratcat.verify, "count_dyck", lambda a, b: 8)
    report = check_conj_rat_qcat(3, 5)
    assert not report.passed
    assert report.witness["exception"] == "AssertionError"
    assert "walked 7 Dyck words" in report.witness["message"]


def _sorted_runs(word, labels):
    """The labels re-sorted within each vertical run of word."""
    return tuple(x for run in _run_label_groups(word, labels)
                 for x in sorted(run))


def _per_cycle_type_counts(a, b):
    """The loop check_fixed_points ran before it counted in one pass: the
    whole frame held in a list, walked once per cycle type."""
    all_pf = list(enumerate_pf(a, b))
    counts = {}
    for lam in partitions_of(a):
        sigma = ratcat.verify._perm_of_cycle_type(lam)
        counts[lam] = sum(
            1 for p in all_pf
            if _sorted_runs(p.word, tuple(sigma[x] for x in p.labels)) == p.labels
        )
    return counts


def _one_pass_counts_over_pfs(a, b):
    """The one-pass count before it walked label tuples: a ParkingFunction
    per labeling, its word re-scanned into runs for every cycle type."""
    sigmas = {lam: _perm_of_cycle_type(lam) for lam in partitions_of(a)}
    fixed = dict.fromkeys(sigmas, 0)
    for p in enumerate_pf(a, b):
        for lam, sigma in sigmas.items():
            relabeled = tuple(sigma[x] for x in p.labels)
            resorted = tuple(x for run in _run_label_groups(p.word, relabeled)
                             for x in sorted(run))
            if resorted == p.labels:
                fixed[lam] += 1
    return fixed


def test_fixed_point_counts_match_the_one_pass_over_pfs():
    for a, b in [(3, 4), (4, 5), (5, 3), (5, 8)]:
        counts = _fixed_point_counts(a, b, {})
        want = _one_pass_counts_over_pfs(a, b)
        assert counts == want, (a, b)
        assert list(counts) == list(want)


def test_fixed_point_counts_match_the_per_cycle_type_loop():
    for a, b in [(3, 4), (4, 5), (5, 3)]:
        counters = {}
        counts = _fixed_point_counts(a, b, counters)
        assert counts == _per_cycle_type_counts(a, b), (a, b)
        assert list(counts) == list(partitions_of(a))
        assert counters == {"parking_functions": b ** (a - 1)}


def test_fixed_points_names_the_first_changed_cycle_type(monkeypatch):
    # the identity fixes every parking function, so giving it to a cycle
    # type changes that type's count
    def changed(lam):
        if lam in ((3, 1), (2, 1, 1)):
            return {x: x for x in range(1, 5)}
        return _perm_of_cycle_type(lam)

    monkeypatch.setattr(ratcat.verify, "_perm_of_cycle_type", changed)
    report = check_fixed_points(4, 5)
    assert not report.passed
    assert report.witness == {"lam": [3, 1], "fixed": 125, "expected": 5}
    assert _per_cycle_type_counts(4, 5)[(3, 1)] == 125
    assert report.counters == {"parking_functions": 125}


def test_enumerating_checks_count_what_they_walked():
    for a, b in [(1, 4), (3, 5), (5, 3), (4, 7)]:
        assert check_fixed_points(a, b).counters == {
            "parking_functions": b ** (a - 1)}
        for chk in (check_sweep_contract, check_prop_multinomial):
            report = chk(a, b)
            assert report.passed
            assert report.counters == {"dyck_paths": count_dyck(a, b)}
            assert "counters" not in report.to_json()
            assert report.to_json(True)["counters"] == report.counters
        assert check_bizley(a, b).counters == {
            "dyck_paths": count_dyck(a, b), "parking_functions": b ** (a - 1)}
    for n in range(1, 6):
        assert check_dinv_zeta(n).counters == {
            "parking_functions": (n + 1) ** (n - 1)}
    # the four box claims count the words of the one box walk
    assert check_conj_nonstd_qbin(4, 6).counters == {"box_words": 210}
    for chk in (check_thm_ratcat, check_lem_h_via_labels, check_lem_cyc_shift):
        assert chk(4, 7).counters == {"box_words": 330}


def test_pf_claims_count_schur_terms_and_partitions():
    for a, b in [(1, 4), (3, 5), (4, 3), (5, 2)]:
        schur_terms = len(pf_qt(a, b).coeffs)
        report = check_conj_abpf(a, b)
        assert report.passed
        assert report.counters == {"schur_terms": schur_terms}
        report = check_frobenius(a, b)
        assert report.passed
        assert report.counters == {
            "schur_terms": len(frob_s(a, b).coeffs),
            "partitions": len(list(partitions_of(a)))}
        assert "counters" not in report.to_json()


def test_an_out_of_step_arm_leg_walk_fails_as_an_exception(monkeypatch):
    real = ratcat.verify._arm_leg_walk

    def skipping(a, b):  # drops the first partition, so mu is out of step
        walk = real(a, b)
        next(walk)
        return walk

    def longer(a, b):  # one entry past the end of the box walk
        yield from real(a, b)
        yield (), 0, 0

    for walk, error in ((skipping, AssertionError), (longer, ValueError)):
        monkeypatch.setattr(ratcat.verify, "_arm_leg_walk", walk)
        report = check_lem_h_via_labels(3, 5)
        assert not report.passed
        assert isinstance(report.error, error)
        assert report.witness["exception"] == error.__name__


def test_macmahon_counts_the_per_word_sum(monkeypatch):
    # with a zero target the witness shows the counted sum
    monkeypatch.setattr(ratcat.verify, "rational_q_catalan",
                        lambda a, b: LaurentQT.zero())
    for n in range(1, 8):
        per_word = LaurentQT.zero()
        for d in enumerate_dyck(n, n):
            per_word = per_word + LaurentQT.monomial(maj(d), 0)
        assert check_macmahon(n).witness["sum"] == per_word.to_json(), n


def _old_shift_formulas(w, a, b):
    """(pairs, levels) of the cyclic-shift lemma as lem_cyc_shift computed
    them before the one-pass scan: indexed scans over levels(w)."""
    lv = levels(w, a, b)
    n = a + b
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
    return f1, f2


def test_shift_increments_match_the_level_formulas():
    for a, b in _coprime_box(8, 8):
        n = a + b
        for c, _ in frame_entries(a, b):
            w = word_of(c, n)
            assert _shift_increments(c, a, b) == _old_shift_formulas(w, a, b), w
            # the rotation lem_cyc_shift reads the shifted h+ at
            assert (c << 1 & (1 << n) - 1 | c >> (n - 1)) == code_of(
                cyclic_shift(w, 1))


def _resorted(labels, runs):
    """The labels re-sorted within each run slice."""
    out = []
    for run in runs:
        out += sorted(labels[run])
    return tuple(out)


def _relabel_and_resort_counts(a, b):
    """The _fixed_point_counts body before run-set stabilisers: each
    labeling relabeled by every sigma and re-sorted within its runs."""
    sigmas = {lam: _perm_of_cycle_type(lam) for lam in partitions_of(a)}
    fixed = dict.fromkeys(sigmas, 0)
    for d in enumerate_dyck(a, b):
        runs = _run_slices(d.word, a)
        for labels in _label_tuples(d):
            for lam, sigma in sigmas.items():
                if _resorted([sigma[x] for x in labels], runs) == labels:
                    fixed[lam] += 1
    return fixed


def test_fixed_point_bitmasks_match_relabel_and_resort():
    for a, b in _coprime_box(5, 8) + [(6, 5)]:
        counters = {}
        counts = _fixed_point_counts(a, b, counters)
        want = _relabel_and_resort_counts(a, b)
        assert counts == want, (a, b)
        assert list(counts) == list(want)
        assert counters == {"parking_functions": b ** (a - 1)}
