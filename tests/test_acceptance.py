"""Acceptance gate: one test per release criterion.

The conjecture sweep bound defaults to 10; set RATCAT_SWEEP_LIMIT=12 for
the larger (slow) run.
"""

import hashlib
import os

import pytest

from ratcat.cli import golden_tables, _golden_dir
from ratcat.frob import (
    frob_h,
    frob_p,
    frob_s,
    frob_via_genfunc,
    hilbert_series,
    pf_qt,
)
from ratcat.parking import (
    ParkingFunction,
    _run_label_groups,
    area_prime,
    d_stat,
    dinv_classical,
    drw_classical,
    enumerate_pf,
    from_preference_vector,
    labelings_of,
    zeta,
)
from ratcat.partitions import partition_of_frontier
from ratcat.paths import DyckPath, area, count_dyck, enumerate_dyck, levels, sweep
from ratcat.qt import q_binomial, rational_q_catalan
from ratcat.symfunc import basis_convert
from test_parking import (
    dinv_rational,
    drw_rational,
    ides,
    max_stretched_dinv,
    ppp_dinv,
)
from test_partitions import walked_words
from test_qt import q_binomial_boxcount
from test_symfunc import cauchy_slices, single, to_basis
from ratcat.verify import (
    _coprime_pairs,
    _perm_of_cycle_type,
    check_bizley,
    check_fixed_points,
    check_frobenius,
    check_lem_cyc_shift,
    check_lem_h_via_labels,
    check_macmahon,
    check_prop_multinomial,
    check_qbin_recursion,
    check_thm_ratcat,
    reports_to_jsonl,
    run_sweep,
)

SWEEP_LIMIT = int(os.environ.get("RATCAT_SWEEP_LIMIT", "10"))

# sha256 of the bytes `ratcat verify all --range 10` writes
SWEEP_10_SHA256 = "0f8605ccb989fbf76b124a10aa922c71cd221e8e09ffce1eb9f292dcbd8249d8"


@pytest.fixture(scope="module")
def sweep_reports():
    return list(run_sweep(limit=SWEEP_LIMIT))


@pytest.fixture(scope="module")
def golden_first():
    return dict(golden_tables())


def test_criterion_1_golden_tables(golden_first):
    # golden_tables itself recomputes each Cat table from the transposed
    # frame and errors if the twins disagree
    root = _golden_dir()
    expected_names = {
        "cat_2_3.txt", "cat_3_5.txt", "cat_3_7.txt", "cat_4_7.txt",
        "cat_5_8.txt", "pf_2_3.txt", "pf_2_5.txt", "pf_3_5.txt",
        "pf_4_7.txt", "pf_5_3.txt", "pf_5_8.txt", "pf_7_4.txt",
    }
    assert set(golden_first) == expected_names
    assert set(os.listdir(root)) == expected_names
    for name, text in golden_first.items():
        with open(os.path.join(root, name)) as f:
            assert f.read() == text, name


TRIANGLE_3_5 = {
    (3, 1): ("NENEENEE", 4, 4, 8),
    (2, 1): ("NENENEEE", 3, 3, 6),
    (3,): ("NNEEENEE", 3, 2, 5),
    (2,): ("NNEENEEE", 2, 2, 4),
    (1, 1): ("NENNEEEE", 2, 1, 3),
    (1,): ("NNENEEEE", 1, 1, 2),
    (): ("NNNEEEEE", 0, 0, 0),
}

BOX_2_3 = {
    (): ("NNEEE", 0, 0, 0, 0),
    (1,): ("NENEE", 1, 0, 1, 2),
    (2,): ("NEENE", 2, -1, 2, 3),
    (3,): ("NEEEN", 3, -3, 2, 2),
    (1, 1): ("ENNEE", 2, -2, 1, 1),
    (2, 1): ("ENENE", 3, -2, 3, 4),
    (3, 1): ("ENEEN", 4, -3, 4, 5),
    (2, 2): ("EENNE", 4, -4, 3, 3),
    (3, 2): ("EENEN", 5, -4, 5, 6),
    (3, 3): ("EEENN", 6, -6, 4, 4),
}


def test_criterion_2_worked_examples():
    # (5,8) frame: area, rational dinv pipeline, reading word, descents
    d = DyckPath("NNENNEENEEEEE", 5, 8)
    assert area(d) == 9
    P = ParkingFunction(d.word, (4, 5, 1, 3, 2), 5, 8)
    assert ppp_dinv(P) == 5
    assert max_stretched_dinv(d) == 6
    assert d_stat(d) == 3
    assert dinv_rational(P) == 2
    assert drw_rational(P) == (4, 5, 1, 2, 3)
    assert ides(drw_rational(P)) == frozenset({3})

    # the three (2,3) parking functions with their statistic columns
    rows = [
        ("NNEEE", (1, 2), 1, 0, 0, 0, 0, frozenset()),
        ("NENEE", (1, 2), 0, 1, 1, 1, 1, frozenset()),
        ("NENEE", (2, 1), 0, 0, 1, 1, 0, frozenset({1})),
    ]
    for word, labels, ar, dpp, dd, mm, dv, S in rows:
        Q = ParkingFunction(word, labels, 2, 3)
        assert area(Q.path) == ar
        assert ppp_dinv(Q) == dpp
        assert d_stat(Q.path) == dd
        assert max_stretched_dinv(Q.path) == mm
        assert dinv_rational(Q) == dv
        assert ides(drw_rational(Q)) == S

    # classical preference-vector example
    C = from_preference_vector((2, 4, 1, 2, 1))
    assert drw_classical(C) == (4, 2, 1, 5, 3)
    assert ides(drw_classical(C)) == frozenset({1, 3})
    assert dinv_classical(C) == 2
    assert area(C.path) == 5
    assert area_prime(zeta(C)) == 2

    # level labels along a (5,8) word
    assert levels("NNEENENEEENEE", 5, 8) == [
        0, 8, 16, 11, 6, 14, 9, 17, 12, 7, 2, 10, 5, 0,
    ]

    # h+ on a named partition, read off the box walk by its frontier word
    assert partition_of_frontier("NNEENENEEENEE", 5, 8) == (6, 3, 2)
    assert dict(walked_words(5, 8))["NNEENENEEENEE"][2] == 9

    # per-partition tables: (3,5) under the diagonal, full (2,3) box, each
    # row read off the walk's entry at its frontier word
    triangle = {w: s for w, s in walked_words(3, 5) if s[1] == 0}
    assert len(triangle) == len(TRIANGLE_3_5)
    for mu, (w, sz, hp, total) in TRIANGLE_3_5.items():
        assert partition_of_frontier(w, 3, 5) == mu
        assert triangle[w][0] == sz
        assert triangle[w][2] == hp
        assert sz + hp == total
    box = dict(walked_words(2, 3))
    assert len(box) == len(BOX_2_3)
    for mu, (w, sz, ml, hp, total) in BOX_2_3.items():
        assert partition_of_frontier(w, 2, 3) == mu
        assert box[w][:3] == (sz, ml, hp)
        assert sz + ml + hp == total


def test_criterion_3_counting_laws():
    for a, b in _coprime_pairs(5, 9):
        assert check_bizley(a, b).passed, (a, b)
        assert check_prop_multinomial(a, b).passed, (a, b)


def test_criterion_4_frobenius_routes():
    for a, b in _coprime_pairs(5, 8):
        fm = basis_convert(frob_h(a, b), "m")
        assert basis_convert(frob_p(a, b), "m") == fm, (a, b)
        assert basis_convert(frob_s(a, b), "m") == fm, (a, b)
        assert frob_via_genfunc(a, b) == fm, (a, b)
        assert hilbert_series(pf_qt(a, b)).evaluate() == b ** (a - 1), (a, b)


def test_criterion_5_fixed_points():
    for a, b in _coprime_pairs(5, 8):
        assert check_fixed_points(a, b).passed, (a, b)


def test_criterion_6_q_identities():
    for n in range(2, 21):
        assert check_qbin_recursion(n).passed, n
    for s in range(9):
        for r in range(9):
            assert q_binomial_boxcount(s, r) == q_binomial(s + r, s), (s, r)
    for n in range(1, 7):
        assert check_macmahon(n).passed, n
    for a, b in _coprime_pairs(12):
        c = rational_q_catalan(a, b)  # exact division must succeed
        for _, _, coeff in c.terms():
            assert isinstance(coeff, int) and coeff > 0, (a, b)


def test_criterion_7_lemma_suite():
    # the label and shift lemmas hold in any box, coprime or not
    for a in range(1, 9):
        for b in range(1, 9):
            assert check_lem_h_via_labels(a, b).passed, (a, b)
            assert check_lem_cyc_shift(a, b).passed, (a, b)
    # the factorization identity and fine shift indexing need coprimality
    for a, b in _coprime_pairs(8):
        assert check_thm_ratcat(a, b).passed, (a, b)


def test_criterion_8_conjecture_sweep(sweep_reports):
    failing = [r.to_json() for r in sweep_reports if not r.passed]
    assert not failing, failing
    if SWEEP_LIMIT == 10:
        out = reports_to_jsonl(sweep_reports) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_10_SHA256


def _sorted_runs(word, labels):
    """The labels re-sorted within each vertical run of word."""
    return tuple(x for run in _run_label_groups(word, labels)
                 for x in sorted(run))


def test_criterion_9_property_suites():
    # dinv transports to area' under zeta
    for n in range(1, 6):
        for d in enumerate_dyck(n, n):
            for P in labelings_of(d):
                assert dinv_classical(P) == area_prime(zeta(P))
    # sweep is injective frame by frame
    for a, b in _coprime_pairs(13):
        if a + b > 14:
            continue
        images = {sweep(d).word for d in enumerate_dyck(a, b)}
        assert len(images) == count_dyck(a, b), (a, b)
    # rational dinv stays within its budget
    for a, b in [(2, 5), (3, 4), (3, 5), (4, 5), (5, 3)]:
        for P in enumerate_pf(a, b):
            assert 0 <= dinv_rational(P) <= d_stat(P.path)
    # relabel-and-resort is a genuine group action on parking functions
    for a, b in [(2, 3), (3, 4), (3, 5), (4, 3)]:
        all_pf = set(enumerate_pf(a, b))
        perms = [_perm_of_cycle_type(lam)
                 for lam in [(a,), (1,) * a] + ([(2,) + (1,) * (a - 2)] if a > 1 else [])]
        for sigma in perms:
            act = {}
            for P in all_pf:
                lab = _sorted_runs(P.word, tuple(sigma[x] for x in P.labels))
                act[P] = ParkingFunction(P.word, lab, a, b)
            assert set(act.values()) == all_pf, (a, b)
            for tau in perms:
                comp = {x: sigma[tau[x]] for x in sigma}
                for P in all_pf:
                    step = act[ParkingFunction(
                        P.word,
                        _sorted_runs(P.word, tuple(tau[x] for x in P.labels)),
                        a, b,
                    )]
                    direct = _sorted_runs(
                        P.word, tuple(comp[x] for x in P.labels)
                    )
                    assert step.labels == direct
    # truncated Cauchy kernels agree across the three classical forms
    for n in range(1, 6):
        hm, pp, ss = cauchy_slices(n)
        assert hm.terms == pp.terms == ss.terms
    # basis conversions invert each other
    from ratcat.partitions import partitions_of

    for deg in (1, 2, 3, 4):
        for lam in partitions_of(deg):
            for basis in "mhps":
                f = single(deg, basis, lam)
                for target in "mhps":
                    assert to_basis(to_basis(f, target), basis) == f


def test_criterion_10_determinism(sweep_reports, golden_first):
    # a second run in the same process, with the per-path and Kostka caches
    # warm, must give the same bytes as the first
    rerun = reports_to_jsonl(run_sweep(limit=SWEEP_LIMIT))
    assert rerun == reports_to_jsonl(sweep_reports)
    assert dict(golden_tables()) == golden_first
