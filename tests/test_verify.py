"""Claim checkers: spot checks plus report plumbing."""

import json

from ratcat.verify import (
    CheckReport,
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


def test_sweep_task_order_is_stable():
    t1 = [(fn.__name__, args) for fn, args in sweep_tasks(limit=4)]
    t2 = [(fn.__name__, args) for fn, args in sweep_tasks(limit=4)]
    assert t1 == t2


def test_small_sweep_rerun_determinism():
    kw = dict(limit=3, pf_limit=(2, 3), extra_pf=())
    first = list(run_sweep(**kw))
    assert reports_to_jsonl(run_sweep(**kw)) == reports_to_jsonl(first)
    assert all(r.passed for r in first)
