"""Tests of the benchmark's own output checks: real outputs pass, and one
changed coefficient or report fails. Also a test that the pauses for
reference samples are left out of a launch's times.

Run from the root of the checkout: python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import subprocess
import sys
import time

import pytest

import checks
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _golden(name):
    with open(os.path.join(ROOT, "golden", name)) as f:
        return f.read()


def _bump_entry(text, index):
    """Add 1 to the index-th matrix entry of a rendered table."""
    lines = text.split("\n")
    spots = [(i, j) for i, line in enumerate(lines) if not line.startswith("[")
             for j, tok in enumerate(line.split(" ")) if tok.isdigit()]
    i, j = spots[index]
    tokens = lines[i].split(" ")
    tokens[j] = str(int(tokens[j]) + 1)
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _ratcat(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "ratcat.cli", *args], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("name", checks.golden_names())
def test_golden_table_passes(name):
    assert checks.check_golden_table(name, _golden(name)) == []


@pytest.mark.parametrize("name", checks.golden_names())
@pytest.mark.parametrize("index", [0, -1])
def test_golden_table_with_one_changed_entry_fails(name, index):
    assert checks.check_golden_table(name, _bump_entry(_golden(name), index))


def test_pf_table_with_one_entry_moved_fails():
    # keeps every sum at q=t=1; only the q<->t symmetry can catch it
    text = _golden("pf_3_5.txt").replace("[3]\n. . . . 1", "[3]\n. . . 1 .", 1)
    assert checks.check_golden_table("pf_3_5.txt", text)


def test_pf_json_passes_and_one_changed_coefficient_fails():
    out = _ratcat("pfqt", "4", "7", "--format", "json")
    assert checks.check_pf_series(checks.parse_pf_json(out, 4), 4, 7) == []
    data = json.loads(out)
    for bad in ("2", "-1", "1/2"):
        changed = json.loads(out)
        term = changed["terms"][1][1][0]
        term[2] = str(int(term[2]) + 1) if bad == "2" else bad
        series = checks.parse_pf_json(json.dumps(changed), 4)
        assert checks.check_pf_series(series, 4, 7), bad
    data["terms"].pop()
    assert checks.check_pf_series(checks.parse_pf_json(json.dumps(data), 4), 4, 7)


def _sweep_output(limit):
    return "\n".join(
        json.dumps({"claim": c, "params": p, "passed": True}, sort_keys=True)
        for c, p in checks.expected_sweep_checks(limit)
    )


def test_sweep_output_passes_and_one_changed_report_fails():
    out = _sweep_output(3)
    assert checks.check_sweep_reports(out, 3) == []
    lines = out.splitlines()
    failed = lines[:5] + [lines[5].replace('"passed": true', '"passed": false')] + lines[6:]
    assert checks.check_sweep_reports("\n".join(failed), 3)
    assert checks.check_sweep_reports("\n".join(lines[:-1]), 3)
    assert checks.check_sweep_reports("\n".join(lines + lines[-1:]), 3)
    assert checks.check_sweep_reports(out, 4)


def test_sweep_rules_match_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from ratcat.verify import sweep_tasks
    finally:
        sys.path.pop(0)
    assert len(sweep_tasks(limit=5)) == len(checks.expected_sweep_checks(5))


def test_golden_listing(tmp_path):
    ok = "".join(f"ok   {n}\n" for n in checks.golden_names())
    golden = os.path.join(ROOT, "golden")
    assert checks.check_golden(ok, golden) == []
    assert checks.check_golden(ok.replace("ok   pf_5_8", "DIFF pf_5_8"), golden)
    assert checks.check_golden(ok.replace("ok   pf_5_8.txt\n", ""), golden)
    for name in checks.golden_names():
        text = _golden(name)
        if name == "cat_4_7.txt":
            text = _bump_entry(text, 0)
        (tmp_path / name).write_text(text)
    assert checks.check_golden(ok, str(tmp_path))


def test_integer_routes():
    assert checks.rational_q_catalan(3, 5) == [1, 0, 1, 1, 1, 1, 1, 0, 1]
    assert checks.q_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert checks.standard_tableaux((2, 1)) == 2
    assert checks.schur_at_ones((2, 1), 3) == 8
    with pytest.raises(ArithmeticError):
        checks.divide_exactly([1, 1, 1], [1, 1])


def test_launch_leaves_pauses_out():
    def sample():
        time.sleep(0.3)
        return 0.5

    busy = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 1.0: pass\nprint('done')")
    t0 = time.monotonic()
    r = run.launch([sys.executable, "-c", busy], dict(os.environ), time.monotonic() + 60,
                   os.devnull, sample_every=0.25, sample=sample)
    elapsed = time.monotonic() - t0
    assert (r.code, r.stdout, r.references[:2]) == (0, "done\n", [0.5, 0.5])
    assert r.wall_s >= 1.0 and r.first_output_s <= r.wall_s
    assert elapsed - r.wall_s >= 0.3 * len(r.references)
