"""Command-line interface: dispatch, formats, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ratcat.cli
import ratcat.verify
from ratcat.cli import main
from ratcat.verify import (
    _timed,
    check_conj_abpf,
    check_conj_rat_qcat,
    check_macmahon,
    check_spec,
    check_symmetry,
    reports_to_jsonl,
    run_sweep,
)

# a few cheap checks of different kinds, in place of the default sweep
SMALL_TASKS = [
    (check_conj_rat_qcat, (3, 5)),
    (check_symmetry, (2, 3)),
    (check_spec, (3, 5)),
    (check_conj_abpf, (2, 3)),
    (check_macmahon, (3,)),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catqt_matrix(capsys):
    code, out, _ = run(capsys, "catqt", "2", "3")
    assert code == 0
    assert out == ". 1\n1 .\n"


def test_catqt_json(capsys):
    code, out, _ = run(capsys, "catqt", "2", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0, 1, "1"], [1, 0, "1"]]


def test_catqt_tex(capsys):
    code, out, _ = run(capsys, "catqt", "2", "3", "--format", "tex")
    assert code == 0
    assert out == ". & 1\n1 & .\n"


def test_pfqt_json(capsys):
    code, out, _ = run(capsys, "pfqt", "2", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["basis"] == "s"
    assert [[2], [[0, 1, "1"], [1, 0, "1"]]] in data["terms"]


def test_qcat(capsys):
    code, out, _ = run(capsys, "qcat", "2", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0, 0, "1"], [2, 0, "1"]]


def test_frob_basis(capsys):
    code, out, _ = run(capsys, "frob", "3", "5", "--basis", "s")
    data = json.loads(out)
    assert code == 0
    assert [[3], [[0, 0, "7"]]] in data["terms"]


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "3")
    assert code == 0
    assert out.split() == ["NNEEE", "NENEE"]


def test_sweep_ok(capsys):
    code, out, _ = run(capsys, "sweep", "NENEENEE", "3", "5")
    assert code == 0
    assert out.strip() == "NNNEEEEE"


def test_sweep_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "EENNN", "3", "2")
    assert code == 2
    assert "error" in err


def test_zeta(capsys):
    code, out, _ = run(capsys, "zeta", "2", "4", "1", "2", "1")
    assert code == 0
    assert json.loads(out) == {
        "word": "NENNNEENEE", "diagonal_word": [3, 5, 1, 2, 4],
    }


def test_non_coprime_is_usage_error(capsys):
    code, _, err = run(capsys, "catqt", "4", "6")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["catqt", "2"])
    assert e.value.code == 2


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--range", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines and all(l["passed"] for l in lines)
    assert all("seconds" not in l for l in lines)


def test_golden_matches_corpus(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    assert "DIFF" not in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = run(capsys, "catqt", "2", "3", "--out", str(target))
    assert code == 0
    assert target.read_text() == ". 1\n1 .\n"


def test_threads_flag_is_ignored(capsys):
    plain = run(capsys, "enumerate", "3", "5")
    assert run(capsys, "enumerate", "3", "5", "--threads", "2") == plain
    assert plain[0] == 0


def _use_tasks(monkeypatch, tasks):
    monkeypatch.setattr(ratcat.verify, "sweep_tasks", lambda *args: tasks)


def test_verify_out_file_matches_stdout(monkeypatch, tmp_path, capsys):
    _use_tasks(monkeypatch, SMALL_TASKS)
    code, out, _ = run(capsys, "verify")
    target = tmp_path / "reports.jsonl"
    assert main(["verify", "--out", str(target)]) == code == 0
    assert target.read_bytes() == out.encode()
    assert out == reports_to_jsonl(run_sweep()) + "\n"


def test_verify_writes_each_line_before_the_next_check(monkeypatch, tmp_path):
    target = tmp_path / "reports.jsonl"
    written = []

    def second(a, b):
        written.append(target.read_text())
        return check_symmetry(a, b)

    _use_tasks(monkeypatch, [(check_symmetry, (2, 3)), (second, (3, 5))])
    assert main(["verify", "--out", str(target)]) == 0
    first_line = target.read_text().splitlines()[0]
    assert written == [first_line + "\n"]


def _failing(a, b):
    return _timed("fails", {"a": a, "b": b}, lambda: (False, {"n": 1}, None))


def _crashing(a, b):
    return _timed("crashes", {"a": a, "b": b}, lambda: 1 // 0)


@pytest.mark.parametrize("checkers, expect", [
    ([_failing], 1),
    ([_crashing, _failing], 3),
])
def test_crashed_check_keeps_the_sweep(monkeypatch, capsys, checkers, expect):
    _use_tasks(monkeypatch, [(chk, (2, 3)) for chk in checkers] + SMALL_TASKS)
    code, out, err = run(capsys, "verify")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == expect
    assert len(lines) == len(checkers) + len(SMALL_TASKS)
    assert all(line["passed"] for line in lines[len(checkers):])
    if _crashing in checkers:
        assert lines[0] == {
            "claim": "crashes", "params": {"a": 2, "b": 3}, "passed": False,
            "witness": {"exception": "ZeroDivisionError",
                        "message": "integer division or modulo by zero"},
        }
        assert "ZeroDivisionError" in err
    assert lines[len(checkers) - 1]["witness"] == {"n": 1}


def test_assertion_error_is_a_contract_violation(monkeypatch, capsys):
    def broken(a, b):
        raise AssertionError("remainder left")

    monkeypatch.setattr(ratcat.cli, "cat_qt", broken)
    code, _, err = run(capsys, "catqt", "2", "3")
    assert code == 3
    assert "contract violation: remainder left" in err


def test_closed_pipe_ends_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratcat.cli", "enumerate", "9", "14"],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().strip() == b"N" * 9 + b"E" * 14
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no Traceback, no "Exception ignored" either
