"""Command-line interface: dispatch, formats, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ratcat.cli
from ratcat.cli import main


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
    code, out, _ = run(capsys, "verify", "all", "--range", "2",
                       "--threads", "1")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines and all(l["passed"] for l in lines)
    assert all("seconds" not in l for l in lines)


def test_golden_matches_corpus(capsys):
    code, out, _ = run(capsys, "golden", "--threads", "1")
    assert code == 0
    assert "DIFF" not in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = run(capsys, "catqt", "2", "3", "--out", str(target))
    assert code == 0
    assert target.read_text() == ". 1\n1 .\n"


def test_threads_default_to_one(monkeypatch, capsys):
    seen = {}

    def fake_golden_tables(threads=None):
        seen["threads"] = threads
        return {}

    monkeypatch.setattr(ratcat.cli, "golden_tables", fake_golden_tables)
    assert main(["golden"]) == 0
    assert seen == {"threads": 1}


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
