"""Command-line interface: dispatch, formats, exit codes."""

import fcntl
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import ratcat.cli
import ratcat.verify
from ratcat.cli import main
from ratcat.qt import ONE, ExactDivisionError
from ratcat.verify import (
    _checker,
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


def test_pfqt_7_5_json_is_pinned(capsys):
    # the Schur expansion of the (7,5) series (15 625 parking functions),
    # pinned byte for byte to the output computed with dinv through the
    # Bezout stretch
    code, out, _ = run(capsys, "pfqt", "7", "5", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "275b32a79814be593190ab210498b372ec08bfc6141831415779459d32f42020")


def test_pfqt_6_7_json_is_pinned(capsys):
    # the (6,7) series (16 807 parking functions), pinned byte for byte to
    # the output computed one ParkingFunction at a time
    code, out, _ = run(capsys, "pfqt", "6", "7", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "eb95d5524a073d5fc32feee633e324047a5a86f9adf03ee64b25f41020904039")


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
    # one named claim runs exactly its lines of the full sweep, in order
    code, named, _ = run(capsys, "verify", "qbin_recursion", "--range", "2")
    assert code == 0
    assert named.splitlines() == [
        text for text, l in zip(out.splitlines(), lines)
        if l["claim"] == "qbin_recursion"
    ]
    assert len(named.splitlines()) == 19


def test_verify_named_claim_with_timings(capsys):
    code, out, _ = run(capsys, "verify", "macmahon_maj", "--timings")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0
    assert [l["params"]["n"] for l in lines] == [1, 2, 3, 4, 5, 6]
    assert all(l["claim"] == "macmahon_maj" and "seconds" in l for l in lines)
    # every timed line has the peak RSS; only partition claims count words
    assert all(l["peak_rss_kb"] > 0 and "counters" not in l for l in lines)


def test_verify_timings_add_rss_and_counters(capsys):
    code, out, _ = run(capsys, "verify", "thm_ratcat", "--range", "3",
                       "--timings")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0
    assert [(l["params"]["a"], l["params"]["b"]) for l in lines] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    for l in lines:
        a, b = l["params"]["a"], l["params"]["b"]
        assert l["counters"] == {"box_words": comb(a + b, a)}
        assert isinstance(l["peak_rss_kb"], int) and l["peak_rss_kb"] > 0
    code, out, _ = run(capsys, "verify", "thm_ratcat", "--range", "3")
    assert code == 0
    assert len(out.splitlines()) == len(lines)
    assert "peak_rss_kb" not in out and "counters" not in out


@pytest.mark.parametrize("argv", [
    ["enumerate", "-1", "3"],  # ran into unbounded recursion before
    ["qcat", "0", "3"],
    ["pfqt", "4", "6"],
    ["frob", "2", "4"],
    ["sweep", "NNE", "3", "5"],
    ["zeta", "3", "3", "3"],
    ["verify", "no_such_claim"],
    ["verify", "--range", "0"],
    ["verify", "conj_rat_qcat", "--range", "-3"],
    ["verify", "--threads", "0"],
    ["catqt", "2", "3", "--threads", "-2"],
])
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if argv[:2] == ["verify", "no_such_claim"]:
        assert "valid claims: all, conj_rat_qcat," in err
        assert "qbin_recursion" in err


def test_enumerate_any_positive_frame(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "4")
    assert code == 0
    assert out.split() == ["NNEEEE", "NENEEE", "NEENEE"]


def test_golden_matches_corpus(capsys):
    # one verdict per checked-in table, in filename order: a frame whose
    # name sorts elsewhere, such as (10,3), must fail here, not reorder
    code, out, _ = run(capsys, "golden")
    assert code == 0
    names = sorted(os.listdir(ratcat.cli._golden_dir()))
    assert out == "".join(f"ok   {name}\n" for name in names)


def test_golden_reports_every_diff(monkeypatch, tmp_path, capsys):
    root = ratcat.cli._golden_dir()
    copy = tmp_path / "golden"
    shutil.copytree(root, copy)
    altered, removed = copy / "cat_3_7.txt", copy / "pf_5_3.txt"
    altered.write_text(altered.read_text() + ".\n")
    removed.unlink()
    monkeypatch.setattr(ratcat.cli, "_golden_dir", lambda: str(copy))
    code, out, _ = run(capsys, "golden")
    assert code == 1
    assert out.splitlines() == [
        ("DIFF " if name in (altered.name, removed.name) else "ok   ") + name
        for name in sorted(os.listdir(root))
    ]


def test_golden_contract_violation_follows_earlier_verdicts(monkeypatch,
                                                           capsys):
    real = ratcat.cli.cat_qt

    def skewed(a, b):
        return real(a, b) + ONE if (a, b) == (5, 3) else real(a, b)

    monkeypatch.setattr(ratcat.cli, "cat_qt", skewed)
    code, out, err = run(capsys, "golden")
    assert code == 3
    assert out == "ok   cat_2_3.txt\n"
    assert err == ("contract violation: Cat tables for (3,5) and (5,3) "
                   "differ\n")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = run(capsys, "catqt", "2", "3", "--out", str(target))
    assert code == 0
    assert target.read_text() == ". 1\n1 .\n"


def test_threads_flag_is_ignored(capsys):
    plain = run(capsys, "enumerate", "3", "5")
    assert run(capsys, "enumerate", "3", "5", "--threads", "2") == plain
    assert plain[0] == 0
    golden = run(capsys, "golden")
    assert run(capsys, "golden", "--threads", "1") == golden
    assert golden[0] == 0


@pytest.mark.parametrize("cpus, threads", [(3, 3), (None, 1)])
def test_threads_default_without_sched_getaffinity(monkeypatch, capsys, cpus,
                                                   threads):
    # macOS and Windows have no os.sched_getaffinity: the default falls back
    # to os.cpu_count(), or 1 where that is unknown
    want = run(capsys, "qcat", "2", "3")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run(capsys, "qcat", "2", "3") == want
    assert want[0] == 0
    seen = []

    def no_checks(bound, claim, workers):
        seen.append(workers)
        yield from ()

    monkeypatch.setattr(ratcat.verify, "run_sweep", no_checks)
    assert main(["verify"]) == 0
    assert seen == [threads]


@pytest.mark.parametrize("argv", [
    ["catqt", "2", "3", "--format", "tex"],
    ["qcat", "2", "3", "--format", "json"],
    ["pfqt", "2", "3", "--format", "json"],
    ["frob", "2", "3", "--basis", "p"],
    ["enumerate", "2", "4"],
    ["sweep", "NENEE", "2", "3"],
    ["zeta", "2", "1", "1"],
    ["verify", "qbin_recursion", "--range", "1"],
])
def test_out_file_holds_what_stdout_would(tmp_path, capsys, argv):
    # every command but golden writes its result to --out
    target = tmp_path / "out.txt"
    plain = run(capsys, *argv, "--threads", "1")
    assert plain[0] == 0
    assert run(capsys, *argv, "--threads", "1", "--out", str(target)) == (
        0, "", "")
    assert target.read_text() == plain[1]


@pytest.mark.parametrize("argv", [
    ["golden", "--out", "golden.txt"],
    ["golden", "--format", "tex"],
    ["frob", "3", "5", "--format", "tex"],
    ["enumerate", "3", "5", "--format", "json"],
    ["sweep", "NENEENEE", "3", "5", "--format", "json"],
    ["zeta", "2", "1", "1", "--format", "json"],
    ["verify", "all", "--format", "json"],
])
def test_options_a_command_would_ignore_exit_2(tmp_path, monkeypatch, capsys,
                                               argv):
    # --format is only for catqt, qcat and pfqt, --out for all but golden
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["enumerate", "2", "3"],
                                  ["verify", "all", "--range", "1"]])
def test_out_into_a_missing_directory_exits_2_before_computing(
        tmp_path, monkeypatch, capsys, argv):
    target = tmp_path / "missing" / "out.txt"

    def computed(*args):
        raise AssertionError("computed before --out was opened")

    monkeypatch.setattr(ratcat.cli, "enumerate_dyck", computed)
    monkeypatch.setattr(ratcat.verify, "run_sweep", computed)
    assert run(capsys, *argv, "--out", str(target)) == (
        2, "", f"error: cannot write {target}: No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


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


_failing = _checker("fails", lambda a, b, counters: {"n": 1})
_crashing = _checker("crashes", lambda a, b, counters: 1 // 0)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("checkers, expect", [
    ([_failing], 1),
    ([_crashing, _failing], 3),
])
def test_crashed_check_keeps_the_sweep(monkeypatch, capsys, checkers, expect,
                                       threads):
    # placed after task 0, so at --threads 2 they run in a worker process
    placed = [(chk, (2, 3)) for chk in checkers]
    _use_tasks(monkeypatch, SMALL_TASKS[:1] + placed + SMALL_TASKS[1:])
    code, out, err = run(capsys, "verify", "--threads", threads)
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == expect
    assert len(lines) == len(checkers) + len(SMALL_TASKS)
    mine = lines[1:1 + len(checkers)]
    assert all(line["passed"] for line in lines[:1] + lines[1 + len(checkers):])
    if _crashing in checkers:
        assert mine[0] == {
            "claim": "crashes", "params": {"a": 2, "b": 3}, "passed": False,
            "witness": {"exception": "ZeroDivisionError",
                        "message": "integer division or modulo by zero"},
        }
        assert "Traceback" in err and "ZeroDivisionError" in err
    assert mine[-1]["witness"] == {"n": 1}


_pid = _checker("pid", lambda n, counters: {"pid": os.getpid()})


@pytest.mark.parametrize("threads, tasks, here", [
    ("1", 6, 6),
    ("2", 6, 1),  # task 0 in this process, the rest on the pool
    ("2", 2, 2),  # a pool for one task would only add its start-up
])
def test_checks_after_the_first_run_on_the_pool(monkeypatch, capsys, threads,
                                                tasks, here):
    _use_tasks(monkeypatch, [(_pid, (n,)) for n in range(tasks)])
    code, out, _ = run(capsys, "verify", "--threads", threads)
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert [line["params"]["n"] for line in lines] == list(range(tasks))
    assert [line["witness"]["pid"] == os.getpid() for line in lines] == (
        [True] * here + [False] * (tasks - here))
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("claim", ["all", "lem_cyc_shift"])
def test_the_pool_writes_what_one_process_does(capsys, claim):
    want = reports_to_jsonl(run_sweep(4, claim)) + "\n"
    argv = ["verify", claim, "--range", "4"]
    for threads in ("1", "2"):
        assert run(capsys, *argv, "--threads", threads) == (0, want, "")
    code, out, _ = run(capsys, *argv, "--threads", "2", "--timings")
    assert code == 0

    def outcomes(text):
        return [(line["claim"], line["params"], line["passed"])
                for line in map(json.loads, text.splitlines())]

    assert outcomes(out) == outcomes(want)


def test_assertion_error_is_a_contract_violation(monkeypatch, capsys):
    def broken(a, b):
        raise AssertionError("remainder left")

    monkeypatch.setattr(ratcat.cli, "cat_qt", broken)
    code, _, err = run(capsys, "catqt", "2", "3")
    assert code == 3
    assert "contract violation: remainder left" in err


@pytest.mark.parametrize("error", [ValueError, ExactDivisionError])
def test_computation_error_on_valid_input_is_exit_3(monkeypatch, capsys,
                                                      error):
    # the input passed the checks, so the computation is at fault
    def broken(a, b):
        raise error("input not symmetric")

    monkeypatch.setattr(ratcat.cli, "rational_q_catalan", broken)
    code, _, err = run(capsys, "qcat", "2", "3")
    assert code == 3
    assert "contract violation: input not symmetric" in err


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


def test_golden_flushes_each_verdict():
    # stdout is a pipe here, so block-buffered: without a flush per line the
    # five Cat verdicts would wait in the buffer while the first pf table is
    # held back on stdin
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, ratcat.cli\n"
             "real = ratcat.cli.pf_qt\n"
             "def held(a, b):\n"
             "    sys.stdin.readline()\n"
             "    return real(a, b)\n"
             "ratcat.cli.pf_qt = held\n"
             "sys.exit(ratcat.cli.main(['golden']))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-c", probe], cwd=src, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out = b""
        deadline = time.monotonic() + 60
        while out.count(b"\n") < 5:
            left = max(deadline - time.monotonic(), 0)
            assert select.select([proc.stdout], [], [], left)[0], out
            chunk = os.read(proc.stdout.fileno(), 4096)
            assert chunk, out
            out += chunk
        assert out.decode().splitlines() == [
            f"ok   cat_{a}_{b}.txt" for a, b in ratcat.cli.GOLDEN_CAT_FRAMES]
        rest, err = proc.communicate(b"\n", timeout=120)
        assert proc.returncode == 0, err.decode()
        assert len((out + rest).splitlines()) == 12
    finally:
        proc.kill()
        proc.wait()


def _verify_range_3(src, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "ratcat.cli", "verify", "all", "--range", "3",
         "--threads", "2"],
        cwd=src, stdout=stdout, stderr=subprocess.PIPE,
        start_new_session=True,  # its process group holds its workers too
    )


def test_verify_leaves_no_process_running():
    src = Path(__file__).resolve().parents[1] / "src"
    procs = []
    try:
        procs.append(_verify_range_3(src, subprocess.PIPE))
        out, err = procs[0].communicate(timeout=120)
        assert procs[0].returncode == 0, err.decode()
        assert len(out) > 8192
        # a one-page pipe cannot take the whole sweep, so the run is still
        # writing when its reader goes away after line 2 (from the pool)
        r, w = os.pipe()
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        procs.append(_verify_range_3(src, w))
        os.close(w)
        with open(r, "rb") as reader:
            reader.readline()
            reader.readline()
        _, err = procs[1].communicate(timeout=120)
        assert procs[1].returncode == 1
        assert err == b""
        for proc in procs:
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
    finally:
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_killed_worker_ends_verify_with_exit_3():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratcat.cli", "verify", "all", "--range", "9",
         "--threads", "2"],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        proc.stdout.readline()
        proc.stdout.readline()  # from the pool, so both workers are up
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as f:
            workers = [int(pid) for pid in f.read().split()]
        assert len(workers) == 2
        os.kill(workers[0], signal.SIGKILL)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 3
        last = json.loads(out.splitlines()[-1])
        assert not last["passed"]
        message = f"worker {workers[0]} was killed by SIGKILL"
        assert last["witness"] == {"exception": "WorkerDied",
                                   "message": message}
        assert err == f"WorkerDied: {message}\n".encode()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_ctrl_c_leaves_no_process_running():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratcat.cli", "verify", "all", "--range", "9",
         "--threads", "2"],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        proc.stdout.readline()
        proc.stdout.readline()  # from a worker, so both workers are up
        os.killpg(proc.pid, signal.SIGINT)  # as the terminal sends Ctrl-C
        proc.communicate(timeout=60)
        assert proc.returncode != 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _imported(args, names):
    """Which of names `import ratcat.cli` and then a `ratcat` run with args
    (none: the import alone) import, beyond what the interpreter had loaded
    at start-up. -S keeps site hooks from loading modules first (threading,
    or pathlib through a .pth file), which would hide them."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import ratcat.cli\n"
             "code = ratcat.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             f"print(sorted({set(names)!r} & (sys.modules.keys() - before)),"
             " file=sys.stderr)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *args], cwd=src,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stderr.decode().splitlines()[-1]


POOL_MODULES = ("multiprocessing", "concurrent.futures", "threading")


@pytest.mark.parametrize("args", [("catqt", "3", "5"), ("pfqt", "3", "5"),
                                  ("golden",)])
def test_commands_but_verify_import_no_pool(args):
    # the pool and the claim checkers stay off the paths that compute one
    # frame or the golden tables, whose start-up and peak RSS they would add to
    assert _imported(args, ("ratcat.verify", *POOL_MODULES)) == "[]"


@pytest.mark.parametrize("args", [(), ("golden",), ("catqt", "3", "5"),
                                  ("pfqt", "3", "5")])
def test_start_up_imports_no_dataclasses_json_or_pathlib(args):
    # the records are plain classes, JSON is loaded only by the commands
    # that print it, and golden reads its files with open
    names = ("dataclasses", "inspect", "json", "pathlib")
    assert _imported(args, names) == "[]"


@pytest.mark.parametrize("args", [
    ("pfqt", "3", "5", "--format", "json"),
    ("verify", "all", "--range", "2", "--threads", "1"),
])
def test_json_commands_import_no_dataclasses(args):
    assert _imported(args, ("dataclasses", "inspect")) == "[]"


def test_verify_forks_its_workers_without_a_pool_module():
    # the workers are forked and fed through pipes by verify.py itself, so
    # the parent loads no pool machinery and starts no thread
    args = ("verify", "all", "--range", "3", "--threads", "2")
    assert _imported(args, POOL_MODULES) == "[]"
