"""Benchmark for ratcat: run one workload, check its outputs, print metrics.

Usage (from the root of a ratcat checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Each operation runs a ratcat command in a fresh interpreter, as a user
does, so module-level caches start cold every time. The run repeats whole
operations for --seconds, checks every output with perfbench/checks.py,
and prints one JSON object as its last line: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The
inputs are exact enumerations, so --seed is accepted and changes nothing.

The speed of a shared host drifts by a third and more within a minute, and
the programs on it drift together. So with --trace 0 the run samples the
machine's speed with perfbench/reference.py, a fixed program that does not
import ratcat, run the way the workload computes (a pool of threads in one
process, or one thread on each processor): before and after every launch,
and every SAMPLE_EVERY_S seconds of a launch's running time, while the
launch is stopped (SIGSTOP, SIGCONT; the pauses are left out of its
times). Each time is reported in reference seconds: the measured time times
REFERENCE_S over the mean of the samples taken from just before to just
after it (their wall times for wall times, their CPU times for cpu_s). The
measured seconds are printed on the lines before the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.py")
RUN_LIMIT_S = 170  # every launch is killed by then, so a run ends within 180 s
SETUP_BLOCKS, SETUP_LAUNCHES = 4, 5  # set-up launches, with a sample after each block
# The reference program's median time on the machine of README.md's figures,
# so that reference seconds read about as seconds there.
REFERENCE_S = 0.40
SAMPLE_EVERY_S = 3.0  # running time of a launch between two reference samples
REFERENCE_CPUS = 4  # reference launches per sample, one per processor
SETUP_PROBE = "import ratcat.cli; print(ratcat.cli.__file__, flush=True)"
CLAIMS = sorted({claim for claim, _ in checks.expected_sweep_checks(1)})


@dataclass(frozen=True)
class Workload:
    args: tuple  # arguments after `ratcat`
    check: Callable[[str], list]  # stdout -> problems
    threads: int  # threads the command computes on; the reference runs as many


def workloads(alt, golden_dir):
    """The three workloads; `alt` selects the alternate input of each."""
    limit = 8 if alt else 7
    a, b = (7, 5) if alt else (6, 7)
    pool = os.cpu_count() or 1  # the default of ratcat's --threads
    return {
        "sweep": Workload(
            ("verify", "all", "--range", str(limit)),
            lambda out: checks.check_sweep_reports(out, limit),
            pool,
        ),
        "golden": Workload(
            ("golden", "--threads", "1") if alt else ("golden",),
            lambda out: checks.check_golden(out, golden_dir),
            1 if alt else pool,
        ),
        "pf_frame": Workload(
            ("pfqt", str(a), str(b), "--format", "json"),
            lambda out: checks.check_pf_series(checks.parse_pf_json(out, a), a, b),
            1,
        ),
    }


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Launch:
    code: int
    wall_s: float
    first_output_s: float
    first_line_at: float
    cpu_s: float
    peak_rss_kb: int
    stdout: str
    references: list  # reference samples taken while the launch was paused


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class _Sampler(threading.Thread):
    """Every `every` seconds of the process group's running time, stop the
    group, call `sample` and let the group go on; keep each pause."""

    def __init__(self, pgid, every, sample):
        super().__init__(daemon=True)
        self.pgid, self.every, self.sample = pgid, every, sample
        self.done = threading.Event()
        self.pauses = []  # (stopped at, resumed at)
        self.samples = []
        self.error = None

    def run(self):
        while not self.done.wait(self.every):
            stopped = _now()
            try:
                os.killpg(self.pgid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            try:
                self.samples.append(self.sample())
            except BaseException as exc:  # reported by launch()
                self.error = exc
                self.done.set()
            finally:
                os.killpg(self.pgid, signal.SIGCONT)
                self.pauses.append((stopped, _now()))

    def paused_before(self, moment):
        return sum(min(b, moment) - a for a, b in self.pauses if a < moment)


def launch(cmd, env, deadline, stderr_path, sample_every=None, sample=None):
    """Run cmd to its end; time its first stdout line and its exit.

    With `sample`, the command's process group is stopped every
    `sample_every` seconds of its running time while `sample()` runs; the
    pauses are left out of its times and the samples are kept.

    The child is waited for without reaping it until its group is killed,
    so the group id cannot have been reused. The rusage of wait4 covers the
    child and every descendant it reaped, so cpu_s sums them and
    peak_rss_kb is the largest of them.
    """
    with open(stderr_path, "wb") as err:
        t0 = _now()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, start_new_session=True)
        killer = threading.Timer(max(deadline - t0, 0.0), _kill_group, (proc.pid,))
        killer.start()
        sampler = _Sampler(proc.pid, sample_every, sample) if sample else None
        if sampler:
            sampler.start()
        try:
            first = proc.stdout.readline()
            first_at = _now()
            rest = proc.stdout.read()
            proc.stdout.close()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = _now()
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            killer.cancel()
            if sampler:
                sampler.done.set()
                sampler.join()
            _kill_group(proc.pid)  # anything the command left running in its group
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if sampler and sampler.error:
        raise sampler.error
    paused = sampler.paused_before if sampler else (lambda moment: 0.0)
    first_at = first_at if first else end
    return Launch(
        code=code,
        wall_s=end - t0 - paused(end),
        first_output_s=first_at - t0 - paused(first_at),
        first_line_at=first_at,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_kb=usage.ru_maxrss,
        stdout=(first + rest).decode(),
        references=sampler.samples if sampler else [],
    )


class Runner:
    def __init__(self, root, seconds):
        self.src = os.path.join(os.path.abspath(root), "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.out = os.path.join(root, ".perfbench")
        os.makedirs(self.out, exist_ok=True)
        self.seconds = seconds
        self.cpus = sorted(os.sched_getaffinity(0))[:REFERENCE_CPUS]
        self.start = _now()
        self.deadline = self.start + RUN_LIMIT_S

    def run(self, cmd, tag, **sampling):
        return launch(cmd, self.env, self.deadline,
                      os.path.join(self.out, f"{tag}.stderr"), **sampling)

    def ratcat(self, args, tag, **sampling):
        return self.run([sys.executable, "-m", "ratcat.cli", *args], tag, **sampling)

    def reference(self, threads):
        """The reference program's own (wall, cpu) timing of its work on
        `threads` threads. A pool of threads runs in one process, as a workload's
        pool does, and hands the GIL between processors as it does. One
        thread runs at once on each processor this process may use (at most
        REFERENCE_CPUS, bound one to each), and the times are averaged: one
        processor can be slow while another is not."""
        cmds = [[str(threads)]] if threads > 1 else [["1", str(cpu)] for cpu in self.cpus]
        procs = []
        try:
            for args in cmds:
                procs.append(subprocess.Popen(
                    [sys.executable, REFERENCE, *args], stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, env=self.env))
            times = []
            for p in procs:
                out, _ = p.communicate()
                if p.returncode != 0:
                    raise SystemExit(f"perfbench: reference.py exited {p.returncode}")
                times.append([float(x) for x in out.split()])
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        return tuple(map(statistics.fmean, zip(*times)))

    def setup_times(self, launches, warm_up):
        """Interpreter start until ratcat.cli is imported, for `launches`
        launches, after one that compiles the bytecode cache if `warm_up`."""
        times = []
        for i in range(launches + warm_up):
            r = self.run([sys.executable, "-c", SETUP_PROBE], "setup")
            path = r.stdout.strip()
            if r.code != 0 or not path.startswith(self.src + os.sep):
                raise SystemExit(f"perfbench: ratcat.cli did not import from "
                                 f"{self.src} (got {path!r}, exit {r.code})")
            if i >= warm_up:
                times.append(r.first_output_s)
        return times

    def rounds(self, one_round):
        """Whole rounds, at least one, while the next is expected to end
        within --seconds of the start of the run and before the run limit;
        the last round's duration is the estimate."""
        done = []
        while True:
            t0 = _now()
            done.append(one_round(len(done)))
            now = _now()
            if now - self.start + (now - t0) > self.seconds or now + (now - t0) > self.deadline:
                return done


def _problems(launch_result, check):
    if launch_result.code != 0:
        return None
    try:
        return check(launch_result.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _scales(samples):
    """Wall and CPU scale from (wall, cpu) reference samples."""
    return tuple(REFERENCE_S / statistics.fmean(x) for x in zip(*samples))


def end_to_end(runner, wl, name):
    """Reference samples before and after each block of set-up launches,
    before and after every launch of the workload, and every SAMPLE_EVERY_S
    seconds within it. Each time is scaled by the mean of the samples from
    just before to just after the launches it comes from: wall times by
    the samples' wall times, CPU time by their CPU times. The set-up
    launches are single processes and are sampled with one thread, the
    workload with as many threads as it computes on."""
    boundary = [runner.reference(1)]
    setup, setup_raw = [], []
    for block in range(SETUP_BLOCKS):
        times = runner.setup_times(SETUP_LAUNCHES, warm_up=block == 0)
        boundary.append(runner.reference(1))
        setup_raw += times
        wall_scale, _ = _scales(boundary[-2:])
        setup += [t * wall_scale for t in times]

    def sample():
        return runner.reference(wl.threads)

    boundary = [sample()]

    def one_round(i):
        result = runner.ratcat(wl.args, f"{name}.{i}",
                               sample_every=SAMPLE_EVERY_S, sample=sample)
        boundary.append(sample())
        return result

    results = runner.rounds(one_round)
    # launch i runs between boundary[i] and boundary[i + 1]
    around = [[boundary[i], *r.references, boundary[i + 1]] for i, r in enumerate(results)]
    scale = [_scales(samples) for samples in around]
    failed, correct = 0, True
    for i, r in enumerate(results):
        problems = _problems(r, wl.check)
        if problems is None:
            failed += 1
            print(f"round {i}: exit code {r.code}", file=sys.stderr)
        elif problems:
            correct = False
            print(f"round {i}: {problems[:5]}", file=sys.stderr)
        print(f"round {i}: wall {r.wall_s:.3f} s, first output "
              f"{r.first_output_s:.3f} s, cpu {r.cpu_s:.3f} s, "
              f"rss {r.peak_rss_kb / 1024:.1f} MB, exit {r.code}; "
              f"{len(around[i])} reference samples, wall "
              f"{min(w for w, _ in around[i]):.3f}..{max(w for w, _ in around[i]):.3f} s, "
              f"scale {scale[i][0]:.3f} wall, {scale[i][1]:.3f} cpu")
    ok = [(r, k) for r, k in zip(results, scale) if r.code == 0]
    ok = ok or list(zip(results, scale))
    print(f"setup: median {statistics.median(setup_raw):.4f} s of {len(setup)} "
          f"launches, {min(setup_raw):.4f}..{max(setup_raw):.4f} s, "
          f"{SETUP_BLOCKS + 1} reference samples; "
          f"{len(ok)} rounds measured")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s * k for r, (k, _) in ok),
        "first_output_s": statistics.median(r.first_output_s * k for r, (k, _) in ok),
        "cpu_s": statistics.median(r.cpu_s * k for r, (_, k) in ok),
        "peak_rss_mb": max(r.peak_rss_kb for r, _ in ok) / 1024,
    }
    return correct, len(results), failed, metrics


def layer_metrics(dump, traced):
    """Per-layer metrics from one traced run's dump."""
    m = {}
    for name in (*tracing.SPANS, *tracing.GENERATORS):
        calls, items, _, self_s, extra = dump["totals"].get(name, (0, 0, 0.0, 0.0, 0))
        m[f"{name}.calls"] = calls
        m[f"{name}.items"] = items
        m[f"{name}.self_s"] = self_s
        m[f"{name}.term_products"] = extra
    for name in tracing.COUNTED:
        m[name] = dump["counts"].get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m["paths.dyckpath_builds_per_path"] = ratio(
        m["paths.dyckpath_builds"], m["paths.enumerate_dyck.items"])
    m["parking.pf_builds_per_pf"] = ratio(
        m["parking.pf_builds"], m["parking.labelings_of.items"])
    m["parking.max_stretched_dinv.hit_ratio"] = ratio(
        dump["max_stretched_dinv_repeats"], m["parking.max_stretched_dinv.calls"])
    k = dump["kostka"]
    m["symfunc.kostka.hit_ratio"] = ratio(k["hits"], k["hits"] + k["misses"])
    durations = [s for _, s in dump["checks"]]
    m["verify.checks"] = len(durations)
    m["verify.longest_check_s"] = max(durations, default=0.0)
    for claim in CLAIMS:
        m[f"verify.{claim}.s"] = sum(s for c, s in dump["checks"] if c == claim)
    done = dump["first_output_done"]
    m["cli.output_lag_s"] = traced.first_line_at - done if done else 0.0
    return m


def per_layer(runner, wl, name, wanted):
    """Pairs of an untraced and a traced run, both at one worker."""
    args = (*wl.args, "--threads", "1")
    tracer = os.path.join(HERE, "tracing.py")

    def one_pair(i):
        plain = runner.ratcat(args, f"{name}.plain.{i}")
        dump_path = os.path.join(runner.out, f"trace_{name}.{i}.json")
        traced = runner.run([sys.executable, tracer, dump_path, *args],
                            f"{name}.traced.{i}")
        dump = None
        if traced.code == 0:
            with open(dump_path) as f:
                dump = json.load(f)
        return plain, traced, dump

    pairs = runner.rounds(one_pair)
    failed, correct, samples = 0, True, []
    for i, (plain, traced, dump) in enumerate(pairs):
        for r in (plain, traced):
            problems = _problems(r, wl.check)
            if problems is None:
                failed += 1
            elif problems:
                correct = False
                print(f"pair {i}: {problems[:5]}", file=sys.stderr)
        if dump is not None and plain.code == 0:
            m = layer_metrics(dump, traced)
            m["trace.overhead_s"] = traced.wall_s - plain.wall_s
            samples.append(m)
        print(f"pair {i}: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s")
    if not samples:
        raise SystemExit("perfbench: no traced run finished")
    metrics = {}
    for key, unit in wanted:
        values = [m[key] for m in samples]
        # counts repeat exactly between runs; times are medians over pairs
        metrics[key] = values[0] if unit in ("count", "ratio") else statistics.median(values)
    return correct, 2 * len(pairs), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--alt", action="store_true",
                        help="run the workload's alternate input")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that launch() kills what it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ratcat", "cli.py")):
        print("perfbench: run from the root of a ratcat checkout "
              "(src/ratcat/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = workloads(args.alt, os.path.join(root, "golden"))
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    runner = Runner(root, args.seconds)
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        correct, attempted, failed, values = per_layer(runner, wl, args.workload, wanted)
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        correct, attempted, failed, values = end_to_end(runner, wl, args.workload)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
