"""A fixed pure-Python program that measures how fast this machine runs now.

Usage: python3 perfbench/reference.py THREADS [CPU]

It does the kind of work ratcat does (generators over lattice paths, tuples
as dictionary keys, products of sparse polynomials with integer
coefficients) without importing ratcat, so no change to ratcat changes its
time. It runs TASKS equal tasks on a pool of THREADS threads, as ratcat runs
its checks and tables (THREADS = 1 runs them in turn on the main thread),
prints the wall and CPU seconds they took, timed inside the process, and
exits with code 1 if a task gives a wrong count. With CPU, the process first binds
itself to that processor.

run.py launches it between and during the launches of a workload and
divides each workload time by the reference times around it; see
README.md.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

N = 8  # lattice paths from (0,0) to (N,N) that stay weakly above the diagonal
CATALAN_N = 1430  # the 8th Catalan number
TASKS = 4


def dyck_paths(n):
    """Dyck paths of semilength n as tuples of 0 (north) and 1 (east)."""
    def rec(path, north, east):
        if north == east == n:
            yield tuple(path)
            return
        if north < n:
            path.append(0)
            yield from rec(path, north + 1, east)
            path.pop()
        if east < north:
            path.append(1)
            yield from rec(path, north, east + 1)
            path.pop()
    yield from rec([], 0, 0)


def mul(f, g):
    """Product of polynomials stored as {(i, j): coefficient}."""
    out = {}
    for (a, b), c in f.items():
        for (d, e), k in g.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * k
    return out


def work():
    count = 0
    total = {}
    for path in dyck_paths(N):
        count += 1
        poly = {(0, 0): 1}
        height = 0
        for step in path:
            if step:
                poly = mul(poly, {(0, 0): 1, (height % 3, height % 2): 1})
                if len(poly) > 6:
                    poly = {key: c for key, c in poly.items() if key[0] + key[1] < 6}
            else:
                height += 1
        for key, c in poly.items():
            total[key] = total.get(key, 0) + c
    return count, total


def main(argv):
    threads = int(argv[1])
    if len(argv) > 2:
        os.sched_setaffinity(0, {int(argv[2])})
    t0, c0 = time.perf_counter(), time.process_time()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda _: work(), range(TASKS)))
    else:
        results = [work() for _ in range(TASKS)]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if any(count != CATALAN_N for count, _ in results):
        print("reference: wrong count of paths", file=sys.stderr)
        return 1
    print(f"{wall:.6f} {cpu:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
