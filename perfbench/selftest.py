"""Seeded-slowdown self-test: do the workloads separate the layers?

Usage (from the repository root)::

    python3 perfbench/selftest.py

A 10 % slowdown of the FDTD kernel is seeded from the benchmark's side:
every ``ScalarWaveSimulator.step`` call busy-waits 10 % of its own
duration (the package is not edited).  For fdtd_xor, network_explore
and serve_gate the test alternates plain and slowed passes back to back
(serve_gate: load windows against a plain server and a server started
through ``serve_launcher.py --slow-step``), so a host whose speed
drifts affects both sides of a pair alike.  The shift is the median
over pairs of slowed/plain time - 1.

A workload is *flagged* when its shift exceeds twice the standard
error of that median (1.2533 x stdev of the pair ratios / sqrt(pairs)),
i.e. the slowdown is told apart from the host's noise.  Expected:
fdtd_xor flagged, network_explore and serve_gate not.  The shift is
also compared with the ``pass_s`` bound of ``BENCHMARK.json``.  Exits 0
when the flags come out as expected.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DELAY = 0.1
SERVE_WINDOW_S = 1.0
#: workload -> (expected to be flagged, pairing budget [s]).
PLAN = {"fdtd_xor": (True, 240.0), "network_explore": (False, 20.0),
        "serve_gate": (False, 40.0)}


def pass_pairs(bench, budget: float):
    """(plain, slowed) pass wall times, alternating which runs first.
    Passes run in the configuration ``pass_s`` is measured in: the
    fdtd_xor pool is created inside each pass, after the delay is
    installed, and its forked workers inherit the delay."""
    from perfbench.trace import install_step_delay

    pairs = []
    t_end = time.perf_counter() + budget
    while len(pairs) < 3 or time.perf_counter() < t_end:
        walls = {}
        for slowed in ((False, True) if len(pairs) % 2 == 0
                       else (True, False)):
            undo = install_step_delay(DELAY) if slowed else None
            try:
                walls[slowed] = bench.run_pass().wall
            finally:
                if undo is not None:
                    undo()
        pairs.append((walls[False], walls[True]))
    return pairs


def serve_pairs(bench, budget: float, env, workdir: str):
    """(plain, slowed) time per request of alternating load windows."""
    servers = {False: bench.start(workdir, env, "plain"),
               True: bench.start(workdir, env, "slowed", slow_step=DELAY)}
    pairs = []
    try:
        t_end = time.perf_counter() + budget
        while len(pairs) < 3 or time.perf_counter() < t_end:
            times = {}
            for slowed in ((False, True) if len(pairs) % 2 == 0
                           else (True, False)):
                t0 = time.perf_counter()
                requests = bench.load(servers[slowed], SERVE_WINDOW_S,
                                      stream=2 * len(pairs) + slowed)
                times[slowed] = (requests[-1].done - t0) / len(requests)
            pairs.append((times[False], times[True]))
    finally:
        for server in servers.values():
            server.stop()
    return pairs


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    if multiprocessing.get_start_method() != "fork":
        print("self-test needs the fork start method: the step delay "
              "must reach the pool workers", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bound = {m["name"]: m["bound"]
                 for m in json.load(fh)["end_to_end"]}["pass_s"]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    refs = workloads.load_references()
    nproc = len(os.sched_getaffinity(0))
    ok = True
    print(f"step delay {DELAY:.0%} of each call; pass_s bound {bound:.0%}")
    try:
        for name, (expected, budget) in PLAN.items():
            bench = workloads.WORKLOADS[name](refs, 1, nproc)
            pairs = (serve_pairs(bench, budget, env, workdir)
                     if name == "serve_gate" else pass_pairs(bench, budget))
            ratios = [slowed / plain for plain, slowed in pairs]
            shift = statistics.median(ratios) - 1
            error = 1.2533 * statistics.stdev(ratios) / len(ratios) ** 0.5
            flagged = shift > 2 * error
            ok &= flagged == expected
            print(f"{name:<16} shift {shift:+.1%} +- {error:.1%} over "
                  f"{len(ratios)} pairs -> "
                  f"{'flagged' if flagged else 'not flagged'} "
                  f"(expected {'flagged' if expected else 'not flagged'}); "
                  f"{'beyond' if shift > bound else 'within'} the "
                  f"{bound:.0%} bound")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
