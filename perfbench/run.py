"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \\
        --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` repeats the workload with the layer wrappers of
``perfbench/trace.py`` installed (pool jobs in-process, the server
started through ``serve_launcher.py``) and reports the per-layer
metrics, the tracing overhead and the reconciliation of layer self
times against pass wall time (the unwrapped remainder must stay within
``UNACCOUNTED_LIMIT``).  Metric names, units and the layer ->
end-to-end map are in ``BENCHMARK.json`` and ``perfbench/metrics.json``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output matched the references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("network_explore", "fdtd_xor", "llg_waveguide",
                  "serve_gate")
SETUP_REPEATS = 5
#: Reconciliation: the largest share of the wall time the wrapped layers
#: may leave unaccounted (``bench.unaccounted_frac``).  In-process passes
#: run inside wrapped entry points almost entirely.  For serve_gate the
#: wall is the client-side latency; the server's layers are only part of
#: it, the rest is HTTP, the event loop, the wire and the client.
UNACCOUNTED_LIMIT = {"network_explore": 0.05, "fdtd_xor": 0.05,
                     "llg_waveguide": 0.05, "serve_gate": 0.95}
perf = time.perf_counter


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- host facts ---------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts() -> Dict[str, Any]:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)),
            "load1_start": os.getloadavg()[0],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": git_commit(), "src_sha256": source_digest()}


# -- measurement --------------------------------------------------------------


class Run:
    """Accumulates metrics, sample counts and the correctness tally."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.shares = ""   # traced runs: layer self-time shares

    def put(self, name: str, value: float, samples: str = "") -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples

    def count(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += failed


def setup_probe(name: str, env: Dict[str, str], workdir: str) -> float:
    # No timeout: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would round every set-up time up to that grid.
    t0 = perf()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                    name], env=env, cwd=workdir, check=True,
                   stdout=subprocess.DEVNULL)
    return perf() - t0


def measure_passes(bench, run: Run, args, env, workdir) -> None:
    """End-to-end metrics of an in-process workload (network_explore,
    fdtd_xor, llg_waveguide).

    The host's other tenants slow this process for seconds at a time
    (CPU time stretches with wall time), so a run's median pass says
    more about them than about the program.  Slowdowns only add time:
    ``pass_s`` is the fastest pass.  The set-ups are spread over the
    run so their median samples the host as the passes do.
    """
    from perfbench.workloads import rss_mb

    setups, passes = [], []
    t_start = perf()
    while perf() - t_start < args.seconds:
        if perf() - t_start >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_probe(bench.name, env, workdir))
        passes.append(bench.run_pass())
        run.count(passes[-1].ops, passes[-1].failed)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(bench.name, env, workdir))
    run.put("setup_s", statistics.median(setups), f"n={len(setups)}")
    n = f"fastest of n={len(passes)} passes"
    if passes[0].chunks:
        # llg_waveguide: chunks per pass x fastest chunk wall time.
        chunks = [c for p in passes for c in p.chunks]
        pass_s = len(passes[0].chunks) * min(chunks)
        n = f"fastest of n={len(chunks)} chunks, {len(passes)} passes"
        run.put("pass_s", pass_s, n)
        run.put("cases_per_s", passes[0].cases / pass_s, n)
    else:
        run.put("pass_s", min(p.wall for p in passes), n)
        run.put("cases_per_s", max(p.cases / p.case_time for p in passes), n)
    worker_kb = [r.max_rss_kb for p in passes for r in p.reports
                 if r.max_rss_kb]
    run.put("max_rss_mb", max([rss_mb()] + [kb / 1024 for kb in worker_kb]))


def measure_serve(bench, run: Run, args, env, workdir) -> None:
    """SETUP_REPEATS sessions, each a fresh server: timed set-up, a
    short unmeasured warm-up load, then an equal share of ``--seconds``
    of measured load.  Pooling sessions keeps one process's luck out of
    the figures; ``pass_s`` is the fastest block of SERVE_BLOCK requests
    (see measure_passes for why the fastest)."""
    from perfbench.workloads import SERVE_BLOCK, SERVE_WARMUP_S, block_times

    setups, blocks, rss = [], [], []
    measured = 0
    for i in range(SETUP_REPEATS):
        t0 = perf()
        server = bench.start(workdir, env, f"s{i}")
        setups.append(perf() - t0)
        try:
            warm = bench.load(server, SERVE_WARMUP_S, stream=SETUP_REPEATS + i)
            t_start = perf()
            requests = bench.load(server, args.seconds / SETUP_REPEATS,
                                  stream=i)
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        blocks += block_times(requests, t_start)
        measured += len(requests)
        run.count(len(warm) + len(requests), bench.check(warm + requests))
    run.put("setup_s", statistics.median(setups), f"n={len(setups)}")
    n = (f"fastest of n={len(blocks)} blocks of {SERVE_BLOCK} "
         f"({measured} requests, {SETUP_REPEATS} servers)")
    run.put("pass_s", min(blocks), n)
    run.put("cases_per_s", SERVE_BLOCK / min(blocks), n)
    run.put("max_rss_mb", statistics.median(rss), f"n={len(rss)} servers")


# -- traced run ---------------------------------------------------------------


def report_metrics(reports, n_passes: int) -> Dict[str, float]:
    # Pool jobs' wall times are taken while the parent waits on each
    # future in turn, so they undercount; their CPU time does not.
    busy = sum(r.total_cpu_time or r.total_wall_time for r in reports)
    capacity = sum(r.elapsed * r.workers for r in reports)
    n = max(1, n_passes)
    return {"runtime.pool_busy_frac": busy / capacity if capacity else 0.0,
            "runtime.retries": sum(r.total_retries for r in reports) / n,
            "runtime.failed": sum(r.n_failed for r in reports) / n}


def trace_passes(bench, run: Run, args) -> None:
    """Alternate untraced and traced passes, both with pool jobs
    in-process, until ``--seconds`` have passed."""
    from perfbench.trace import SpanStats, Tracer, layer_metrics
    from perfbench.workloads import FdtdXor

    tracer = Tracer()
    normal = []  # untraced passes in the workload's normal configuration
    if isinstance(bench, FdtdXor):
        normal.append(bench.run_pass())
    untraced, traced = [], []
    t_start = perf()
    while not traced or (perf() - t_start + untraced[-1].wall
                         + traced[-1].wall <= args.seconds):
        untraced.append(bench.run_pass(serial=True))
        tracer.install()
        try:
            traced.append(bench.run_pass(
                serial=True, span=lambda: tracer.span("bench.pass")))
        finally:
            tracer.uninstall()
    for p in normal + untraced + traced:
        run.count(p.ops, p.failed)
    if not normal:
        normal = untraced

    stats = SpanStats(tracer.take())
    wall = sum(p.wall for p in traced)
    values = layer_metrics(stats, len(traced))
    values.update(report_metrics([r for p in normal for r in p.reports],
                                 len(normal)))
    trials = [p.trials / p.trial_time for p in untraced if p.trials]
    values["core.mc_trials_per_s"] = statistics.median(trials) \
        if trials else 0.0
    values["bench.trace_overhead"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1)
    values["bench.unaccounted_frac"] = stats.self_time["bench.pass"] / wall
    n = f"n={len(traced)} traced + {len(untraced)} untraced passes"
    for name, value in values.items():
        run.put(name, value, n)
    run.shares = layer_shares_line(stats, wall)


def layer_shares_line(stats, wall: float) -> str:
    from perfbench.trace import layer_shares

    shares = layer_shares(stats, wall)
    parts = [f"{layer} {share:.1%}" for layer, share in sorted(shares.items())]
    unwrapped = stats.self_time.get("bench.pass", wall - stats.top_level)
    parts.append(f"unwrapped {unwrapped / wall:.1%}")
    return ", ".join(parts)


def trace_serve(bench, run: Run, args, env, workdir) -> None:
    """Untraced server (client-side latencies, /metrics), then a server
    started through the launcher with the layer wrappers."""
    from perfbench.trace import SpanStats, layer_metrics, load_spans
    from perfbench.workloads import SERVE_BLOCK, SERVE_WARMUP_S, percentile_ms

    server = bench.start(workdir, env, "plain")
    try:
        warm = bench.load(server, SERVE_WARMUP_S, stream=2)
        before = server.metrics()
        t_start = perf()
        plain = bench.load(server, args.seconds, stream=0)
        window = perf() - t_start
        after = server.metrics()
    finally:
        server.stop()
    spans_path = os.path.join(workdir, "spans.json")
    server = bench.start(workdir, env, "traced", spans_path=spans_path)
    try:
        warm += bench.load(server, SERVE_WARMUP_S, stream=3)
        t_traced = perf()
        traced = bench.load(server, args.seconds / 2, stream=1)
        t_end = perf()
    finally:
        server.stop()
    checked = warm + plain + traced
    run.count(len(checked), bench.check(checked))

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    values: Dict[str, float] = {}
    samples: Dict[str, str] = {}
    for label, subset in (("req", plain),
                          ("hit", [r for r in plain if r.hot]),
                          ("miss", [r for r in plain if not r.hot])):
        for q in (50, 99):
            name = f"serve.{label}_p{q}_ms"
            values[name], beyond = percentile_ms(subset, q / 100)
            samples[name] = f"n={len(subset)}, {beyond} beyond"
    values["serve.fastpath_ratio"] = \
        delta("repro_serve_cache_fastpath_total") / len(plain)
    batches = delta("repro_serve_batch_size_count")
    values["serve.batch_size_mean"] = \
        delta("repro_serve_batch_size_sum") / batches if batches else 0.0
    values["serve.rejected"] = sum(
        delta(f"repro_serve_rejected_{kind}_total")
        for kind in ("queue", "rate", "circuit"))

    with open(spans_path) as fh:
        spans = load_spans(json.load(fh))
    spans = [s for s in spans if t_traced <= _root(s).start <= t_end]
    stats = SpanStats(spans)
    # Per-pass figures are per SERVE_BLOCK requests.
    plain_passes = len(plain) / SERVE_BLOCK
    values.update(layer_metrics(stats, len(traced) / SERVE_BLOCK))
    values["runtime.retries"] = delta("repro_executor_retry_total") \
        / plain_passes
    values["runtime.failed"] = delta("repro_executor_failed_total") \
        / plain_passes
    values["bench.trace_overhead"] = (
        (t_end - t_traced) / len(traced)) / (window / len(plain)) - 1
    # Wall to account for: every traced request's client-side latency.
    # Server-side layer time can only be part of it; the rest (HTTP,
    # event loop, wire, client) is the unwrapped remainder.
    wall = sum(r.latency for r in traced)
    values["bench.unaccounted_frac"] = 1 - stats.top_level / wall
    n = f"n={len(traced)} traced + {len(plain)} untraced requests"
    for name, value in values.items():
        run.put(name, value, samples.get(name, n))
    run.shares = layer_shares_line(stats, wall)


def _root(span):
    while span.parent is not None:
        span = span.parent
    return span


# -- entry point --------------------------------------------------------------


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package source at {SRC}/repro",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fix string hashing for this process and every process it
        # starts, so two runs differ only by their seed argument.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path[:0] = [SRC, ROOT]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        catalogue = json.load(fh)
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    from perfbench import workloads

    import repro  # noqa: F401  (imports happen before any timing)
    import repro.micromag.experiments  # noqa: F401
    import repro.runtime.jobs  # noqa: F401

    # Flush what earlier runs left dirty (serve_gate writes thousands of
    # cache files) so its writeback does not land inside this run.
    os.sync()
    host = host_facts()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    run = Run()
    bench = workloads.WORKLOADS[args.workload](
        workloads.load_references(), args.seed, host["nproc"])
    serve = args.workload == "serve_gate"
    os.chdir(workdir)  # anything the package writes lands in workdir
    try:
        if args.trace and serve:
            trace_serve(bench, run, args, env, workdir)
        elif args.trace:
            trace_passes(bench, run, args)
        elif serve:
            measure_serve(bench, run, args, env, workdir)
        else:
            measure_passes(bench, run, args, env, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    host["load1_end"] = os.getloadavg()[0]

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    layers = catalogue["per_layer"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value = run.metrics.get(name, 0.0)  # 0: layer not used here
        metrics[name] = {"value": value, "unit": unit}
        line = (f"  {name:<30} {value:>14.6g} {unit:<9} "
                f"{run.samples.get(name, '')}")
        if name in layers and layers[name]["moves"]:
            info = layers[name]
            line += (f"  -> {', '.join(info['moves'])} on "
                     f"{', '.join(info['on'])}")
            if info["no_change_on"]:
                line += f"; no change on {', '.join(info['no_change_on'])}"
        print(line)
    if args.trace:
        rest = run.metrics["bench.unaccounted_frac"]
        limit = UNACCOUNTED_LIMIT[args.workload]
        print(f"layer self time / pass wall: {run.shares}")
        print(f"reconciliation: wrapped layers account for {1 - rest:.1%} "
              f"of the wall time, unwrapped remainder {rest:.1%} "
              f"(limit {limit:.0%}) -> "
              f"{'ok' if rest <= limit else 'FAILED'}")
        run.count(1, int(rest > limit))
    print(f"checked {run.attempted} operations against the references: "
          f"{run.failed} failed")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
