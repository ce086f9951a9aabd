"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload calls the package only through its public API.  A pass
returns its wall time and the number of operations it attempted and
failed; a failed operation is one that raised, was refused, or whose
output does not match the committed references (``references/``).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import os
import random
import resource
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
perf = time.perf_counter

#: Tolerances of the checks against ``references/`` (see README.md).
NETWORK_RTOL = 1e-12      # normalised amplitudes, network tier
TABLE_I_ATOL = 1e-6       # calibrated O1 column vs the paper's Table I
FDTD_RTOL = 1e-6          # FDTD envelopes (amplitude relative, phase rad)
LLG_DPHI_TOL = 0.3        # |dphi - pi| of the bit-0/bit-1 pair [rad]
LLG_DURATION = 0.2e-9     # simulated time per LLG run [s]
LLG_DT = 2.5e-14
LLG_FREQ = 18e9
#: Each LLG run is advanced in this many equal Simulation.run calls (the
#: same trajectory as one call, 80 steps each); pass_s is estimated from
#: the fastest, as short calls catch the host's quiet moments.
LLG_CHUNKS = 100

MC_TRIALS = 25            # Monte-Carlo trials per pattern and job
MC_JOBS = 4               # phase-noise jobs per network_explore pass
#: The load sends one miss and SERVE_CYCLE - 1 hot cases in every
#: SERVE_CYCLE requests (seeded order), so every block of SERVE_BLOCK
#: requests holds exactly 20 % misses and block times compare like for
#: like.
SERVE_CYCLE = 5
SERVE_BLOCK = 20          # requests per serve_gate "pass", 4 of them misses
SERVE_WARMUP_S = 0.5      # unmeasured load after each server start


@dataclass
class Pass:
    wall: float
    ops: int
    failed: int
    cases: int = 0
    case_time: float = 0.0
    trials: int = 0
    trial_time: float = 0.0
    chunks: List[float] = field(default_factory=list)
    reports: List[Any] = field(default_factory=list)


def load_references() -> Dict[str, Any]:
    refs = {}
    for name in ("network", "fdtd_xor", "llg"):
        with open(os.path.join(HERE, "references", f"{name}.json")) as fh:
            refs[name] = json.load(fh)
    return refs


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def case_record(case: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a run_gate_case result the references pin down."""
    names = sorted(case["outputs"])
    return {"logic": [case["outputs"][n]["logic"] for n in names],
            "normalized": [float(v) for v in case["normalized"]],
            "amplitude": [float(case["outputs"][n]["amplitude"])
                          for n in names],
            "phase": [float(case["outputs"][n]["phase"]) for n in names]}


def matches(got: Dict[str, Any], want: Dict[str, Any], rtol: float) -> bool:
    """Logic bit-identical; amplitudes within ``rtol`` relative; output
    phases within ``rtol`` rad."""
    return (got["logic"] == want["logic"]
            and all(close(a, b, rtol) for k in ("normalized", "amplitude")
                    for a, b in zip(got[k], want[k]))
            and all(abs(math.remainder(a - b, 2 * math.pi)) <= rtol
                    for a, b in zip(got["phase"], want["phase"])))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- network_explore ----------------------------------------------------------


class NetworkExplore:
    """Cold MAJ3/XOR tables at seeded frequencies, Table I, phase noise."""

    name = "network_explore"

    def __init__(self, refs: Dict[str, Any], seed: int, nproc: int):
        self.ref = refs["network"]
        self.rng = random.Random(seed)
        self.freqs = self.ref["frequencies"]
        self.sigmas = self.ref["sigmas"]

    def _sweep(self, gate: str, **kwargs):
        from repro.micromag.experiments import sweep_gate_truth_table
        from repro.runtime import Executor, MemoryCache

        return sweep_gate_truth_table(
            gate, tier="network", raise_on_failure=False,
            executor=Executor(workers=1, cache=MemoryCache()), **kwargs)

    def run_pass(self, serial: bool = False,
                 span=contextlib.nullcontext) -> Pass:
        from repro.runtime import Executor, JobSpec, MemoryCache

        i_maj, i_xor = (self.rng.randrange(len(self.freqs))
                        for _ in range(2))
        i_sig = self.rng.sample(range(len(self.sigmas)), MC_JOBS)
        specs = [JobSpec(fn="repro.runtime.jobs:phase_noise_error_rate",
                         params={"sigma": self.sigmas[i],
                                 "n_trials": MC_TRIALS})
                 for i in i_sig]
        with span():
            t0 = perf()
            maj = self._sweep("maj3", frequency=self.freqs[i_maj])
            xor = self._sweep("xor", frequency=self.freqs[i_xor])
            table_i = self._sweep("maj3")
            t1 = perf()
            mc = Executor(workers=1, cache=MemoryCache()).run(specs)
            t2 = perf()

        failed = 0
        for sweep, ref in ((maj, self.ref["maj3"][i_maj]),
                           (xor, self.ref["xor"][i_xor]),
                           (table_i, self.ref["table_i"])):
            failed += self._check_sweep(sweep, ref)
        failed += self._check_table_i(table_i)
        for outcome, i in zip(mc, i_sig):
            trials = 8 * MC_TRIALS
            if (not outcome.ok or round(outcome.value["error_rate"] * trials)
                    != self.ref["mc_errors"][i]):
                failed += 1
        n_cases = 20
        return Pass(wall=t2 - t0, ops=n_cases + MC_JOBS, failed=failed,
                    cases=n_cases, case_time=t1 - t0,
                    trials=MC_JOBS * 8 * MC_TRIALS, trial_time=t2 - t1,
                    reports=[maj.report, xor.report, table_i.report,
                             mc.report])

    @staticmethod
    def _check_sweep(sweep, ref: Dict[str, Any]) -> int:
        failed = 0
        for key, want in ref.items():
            case = sweep.cases.get(tuple(int(c) for c in key))
            if case is None or not case["correct"]:
                failed += 1
                continue
            failed += not matches(case_record(case), want, NETWORK_RTOL)
        return failed

    @staticmethod
    def _check_table_i(sweep) -> int:
        from repro.core import PAPER_TABLE_I

        failed = 0
        for bits, (o1, _o2) in PAPER_TABLE_I.items():
            case = sweep.cases.get(bits)
            # The calibrated model is mirror-symmetric: O2 equals O1 (the
            # paper's O2 column differs from O1 by 0.001 on two rows).
            if (case is None or abs(case["normalized"][0] - o1) > TABLE_I_ATOL
                    or case["normalized"][1] != case["normalized"][0]):
                failed += 1
        return failed


# -- fdtd_xor -----------------------------------------------------------------


class FdtdXor:
    """The cold XOR Table II on the FDTD tier."""

    name = "fdtd_xor"

    def __init__(self, refs: Dict[str, Any], seed: int, nproc: int):
        # The table is fixed by the paper; the seed changes nothing here.
        self.ref = refs["fdtd_xor"]
        self.workers = min(2, nproc)

    def run_pass(self, serial: bool = False,
                 span=contextlib.nullcontext) -> Pass:
        from repro.micromag.experiments import sweep_gate_truth_table
        from repro.runtime import Executor, MemoryCache

        executor = Executor(workers=1 if serial else self.workers,
                            cache=MemoryCache())
        with span():
            t0 = perf()
            sweep = sweep_gate_truth_table("xor", tier="fdtd",
                                           executor=executor,
                                           raise_on_failure=False)
            wall = perf() - t0
        failed = 0
        for key, want in self.ref["cases"].items():
            case = sweep.cases.get(tuple(int(c) for c in key))
            if case is None or not case["correct"]:
                failed += 1
                continue
            failed += not matches(case_record(case), want, FDTD_RTOL)
        return Pass(wall=wall, ops=4, failed=failed, cases=4, case_time=wall,
                    reports=[sweep.report])


# -- llg_waveguide ------------------------------------------------------------


def llg_run(bit: int, chunks: Optional[List[float]] = None
            ) -> Tuple[float, float]:
    """One phase-encoding run on the 120x6x1 FeCoB strip: probe (amp,
    phase) demodulated over the last two drive periods.

    The run is advanced in LLG_CHUNKS calls whose wall times are
    appended to ``chunks``.  Every call re-records the sample the
    previous one ended on; dropping those repeats leaves exactly the
    trace of a single call.
    """
    import numpy as np

    from repro.micromag import (ExcitationSource, Mesh, Probe, Simulation,
                                TimeTrace, rectangle)
    from repro.physics import FECOB

    mesh = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(120, 6, 1))
    sim = Simulation(mesh, FECOB.with_damping(0.004), demag="thin_film",
                     absorber_width=100e-9, absorber_axes=(0,))
    sim.initialize((0, 0, 1))
    sim.add_source(ExcitationSource.for_logic(
        rectangle(120e-9, 0, 140e-9, 30e-9), bit, amplitude=8e3,
        frequency=LLG_FREQ))
    probe = Probe("P", rectangle(300e-9, 0, 320e-9, 30e-9))
    sim.add_probe(probe)
    for _ in range(LLG_CHUNKS):
        t0 = perf()
        sim.run(duration=LLG_DURATION / LLG_CHUNKS, dt=LLG_DT,
                sample_every=4)
        if chunks is not None:
            chunks.append(perf() - t0)
    trace = probe.trace
    times, first = np.unique(trace.times, return_index=True)
    window = TimeTrace(times, trace.values[first]).window(
        LLG_DURATION - 2 / LLG_FREQ - 1e-15)
    return window.demodulate(LLG_FREQ)


class LlgWaveguide:
    """The bit-0/bit-1 phase-encoding pair on the LLG tier."""

    name = "llg_waveguide"

    def __init__(self, refs: Dict[str, Any], seed: int, nproc: int):
        # Deterministic at T = 0; the seed changes nothing here.
        self.ref = refs["llg"]

    def run_pass(self, serial: bool = False,
                 span=contextlib.nullcontext) -> Pass:
        chunks: List[float] = []
        with span():
            t0 = perf()
            (a0, p0), (a1, p1) = llg_run(0, chunks), llg_run(1, chunks)
            wall = perf() - t0
        dphi = abs(math.remainder(p1 - p0, 2 * math.pi))
        floor = self.ref["amplitude_floor"]
        failed = int(abs(dphi - math.pi) > LLG_DPHI_TOL) \
            + int(a0 < floor) + int(a1 < floor)
        return Pass(wall=wall, ops=2, failed=min(failed, 2), cases=2,
                    case_time=wall, chunks=chunks)


# -- serve_gate ---------------------------------------------------------------

HOT_CASES = ([("maj3", [a, b, c]) for a in (0, 1) for b in (0, 1)
              for c in (0, 1)]
             + [("xor", [a, b]) for a in (0, 1) for b in (0, 1)])


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def gate_params(gate: str, bits: List[int],
                frequency: Optional[float] = None) -> Dict[str, Any]:
    """The request body; also the run_gate_case kwargs it maps to."""
    params: Dict[str, Any] = {"gate": gate, "bits": bits, "tier": "network"}
    if frequency is not None:
        params["frequency"] = frequency
    return params


def inprocess_case(params: Dict[str, Any]) -> Any:
    """What the server must answer: run_gate_case with the same params,
    through a JSON round trip as the wire does."""
    from repro.micromag.experiments import run_gate_case

    return json.loads(json.dumps(run_gate_case(calibrated=True, **params)))


class Server:
    """A ``python -m repro serve`` process (or the benchmark's launcher
    around the same entry point when tracing or self-testing)."""

    def __init__(self, workdir: str, env: Dict[str, str], tag: str,
                 cpus: Set[int], spans_path: Optional[str] = None,
                 slow_step: float = 0.0):
        self.port = free_port()
        cache = os.path.join(workdir, f"cache-{tag}")
        args = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                "--cache-dir", cache]
        if spans_path or slow_step:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   "--spans", spans_path or "", "--slow-step",
                   str(slow_step), "--"] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        self.log = open(os.path.join(workdir, f"server-{tag}.log"), "wb")
        self.proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        os.sched_setaffinity(self.proc.pid, cpus)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            conn = self.connect()
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass  # not listening yet
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server did not answer /healthz")

    def metrics(self) -> Dict[str, float]:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        values: Dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    values[name] = float(value)
                except ValueError:
                    pass
        return values

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def post_gate(conn: http.client.HTTPConnection,
              params: Dict[str, Any]) -> Tuple[int, bytes]:
    conn.request("POST", "/v1/gate", body=json.dumps(params),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


@dataclass
class Request:
    done: float
    latency: float
    hot: bool
    status: int
    params: Dict[str, Any]
    body: bytes


class ServeGate:
    """Closed-loop /v1/gate load over one keep-alive connection from this
    process against a server process: 80 % hot paper cases, 20 % network
    cases at fresh frequencies (cache misses)."""

    name = "serve_gate"

    def __init__(self, refs: Dict[str, Any], seed: int, nproc: int):
        self.seed = seed
        self._hot_answers: Optional[Dict[str, Any]] = None
        # Server and load generator share one CPU.  On separate vCPUs
        # every request waits for two cross-CPU wake-ups, whose cost is
        # set by the host's other tenants: on a 2-vCPU VM the run-to-run
        # spread of the fastest block was 0.18 (IQR/median) against
        # 0.05 on one CPU.  The price: serve figures include the
        # client's CPU time.
        self.cpus = {max(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, self.cpus)

    def start(self, workdir: str, env: Dict[str, str], tag: str,
              **kwargs: Any) -> Server:
        """Set-up: start the server, wait for /healthz, warm the hot set."""
        server = Server(workdir, env, tag, self.cpus, **kwargs)
        try:
            server.wait_healthy()
            conn = server.connect()
            for gate, bits in HOT_CASES:
                status, _ = post_gate(conn, gate_params(gate, bits))
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {status}")
            conn.close()
        except BaseException:
            server.stop()
            raise
        return server

    def load(self, server: Server, seconds: float,
             stream: int) -> List[Request]:
        """Run the closed loop for ``seconds``; returns every request."""
        rng = random.Random(f"{self.seed}:{stream}")
        out: List[Request] = []
        cycle: List[bool] = []
        conn = server.connect()
        deadline = perf() + seconds
        try:
            while perf() < deadline:
                if not cycle:
                    cycle = [True] * (SERVE_CYCLE - 1) + [False]
                    rng.shuffle(cycle)
                hot = cycle.pop()
                if hot:
                    gate, bits = rng.choice(HOT_CASES)
                    params = gate_params(gate, list(bits))
                else:
                    gate = rng.choice(("maj3", "xor"))
                    bits = [rng.randrange(2)
                            for _ in range(3 if gate == "maj3" else 2)]
                    params = gate_params(
                        gate, bits, 10e9 * (1 + rng.uniform(-0.02, 0.02)))
                t0 = perf()
                try:
                    status, body = post_gate(conn, params)
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    conn.close()
                    conn = server.connect()
                t1 = perf()
                out.append(Request(t1, t1 - t0, hot, status, params, body))
        finally:
            conn.close()
        return out

    def check(self, requests: List[Request]) -> int:
        """Failures: non-200 answers and answers that differ from the
        in-process run_gate_case with the same parameters."""
        if self._hot_answers is None:
            self._hot_answers = {
                json.dumps(gate_params(g, b)): inprocess_case(gate_params(g, b))
                for g, b in HOT_CASES}
        failed = 0
        for req in requests:
            if req.status != 200:
                failed += 1
                continue
            key = json.dumps(req.params)
            want = (self._hot_answers[key] if req.hot
                    else inprocess_case(req.params))
            failed += json.loads(req.body)["result"] != want
        return failed


def block_times(requests: List[Request], start: float) -> List[float]:
    """Wall time of each consecutive block of SERVE_BLOCK completions; a
    window too short for one block gives its time per request x
    SERVE_BLOCK."""
    marks = [start] + [r.done for r in requests[SERVE_BLOCK - 1::SERVE_BLOCK]]
    return ([b - a for a, b in zip(marks, marks[1:])]
            or [SERVE_BLOCK * (requests[-1].done - start) / len(requests)])


def percentile_ms(requests: List[Request], q: float) -> Tuple[float, int]:
    """Nearest-rank latency percentile [ms] and how many samples lie
    beyond it."""
    if not requests:
        return 0.0, 0
    ordered = sorted(r.latency for r in requests)
    rank = max(1, math.ceil(q * len(ordered)))
    return 1e3 * ordered[rank - 1], len(ordered) - rank


WORKLOADS = {cls.name: cls for cls in (NetworkExplore, FdtdXor,
                                       LlgWaveguide, ServeGate)}
