"""Span recording around the package's public entry points.

The benchmark measures layers from its own files: :class:`Tracer`
replaces a public function or method with a wrapper that records one
:class:`Span` per call (name, start, end, parent span).  Spans stay in
memory until the run ends.  Self time is a span's duration minus the
time its child spans cover.  Nothing in the package is edited; the
wrappers are removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

perf = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _simulator_bytes(sim: Any) -> int:
    """Bytes of every array a ScalarWaveSimulator holds (computed, not
    measured): one leapfrog step must read each at least once."""
    total = 0
    for value in vars(sim).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += sum(v.nbytes for v in value.values()
                         if isinstance(v, np.ndarray))
    return total


def _step_attrs(args, kwargs, result):
    sim = args[0]
    n = kwargs.get("n_steps", args[1] if len(args) > 1 else 1)
    return {"steps": int(n), "bytes": _simulator_bytes(sim)}


def _llg_run_attrs(args, kwargs, result):
    return {"steps": int(result["result"].n_steps)}


def _executor_attrs(args, kwargs, result):
    return {"jobs": len(args[1])}


def _cache_get_attrs(args, kwargs, result):
    return {"found": bool(result[0])}


#: (module, attribute path, span name, attrs hook): the public entry
#: points of each layer.  Module-level functions are also replaced in
#: every ``repro`` module that imported them by name.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.core.network", "WaveNetwork.propagate", "core.propagate", None),
    ("repro.core.gates", "TriangleMajorityGate.__init__", "core.gate_build",
     None),
    ("repro.core.gates", "TriangleXorGate.__init__", "core.gate_build", None),
    ("repro.core.gates", "TriangleMajorityGate.evaluate", "core.evaluate",
     None),
    ("repro.core.gates", "TriangleXorGate.evaluate", "core.evaluate", None),
    ("repro.fdtd.scalar", "run_steady_state", "fdtd.run", None),
    ("repro.fdtd.scalar", "ScalarWaveSimulator.step", "fdtd.step",
     _step_attrs),
    ("repro.fdtd.scalar", "ScalarWaveSimulator.steady_state_envelope",
     "fdtd.lockin", None),
    ("repro.core.fabric", "fabricate", "fdtd.build", None),
    ("repro.core.fabric", "build_wave_simulator", "fdtd.build", None),
    ("repro.micromag.sim", "Simulation.run", "micromag.run", _llg_run_attrs),
    ("repro.micromag.sim", "Simulation.effective_field", "micromag.field",
     None),
    ("repro.runtime.executor", "Executor.run", "runtime.executor",
     _executor_attrs),
    ("repro.micromag.experiments", "run_gate_case", "job.run", None),
    ("repro.runtime.jobs", "phase_noise_error_rate", "job.run", None),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache_get",
     _cache_get_attrs),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache_put", None),
]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, module: str, path: str,
                make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = make(original)
        self._set(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # ``from .fabric import fabricate`` copies the function into the
        # importer's namespace: replace those copies too.
        for name, mod in list(sys.modules.items()):
            if (name.startswith("repro.") and mod is not owner
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class Tracer:
    """Records spans around every entry point in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patcher = _Patcher()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str,
              attrs: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        import repro  # noqa: F401  (loads the modules whose copies we patch)
        import repro.micromag.experiments  # noqa: F401
        import repro.runtime.jobs  # noqa: F401

        for module, path, name, attrs in TARGETS:
            self._patcher.replace(
                module, path,
                lambda fn, n=name, a=attrs: self._wrap(fn, n, a))
        return self

    def uninstall(self) -> None:
        self._patcher.undo()

    def span(self, name: str) -> "_Root":
        """A span opened by the benchmark itself (the pass root)."""
        return _Root(self, name)

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- export (the serve launcher ships spans across processes) -----------

    def dump(self) -> List[Dict[str, Any]]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)), "attrs": s.attrs}
                for s in self.spans]


def load_spans(records: List[Dict[str, Any]]) -> List[Span]:
    spans: List[Span] = []
    for record in records:
        parent = spans[record["parent"]] if record["parent"] is not None \
            else None
        span = Span(record["name"], parent)
        span.start, span.end = record["start"], record["end"]
        span.attrs = record["attrs"]
        spans.append(span)
    return spans


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Span:
        stack = self.tracer._stack()
        self.span = Span(self.name, stack[-1] if stack else None)
        self.tracer.spans.append(self.span)
        stack.append(self.span)
        self.span.start = perf()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf()
        self.tracer._stack().pop()


def install_step_delay(fraction: float) -> Callable[[], None]:
    """Self-test hook: make every ``ScalarWaveSimulator.step`` call
    busy-wait ``fraction`` of its own duration.  Returns the undo."""
    patcher = _Patcher()

    def make(fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            until = perf() + fraction * (perf() - t0)
            while perf() < until:
                pass
            return result
        return slowed

    patcher.replace("repro.fdtd.scalar", "ScalarWaveSimulator.step", make)
    return patcher.undo


# -- analysis -----------------------------------------------------------------


class SpanStats:
    """Per-name totals over a span list: calls, duration, self time."""

    def __init__(self, spans: List[Span]):
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.attr_sum: Dict[Tuple[str, str], float] = defaultdict(float)
        self.job_time_in_executor = 0.0
        for span in spans:
            self.calls[span.name] += 1
            self.total[span.name] += span.duration
            self.self_time[span.name] += span.duration - child_time[id(span)]
            for key, value in span.attrs.items():
                self.attr_sum[(span.name, key)] += float(value)
            if (span.name == "job.run" and span.parent is not None
                    and span.parent.name == "runtime.executor"):
                self.job_time_in_executor += span.duration
        self.top_level = sum(s.duration for s in spans if s.parent is None)

    def per_call(self, name: str, which: Dict[str, float]) -> float:
        return which[name] / self.calls[name] if self.calls[name] else 0.0


def layer_metrics(stats: SpanStats, n_passes: int) -> Dict[str, float]:
    """The span-derived per-layer metrics, averaged per pass."""
    n = max(1, n_passes)
    s = stats
    fdtd_steps = s.attr_sum[("fdtd.step", "steps")]
    llg_steps = s.attr_sum[("micromag.run", "steps")]
    jobs = s.attr_sum[("runtime.executor", "jobs")]
    gets = s.calls["runtime.cache_get"]
    return {
        "core.propagate_calls": s.calls["core.propagate"] / n,
        "core.propagate_us": 1e6 * s.per_call("core.propagate", s.self_time),
        "core.gate_build_ms": 1e3 * s.total["core.gate_build"] / n,
        "core.evaluate_us": 1e6 * s.per_call("core.evaluate", s.self_time),
        "fdtd.runs": s.calls["fdtd.run"] / n,
        "fdtd.steps": fdtd_steps / n,
        "fdtd.step_us": (1e6 * s.self_time["fdtd.step"] / fdtd_steps
                         if fdtd_steps else 0.0),
        "fdtd.bytes_per_step": (s.attr_sum[("fdtd.step", "bytes")]
                                / s.calls["fdtd.step"]
                                if s.calls["fdtd.step"] else 0.0),
        "fdtd.lockin_ms": (1e3 * s.self_time["fdtd.lockin"]
                           / s.calls["fdtd.run"]
                           if s.calls["fdtd.run"] else 0.0),
        "fdtd.build_ms": 1e3 * s.total["fdtd.build"] / n,
        "micromag.steps": llg_steps / n,
        "micromag.step_ms": (1e3 * s.total["micromag.run"] / llg_steps
                             if llg_steps else 0.0),
        "micromag.field_ms": 1e3 * s.per_call("micromag.field", s.total),
        "micromag.field_calls_per_step": (s.calls["micromag.field"]
                                          / llg_steps if llg_steps else 0.0),
        "runtime.jobs": jobs / n,
        "runtime.job_overhead_us": (
            1e6 * (s.total["runtime.executor"] - s.job_time_in_executor)
            / jobs if jobs else 0.0),
        "runtime.cache_get_us": 1e6 * s.per_call("runtime.cache_get",
                                                 s.self_time),
        "runtime.cache_store_us": 1e6 * s.per_call("runtime.cache_put",
                                                   s.self_time),
        "runtime.hit_ratio": (s.attr_sum[("runtime.cache_get", "found")]
                              / gets if gets else 0.0),
    }


def layer_shares(stats: SpanStats, wall: float) -> Dict[str, float]:
    """Self time per layer (the name's prefix) as a share of ``wall``."""
    shares: Dict[str, float] = defaultdict(float)
    for name, value in stats.self_time.items():
        layer = name.split(".")[0]
        if layer != "bench":
            shares[layer] += value / wall
    return dict(shares)
