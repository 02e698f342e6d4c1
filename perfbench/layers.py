"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions of the program with
wrappers that open a span around each call.  Each thread keeps its own
span stack, so a span's *self time* is its duration minus the time its
nested layer spans cover, and on one thread the self times of every span
plus the time no span covers add up to the wall-clock.  Spans carry the
trace id of the day, window or ticket that caused them; the benchmark
sets it with :meth:`LayerTracer.context`, and :data:`PROBES` propagate
it into executor items and serving workers.  Spans stay in memory until
:meth:`LayerTracer.write_jsonl`.

Nothing under ``src/`` is edited: wrappers are installed on the classes
at run time and removed by :meth:`LayerTracer.uninstall`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Probe", "PROBES", "STAGES", "LayerTracer"]

#: the pipeline stages, in run order, as (stage name, stage class)
STAGES = (
    ("production", "ProductionStage"),
    ("features", "FeatureStage"),
    ("recommend", "RecommendStage"),
    ("recompile", "RecompileStage"),
    ("flight", "FlightStage"),
    ("validate", "ValidateStage"),
    ("hintgen", "HintGenStage"),
)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``target`` is ``module:Class.method``."""

    target: str
    #: span name; the per-call counters are kept under it
    span: str
    #: layer the span's self time is booked to
    layer: str
    #: how the wrapper treats the call: "span", "ticket" (a span run under
    #: the trace id ``ticket:<job_id>`` of its first argument), "map"
    #: (an executor map: items carry the caller's trace id to the worker
    #: and their time is summed) or "dequeue" (not a span: a returned
    #: ticket sets the worker thread's trace id)
    kind: str = "span"


PROBES = (
    Probe("repro.scope.optimizer.engine:Optimizer.optimize",
          "scope.optimizer.optimize", "scope.optimizer"),
    Probe("repro.scope.optimizer.engine:Optimizer.explore_fragment_entry",
          "scope.optimizer.explore_fragment", "scope.optimizer"),
    Probe("repro.scope.engine:ScopeEngine.compile",
          "scope.language.parse_bind", "scope.language.parse_bind"),
    Probe("repro.scope.engine:ScopeEngine.compile_job",
          "scope.cache.compile_job", "scope.cache.lookup"),
    Probe("repro.scope.cache:CompilationService.compile_script",
          "scope.cache.compile_script", "scope.cache.lookup"),
    Probe("repro.scope.cache:CompilationService.compile_many",
          "scope.cache.compile_many", "scope.cache.lookup"),
    Probe("repro.scope.cache:CompilationService.preexplore_batch",
          "scope.cache.preexplore", "scope.cache.preexplore"),
    Probe("repro.scope.engine:ScopeEngine.execute",
          "scope.runtime.execute", "scope.runtime.execute"),
    Probe("repro.scope.engine:ScopeEngine.run_job",
          "scope.engine.run_job", "scope.engine.run_job", kind="ticket"),
    Probe("repro.core.spans:SpanComputer.compute",
          "core.spans.compute", "core.spans.compute"),
    *(
        Probe(f"repro.core.pipeline:{cls}.run", f"core.pipeline.stage.{name}",
              "core.pipeline")
        for name, cls in STAGES
    ),
    Probe("repro.policies.bandit:BanditSteeringPolicy.rank",
          "policies.rank", "policies.rank"),
    Probe("repro.policies.bandit:BanditSteeringPolicy.observe",
          "policies.observe", "policies.observe"),
    Probe("repro.flighting.service:FlightingService.flight",
          "flighting.flight", "flighting.flight"),
    Probe("repro.sis.service:SISService.lookup", "sis.lookup", "sis.lookup"),
    Probe("repro.sis.service:SISService.upload", "sis.upload", "sis.upload"),
    Probe("repro.parallel:SerialExecutor.map_jobs",
          "parallel.map_jobs", "parallel.map_jobs", kind="map"),
    Probe("repro.parallel:ThreadedExecutor.map_jobs",
          "parallel.map_jobs", "parallel.map_jobs", kind="map"),
    Probe("repro.serving.server:QOAdvisorServer.submit",
          "serving.submit", "serving.submit"),
    Probe("repro.serving.journal:TicketJournal.append",
          "serving.journal.append", "serving.journal.append"),
    Probe("repro.serving.queues:ShardQueue.get", "", "", kind="dequeue"),
)

#: spans whose time inside a ticket is that ticket's steer and execute time
STEER_SPAN = "scope.cache.compile_job"
EXECUTE_SPAN = "scope.runtime.execute"


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner_name, _, attr = qualname.rpartition(".")
    owner = importlib.import_module(module_name)
    for part in owner_name.split("."):
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Per-thread span stacks over wrapped functions, with self time."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: calls and inclusive seconds per span name
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        #: self seconds per layer
        self.self_s: dict[str, float] = {}
        #: seconds covered by outermost spans, per thread name
        self.covered_s: dict[str, float] = {}
        #: executor maps: items mapped, summed item seconds, and summed
        #: ``wall × min(workers, items)`` seconds
        self.map_items = 0
        self.map_busy_s = 0.0
        self.map_capacity_s = 0.0
        #: steer and execute seconds per ticket trace id
        self.ticket_steer_s: dict[str, float] = {}
        self.ticket_execute_s: dict[str, float] = {}
        #: finished spans: (id, parent id, name, trace id, thread, start, end, self)
        self.records: list[tuple] = []
        #: garbage-collector pauses: collections per generation, and the
        #: seconds each pause stopped every thread
        self.gc_collections = [0, 0, 0]
        self.gc_pauses_s: list[float] = []
        self._gc_started = 0.0

    # -- trace context --------------------------------------------------------

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.trace = None
            return local.stack

    def current_trace(self) -> str | None:
        self._stack()
        return self._local.trace

    def set_trace(self, trace_id: str | None) -> str | None:
        """Set this thread's trace id; returns the previous one."""
        self._stack()
        previous = self._local.trace
        self._local.trace = trace_id
        return previous

    @contextmanager
    def context(self, trace_id: str | None):
        previous = self.set_trace(trace_id)
        try:
            yield
        finally:
            self.set_trace(previous)

    # -- spans ----------------------------------------------------------------

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span booked to ``layer``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        # frame: [span id, seconds covered by child spans]
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            own = duration - frame[1]
            if parent is not None:
                parent[1] += duration
            trace = self._local.trace
            thread = threading.current_thread().name
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
                self.self_s[layer] = self.self_s.get(layer, 0.0) + own
                if parent is None:
                    self.covered_s[thread] = self.covered_s.get(thread, 0.0) + duration
                if trace is not None and trace.startswith("ticket:"):
                    if name == STEER_SPAN:
                        self.ticket_steer_s[trace] = self.ticket_steer_s.get(trace, 0.0) + duration
                    elif name == EXECUTE_SPAN:
                        self.ticket_execute_s[trace] = (
                            self.ticket_execute_s.get(trace, 0.0) + duration
                        )
                self.records.append(
                    (frame[0], parent[0] if parent else 0, name, trace, thread,
                     start, end, own)
                )

    # -- installation ---------------------------------------------------------

    def _wrapper(self, probe: Probe, original):
        tracer = self
        name, layer = probe.span, probe.layer
        if probe.kind == "span":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call(name, layer, original, *args, **kwargs)
        elif probe.kind == "ticket":
            @functools.wraps(original)
            def wrapper(engine, job, *args, **kwargs):
                with tracer.context(f"ticket:{job.job_id}"):
                    return tracer.call(name, layer, original, engine, job, *args, **kwargs)
        elif probe.kind == "map":
            @functools.wraps(original)
            def wrapper(executor, fn, items):
                return tracer._map(name, layer, original, executor, fn, items)
        elif probe.kind == "dequeue":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                ticket = original(*args, **kwargs)
                tracer.set_trace(
                    None if ticket is None else f"ticket:{ticket.job.job_id}"
                )
                return ticket
        else:
            raise ValueError(f"unknown probe kind {probe.kind!r}")
        return wrapper

    def _map(self, name, layer, original, executor, fn, items):
        work = list(items)
        trace = self.current_trace()
        busy = [0.0]
        busy_lock = threading.Lock()

        def item(value):
            previous = self.set_trace(trace)
            started = self.clock()
            try:
                return fn(value)
            finally:
                elapsed = self.clock() - started
                self.set_trace(previous)
                with busy_lock:
                    busy[0] += elapsed

        started = self.clock()
        result = self.call(name, layer, original, executor, item, work)
        wall = self.clock() - started
        with self._lock:
            self.map_items += len(work)
            self.map_busy_s += busy[0]
            self.map_capacity_s += wall * max(1, min(executor.workers, len(work)))
        return result

    def _on_gc(self, phase: str, info: dict) -> None:
        # the collector runs with the interpreter lock held, so a pause
        # never overlaps another one
        if phase == "start":
            self._gc_started = self.clock()
        else:
            self.gc_collections[info["generation"]] += 1
            self.gc_pauses_s.append(self.clock() - self._gc_started)

    def install(self, probes=PROBES) -> "LayerTracer":
        for probe in probes:
            owner, attr = _resolve(probe.target)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(probe, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def self_sum_s(self) -> float:
        return sum(self.self_s.values())

    def write_jsonl(self, path) -> int:
        """Write every finished span as one JSON object per line."""
        keys = ("id", "parent", "name", "trace", "thread", "start_s", "end_s", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")
        return len(self.records)
