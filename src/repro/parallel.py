"""Deterministic job-parallel execution backbone.

The paper's daily loop is embarrassingly parallel across jobs: production
runs, recompilations, flights, span probes and the bootstrap corpus are all
independent per-job units of work (§2.5 runs them over hundreds of
thousands of recurring jobs per day).  Every per-job hot path in this
reproduction therefore maps over jobs through one :class:`Executor`.

Three implementations share the contract:

* :class:`SerialExecutor` — a plain in-order loop (the reference schedule);
* :class:`ThreadedExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  fan-out with ``workers`` threads;
* :class:`ProcessExecutor` — a fork-based multi-process fan-out for
  CPU-bound, state-free job functions (true multi-core scale-out past the
  GIL; selected with ``ExecutionConfig(backend="process")``).

The contract that makes parallelism safe to adopt everywhere is
**order-preserving determinism**: :meth:`Executor.map_jobs` returns results
aligned with the input order, and because all per-job randomness flows
through :func:`repro.rng.keyed_rng` (never a shared sequential stream),
pipeline reports are byte-identical at any worker count.  Shared mutable
state on the mapped paths is confined to the compilation service, which is
thread-safe and deduplicates concurrent identical misses
(:mod:`repro.scope.cache`).

Nested fan-out is deliberately avoided: stages call ``map_jobs`` only from
the coordinating thread, so a single bounded pool can never deadlock on
itself.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor as _PoolImpl
from typing import Callable, Iterable, TypeVar

from repro.config import ExecutionConfig

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "build_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: QA hook (:mod:`repro.qa.lockgraph`): callables invoked right before a
#: fan-out actually dispatches to other threads/processes.  A registered
#: lock tracer uses this to flag locks held across ``map_jobs`` — the
#: coordinating thread blocking on workers while holding a lock the
#: workers may need is the classic self-deadlock this codebase's
#: "coordinator-only fan-out" rule exists to prevent.  Empty (zero
#: overhead beyond a truthiness check) unless instrumentation is on.
_MAP_JOBS_WATCHERS: list[Callable[[str], None]] = []


def _notify_map_jobs(backend: str) -> None:
    for watcher in _MAP_JOBS_WATCHERS:
        watcher(backend)


class Executor(ABC):
    """Order-preserving map over independent per-job units of work."""

    #: degree of parallelism this executor offers
    workers: int = 1

    @abstractmethod
    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results align with the input order.

        The first exception raised by ``fn`` propagates to the caller.
        Implementations may evaluate items concurrently, so ``fn`` must not
        depend on evaluation order — per-item randomness has to come from
        ``keyed_rng``, never from a shared sequential stream.
        """

    def map_jobs_traced(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        tracer,
        name: str,
        parent=None,
        attr: Callable[[T], dict] | None = None,
    ) -> list[R]:
        """``map_jobs`` with one child span per item under ``parent``.

        The explicit-propagation boundary: worker threads do not inherit
        the coordinating thread's span stack, so the parent is captured
        here (argument, or the *calling* thread's current span) and
        closed over.  Each item runs inside a ``name`` span parented to
        it; ``attr(item)`` supplies per-item span attributes.  With a
        disabled tracer this is exactly ``map_jobs`` — one check, no
        wrapper closure.
        """
        if not tracer.enabled:
            return self.map_jobs(fn, items)
        if parent is None:
            parent = tracer.current()
            if parent is None:
                # untraced caller: stay invisible rather than minting
                # one orphan root per item
                return self.map_jobs(fn, items)

        def traced(item: T) -> R:
            attrs = attr(item) if attr is not None else {}
            with tracer.span(name, parent=parent, **attrs):
                return fn(item)

        return self.map_jobs(traced, items)

    def map_jobs_propagated(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        tracer,
        parent=None,
    ) -> list[R]:
        """``map_jobs`` that carries the current span to workers without
        creating per-item spans.

        Makes span attachment schedule-independent: inner ``child_span``
        probes (plan compiles, fragment lookups) see the same parent
        whether an item ran inline on the coordinating thread or on a
        pool worker.  No parent, or a disabled tracer, degrades to plain
        ``map_jobs``.
        """
        if not tracer.enabled:
            return self.map_jobs(fn, items)
        if parent is None:
            parent = tracer.current()
            if parent is None:
                return self.map_jobs(fn, items)

        def propagated(item: T) -> R:
            with tracer.attach(parent):
                return fn(item)

        return self.map_jobs(propagated, items)

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """The reference schedule: one item at a time, in order."""

    workers = 1

    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadedExecutor(Executor):
    """Thread-pool fan-out; the pool is created lazily and reused."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"executor needs at least 1 worker, got {workers}")
        self.workers = workers
        self._pool: _PoolImpl | None = None

    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        work = list(items)
        if len(work) <= 1:
            # nothing to overlap: skip the pool round-trip
            return [fn(item) for item in work]
        if _MAP_JOBS_WATCHERS:
            _notify_map_jobs("thread")
        if self._pool is None:
            self._pool = _PoolImpl(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return list(self._pool.map(fn, work))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _run_slice(conn, fn, work: list, offset: int, stride: int) -> None:
    """Worker-process body: evaluate one round-robin slice of ``work``.

    ``fn`` and ``work`` arrive through fork-inherited memory (never
    pickled); only the results travel back through the pipe.
    """
    payload: list[tuple[int, bool, object]] = []
    for index in range(offset, len(work), stride):
        try:
            payload.append((index, True, fn(work[index])))
        except BaseException as exc:  # noqa: BLE001 — re-raised in the parent
            payload.append((index, False, exc))
            break  # mirror the serial contract: stop this slice at the error
    try:
        try:
            conn.send(payload)
        except Exception as exc:  # a result/exception that does not pickle
            conn.send(
                [
                    (index, False, RuntimeError(f"unpicklable worker payload: {exc!r}"))
                    for index, _, _ in payload
                ]
            )
    except Exception:  # the pipe itself is gone; exit code tells the parent
        pass
    finally:
        conn.close()


class ProcessExecutor(Executor):
    """Fork-per-map process fan-out for CPU-bound, state-free functions.

    Each ``map_jobs`` call forks ``workers`` children that inherit ``fn``
    and the items through copy-on-write memory (no pickling of the callable,
    so closures over engines work), evaluate round-robin slices, and ship
    the **results** back through pipes — results must therefore be
    picklable.  Because the children are forked copies, mutations ``fn``
    makes to shared state (plan caches, stats counters, the steering policy)
    die with the child: this backend is for *pure* per-item functions.  The
    daily pipeline's stages share one plan cache across jobs, so they run
    on the thread backend; the process backend serves state-free fan-outs
    such as uncached compile sweeps and per-seed simulations
    (``benchmarks/bench_sharding.py``).

    On platforms without the ``fork`` start method the executor degrades to
    an in-process serial loop (documented, not silent — ``forked`` reports
    which mode a call would use).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"executor needs at least 1 worker, got {workers}")
        self.workers = workers
        self.forked = "fork" in multiprocessing.get_all_start_methods()

    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        work = list(items)
        if len(work) <= 1 or self.workers == 1 or not self.forked:
            return [fn(item) for item in work]
        if _MAP_JOBS_WATCHERS:
            _notify_map_jobs("process")
        ctx = multiprocessing.get_context("fork")
        stride = min(self.workers, len(work))
        children = []
        for offset in range(stride):
            receiver, sender = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_run_slice, args=(sender, fn, work, offset, stride)
            )
            process.start()
            sender.close()  # the parent only reads; the child owns the writer
            children.append((receiver, process))
        slots: list = [None] * len(work)
        done = [False] * len(work)
        failures: list[tuple[int, BaseException]] = []
        dead: list[int] = []
        # drain and join EVERY child before raising anything: a worker that
        # died mid-slice must not leave its siblings as zombies blocked on
        # their pipes
        for receiver, process in children:
            try:
                payload = receiver.recv()
            except Exception:  # child died before sending, or the payload
                payload = []   # failed to unpickle — keep draining siblings
            receiver.close()
            process.join()
            if process.exitcode not in (0, None) and not payload:
                dead.append(process.exitcode)
            for index, ok, value in payload:
                if ok:
                    slots[index] = value
                    done[index] = True
                else:
                    failures.append((index, value))
        if failures:
            # the earliest item's exception propagates, as a serial loop's would
            raise min(failures, key=lambda pair: pair[0])[1]
        if dead:
            raise RuntimeError(
                f"process worker(s) exited with code(s) {dead} before "
                "returning their slices"
            )
        missing = [index for index, ok in enumerate(done) if not ok]
        if missing:
            raise RuntimeError(f"process workers returned no result for items {missing}")
        return slots


def build_executor(
    config: ExecutionConfig | None = None, *, shared_state: bool = False
) -> Executor:
    """The executor for ``config``: serial at ``workers <= 1``, else the
    thread or process implementation selected by ``config.backend``.

    ``shared_state=True`` declares that the mapped closures mutate state
    the caller reads back (the daily pipeline's plan caches and stats
    counters); the process backend is refused there, because forked
    children would warm throwaway copies and silently corrupt the
    accounting.
    """
    config = config or ExecutionConfig()
    if config.workers <= 1:
        return SerialExecutor()
    if config.backend == "thread":
        return ThreadedExecutor(config.workers)
    if config.backend == "process":
        if shared_state:
            raise ValueError(
                "this component requires ExecutionConfig(backend='thread'): its "
                "per-job closures share state (plan caches, stats counters) that "
                "the fork-based process backend cannot mutate. Use the process "
                "backend for state-free fan-outs, or pass an explicit executor."
            )
        return ProcessExecutor(config.workers)
    raise ValueError(
        f"unknown executor backend {config.backend!r} (expected 'thread' or 'process')"
    )
