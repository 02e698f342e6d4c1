"""Fast self-test of the benchmark's own arithmetic and gates.

    python3 perfbench/selftest.py

Covers the self-time arithmetic of the layer tracer, the percentile
sample-count rule, and the correctness gate on tiny workloads (a
perturbed golden must fail it).  Runs in a few seconds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
import threading
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from stats import InsufficientSamples, min_samples, percentile  # noqa: E402
from workloads import GateError, run_phase  # noqa: E402

TINY_BATCH = {
    "mode": "batch",
    "templates": 10,
    "manual_hint_fraction": 0.0,
    "shared_subtree_fraction": 0.5,
    "shared_subtree_pool": 2,
    "executor_workers": 1,
    "horizon_days": 2,
}
TINY_SERVE = dict(
    TINY_BATCH,
    mode="serve",
    executor_workers=2,
    horizon_days=1,
    shards=2,
    workers_per_shard=1,
    queue_capacity=64,
    replays=2,
    rate_per_s=400,
    ticket_timeout_s=10.0,
    obs=True,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_book_self_time_to_their_layer(self):
        clock = FakeClock()
        tracer = LayerTracer(clock)

        def leaf():
            clock.advance(2.0)

        def middle():
            clock.advance(1.0)
            tracer.call("leaf", "inner", leaf)
            tracer.call("leaf", "inner", leaf)
            clock.advance(0.5)

        def outer():
            clock.advance(3.0)
            tracer.call("middle", "mid", middle)

        tracer.call("outer", "top", outer)
        clock.advance(0.25)  # uncovered
        self.assertEqual(tracer.self_s, {"inner": 4.0, "mid": 1.5, "top": 3.0})
        self.assertEqual(tracer.inclusive_s["middle"], 5.5)
        self.assertEqual(tracer.calls["leaf"], 2)
        covered = tracer.covered_s[threading.current_thread().name]
        self.assertEqual(covered, 8.5)
        self.assertEqual(tracer.self_sum_s(), covered)
        self.assertEqual(clock.now - covered, 0.25)

    def test_threads_keep_separate_stacks_and_trace_ids(self):
        tracer = LayerTracer()
        seen = {}

        def work(name):
            with tracer.context(f"ticket:{name}"):
                tracer.call("work", "layer", lambda: seen.setdefault(
                    name, tracer.current_trace()))

        threads = [threading.Thread(target=work, args=(str(i),)) for i in range(4)]
        with tracer.context("day:0"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            self.assertEqual(tracer.current_trace(), "day:0")
        self.assertFalse(any(thread.is_alive() for thread in threads))
        self.assertEqual(seen, {str(i): f"ticket:{i}" for i in range(4)})
        self.assertEqual(tracer.calls["work"], 4)
        # every span was outermost on its own thread
        self.assertEqual(len(tracer.covered_s), 4)
        self.assertEqual(sorted(r[3] for r in tracer.records), [f"ticket:{i}" for i in range(4)])

    def test_install_wraps_and_uninstall_restores(self):
        from repro.scope.engine import ScopeEngine

        original = ScopeEngine.__dict__["execute"]
        tracer = LayerTracer().install()
        try:
            self.assertIsNot(ScopeEngine.__dict__["execute"], original)
        finally:
            tracer.uninstall()
        self.assertIs(ScopeEngine.__dict__["execute"], original)


class PercentileRuleTest(unittest.TestCase):
    def test_sample_counts(self):
        self.assertEqual(min_samples(0.5), 20)
        self.assertEqual(min_samples(0.99), 1000)

    def test_refuses_percentiles_with_few_samples_beyond(self):
        with self.assertRaises(InsufficientSamples):
            percentile(range(19), 0.5)
        with self.assertRaises(InsufficientSamples):
            percentile(range(999), 0.99)

    def test_nearest_rank_leaves_ten_beyond(self):
        values = list(range(1, 1001))
        p99 = percentile(reversed(values), 0.99)
        self.assertEqual((p99.value, p99.samples), (990, 1000))
        self.assertEqual(sum(v > p99.value for v in values), 10)
        self.assertEqual(percentile(range(1, 21), 0.5).value, 10)


class SpecTest(unittest.TestCase):
    def test_spec_matches_benchmark_json(self):
        benchmark = run._load(BENCH.parent / "BENCHMARK.json")
        spec = run._load(BENCH / "spec.json")
        self.assertEqual(
            [w["name"] for w in benchmark["workloads"]], list(spec["workloads"])
        )
        mapped = [name for entry in spec["layer_map"] for name in entry["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in benchmark["per_layer"]))
        end_to_end = {m["name"] for m in benchmark["end_to_end"]}
        end_to_end |= set(spec["ungated_end_to_end"])
        for entry in spec["layer_map"]:
            self.assertLessEqual(set(entry["moves"]), end_to_end)


class GateTest(unittest.TestCase):
    def setUp(self):
        root = BENCH.parent / ".perfbench"
        root.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=root))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _phase(self, spec, **kwargs):
        return run_phase(spec, 3, seconds=float("inf"), min_tickets=0, workdir=self.workdir, **kwargs)

    def test_perturbed_golden_fails_the_gate(self):
        phase = self._phase(TINY_BATCH)
        goldens = {"tiny": {"days": run.golden_days(phase, serial=True)}}
        self.assertIn("matched on 2 days", run.check_goldens(goldens, "tiny", 3, 3, phase, True))
        self.assertIn("skipped", run.check_goldens({}, "tiny", 4, 3, phase, True))
        for key in ("fingerprint", "core", "work"):
            perturbed = {"tiny": {"days": run.golden_days(phase, serial=True)}}
            day = perturbed["tiny"]["days"][-1]
            day[key] = "0" * 32 if key == "fingerprint" else (
                [v + 1 for v in day[key]] if key == "core"
                else {k: v + 1 for k, v in day[key].items()}
            )
            with self.subTest(key=key), self.assertRaises(GateError):
                run.check_goldens(perturbed, "tiny", 3, 3, phase, True)
        with self.assertRaises(GateError):
            run.check_goldens({}, "tiny", 3, 3, phase, True)

    def test_serial_rerun_repeats_counters_exactly(self):
        first = self._phase(TINY_BATCH)
        tracer = LayerTracer().install()
        try:
            second = self._phase(TINY_BATCH, days=[d.day for d in first.days], tracer=tracer)
        finally:
            tracer.uninstall()
        run.check_phases_agree(first, second, serial=True)
        self.assertEqual(run.schedule_spread(first, second), 0.0)
        covered = tracer.covered_s["MainThread"]
        self.assertAlmostEqual(tracer.self_sum_s(), covered, places=9)
        self.assertLessEqual(covered, second.wall_s)
        diverged = dataclasses.replace(second, days=list(second.days))
        diverged.days[0] = dataclasses.replace(second.days[0], fingerprint="0" * 32)
        with self.assertRaises(GateError):
            run.check_phases_agree(first, diverged, serial=True)

    def test_batch_ticket_time_is_its_threads_cpu_time(self):
        phase = self._phase(TINY_BATCH)
        for day in phase.days:
            self.assertEqual(len(day.latencies_s), day.tickets)
            self.assertEqual(len(day.elapsed_s), day.tickets)
            for cpu, wall in zip(day.latencies_s, day.elapsed_s):
                self.assertGreater(cpu, 0.0)
                self.assertLessEqual(cpu, wall + 1e-4)

    def test_serving_tickets_complete_once_and_journal_balances(self):
        phase = self._phase(TINY_SERVE)
        day = phase.days[0]
        self.assertGreater(day.tickets, 0)
        self.assertEqual(day.failed, 0)
        self.assertEqual(len(day.latencies_s), day.tickets)
        self.assertGreater(phase.extra["journal_bytes"], 0)
        self.assertGreater(phase.extra["spans_recorded"], 0)


if __name__ == "__main__":
    unittest.main()
