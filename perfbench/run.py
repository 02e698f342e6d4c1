"""Run one workload of the steering-loop benchmark and print its metrics.

    python3 perfbench/run.py --workload daily_loop --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload is generated from ``--seed``
(``perfbench/spec.json`` holds each workload's sizes); on the canonical seed each
steady day's ``DayReport.fingerprint()`` and ``CacheStats.core()`` must
match ``perfbench/goldens.json``.  A run that fails a correctness check
prints the reason to stderr and exits 1 without printing a result.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` and
prints, below them, the window time and ticket-latency tail that are too
noisy to gate (``ungated_end_to_end`` in spec.json).
``--trace 1`` runs the same days twice, untraced and then with layer
spans (``perfbench/layers.py``), and prints the per-layer metrics plus
the tracing overhead; spans are written to
``.perfbench/traces/<workload>-seed<seed>.jsonl``.

``--record-goldens`` runs the canonical seed to the workload's horizon
and rewrites its entry in the goldens file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Metrics:
    """Named metric values with units, in the order they were put."""

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def put(self, name: str, value: float, samples: int | None = None) -> None:
        if name not in self.units:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        self.values[name] = float(value)
        if samples is not None:
            self.samples[name] = samples

    def put_percentiles(self, prefix: str, values, scale: float = 1.0, qs=(0.5, 0.9)):
        from stats import percentile

        for q in qs:
            p = percentile(values, q)
            self.put(f"{prefix}.p{round(q * 100)}", p.value * scale, p.samples)

    def render(self) -> list[str]:
        lines = []
        for name, value in self.values.items():
            samples = self.samples.get(name)
            suffix = f"  (n={samples})" if samples is not None else ""
            lines.append(f"  {name:<40} {value:>16.6f} {self.units[name]}{suffix}")
        return lines

    def as_json(self) -> dict:
        missing = set(self.units) - set(self.values)
        if missing:
            raise KeyError(f"metrics not measured: {sorted(missing)}")
        return {
            name: {"value": self.values[name], "unit": self.units[name]}
            for name in self.units
        }


# -- correctness --------------------------------------------------------------


def golden_days(phase, serial: bool) -> list[dict]:
    days = []
    for day in phase.days:
        entry = {"day": day.day, "fingerprint": day.fingerprint, "core": day.core}
        if serial:
            entry["work"] = day.work
        days.append(entry)
    return days


def check_goldens(goldens: dict, workload: str, seed: int, canonical: int, phase, serial) -> str:
    from workloads import GateError

    if seed != canonical:
        return f"golden comparison skipped: seed {seed} is not the canonical seed {canonical}"
    recorded = goldens.get(workload, {}).get("days")
    if not recorded:
        raise GateError(f"no goldens recorded for {workload}")
    got = golden_days(phase, serial)
    if len(got) > len(recorded):
        raise GateError(f"ran {len(got)} days but goldens cover {len(recorded)}")
    for mine, want in zip(got, recorded):
        for key in mine:
            if mine[key] != want.get(key):
                raise GateError(
                    f"day {mine['day']}: {key} {mine[key]!r} != golden {want.get(key)!r}"
                )
    return f"goldens matched on {len(got)} days"


def check_phases_agree(first, second, serial: bool) -> None:
    """The untraced and traced phases ran the same inputs: their decisions
    and ``core()`` counters must agree, and on a serial workload the work
    counters too."""
    from workloads import WORK_COUNTERS, GateError

    for a, b in zip(first.days, second.days):
        if (a.day, a.fingerprint, a.core) != (b.day, b.fingerprint, b.core):
            raise GateError(f"day {a.day}: traced run diverged from the untraced run")
        if serial and a.work != b.work:
            raise GateError(f"day {a.day}: serial work counters differ between runs")
    if len(first.days) != len(second.days):
        raise GateError("traced and untraced runs covered different days")
    if serial and any(
        getattr(first.stats, name) != getattr(second.stats, name) for name in WORK_COUNTERS
    ):
        raise GateError("serial work counters differ between the two runs")


# -- metrics ------------------------------------------------------------------


def _tickets(phase) -> tuple[list[float], list[str], list[float], list[float]]:
    latencies, ids, late, elapsed = [], [], [], []
    for day in phase.days:
        latencies.extend(day.latencies_s)
        ids.extend(day.ticket_ids)
        late.extend(day.late_s)
        elapsed.extend(day.elapsed_s)
    return latencies, ids, late, elapsed


def jobs_per_s(phase) -> float:
    return sum(d.tickets for d in phase.days) / sum(d.wall_s for d in phase.days)


def end_to_end(metrics: Metrics, phase) -> None:
    metrics.put("setup_s", statistics.median(phase.setup_s), len(phase.setup_s))
    metrics.put("jobs_per_s", jobs_per_s(phase), sum(d.tickets for d in phase.days))
    metrics.put_percentiles("ticket_ms", _tickets(phase)[0], 1e3, qs=(0.5,))
    metrics.put("peak_rss_mb", phase.peak_rss_mb)


def ungated_lines(phase) -> list[str]:
    """Window time and ticket latency tail, printed beside the gated
    metrics: their spread across seeds is too wide to gate
    (``ungated_end_to_end`` in spec.json)."""
    from stats import InsufficientSamples, percentile

    latencies = _tickets(phase)[0]
    window = statistics.fmean(d.window_s for d in phase.days)
    lines = [f"{'window_s.mean':<38} {window:>16.6f} s  (n={len(phase.days)})"]
    for q in (0.9, 0.99):
        name = f"ticket_ms.p{round(q * 100)}"
        try:
            p = percentile(latencies, q)
        except InsufficientSamples as exc:
            lines.append(f"{name} not reported: {exc}")
            continue
        lines.append(f"{name:<38} {p.value * 1e3:>16.6f} ms  (n={p.samples})")
    return lines


def schedule_spread(first, second) -> float:
    """Largest relative difference of a work counter between two runs."""
    from workloads import WORK_COUNTERS

    spread = 0.0
    for name in WORK_COUNTERS:
        a, b = getattr(first.stats, name), getattr(second.stats, name)
        if max(a, b):
            spread = max(spread, abs(a - b) / max(a, b))
    return spread


def per_layer(metrics: Metrics, tracer, untraced, traced) -> None:
    from layers import PROBES, STAGES

    calls, self_s = tracer.calls, tracer.self_s
    stats = traced.stats
    for layer in sorted({p.layer for p in PROBES if p.layer}):
        metrics.put(f"{layer}.self_s", self_s.get(layer, 0.0))
    metrics.put("scope.optimizer.calls", calls.get("scope.optimizer.optimize", 0))
    metrics.put("scope.optimizer.rule_applications", stats.rule_applications)
    metrics.put("scope.cache.script_compilations", stats.script_compilations)
    metrics.put("scope.cache.hit_rate", stats.hit_rate, stats.lookups)
    metrics.put("scope.cache.fragment_hit_rate", stats.fragment_hit_rate, stats.fragment_lookups)
    winner_lookups = stats.winner_hits + stats.winner_misses
    metrics.put(
        "scope.cache.winner_hit_rate",
        stats.winner_hits / winner_lookups if winner_lookups else 0.0,
        winner_lookups,
    )
    metrics.put("scope.cache.mqo_preexplored", stats.mqo_preexplored)
    metrics.put("scope.cache.invalidations", stats.invalidations)
    metrics.put("scope.counters.schedule_spread", schedule_spread(untraced, traced))
    metrics.put("scope.runtime.execute.calls", calls.get("scope.runtime.execute", 0))
    metrics.put("core.spans.compute.calls", calls.get("core.spans.compute", 0))
    metrics.put("core.spans.recompilations", traced.extra["span_recompilations"])
    for stage, _ in STAGES:
        metrics.put(
            f"core.pipeline.stage.{stage}.s",
            tracer.inclusive_s.get(f"core.pipeline.stage.{stage}", 0.0),
        )
    metrics.put("policies.rank.calls", calls.get("policies.rank", 0))
    metrics.put("flighting.flight.calls", calls.get("flighting.flight", 0))
    metrics.put("sis.lookup.calls", calls.get("sis.lookup", 0))
    metrics.put("sis.publications", calls.get("sis.upload", 0))
    metrics.put("parallel.map_jobs.calls", calls.get("parallel.map_jobs", 0))
    metrics.put("parallel.map_jobs.items", tracer.map_items)
    metrics.put(
        "parallel.map_jobs.busy_frac",
        tracer.map_busy_s / tracer.map_capacity_s if tracer.map_capacity_s else 0.0,
    )
    latencies, ids, late, elapsed = _tickets(traced)
    steer = [tracer.ticket_steer_s.get(i, 0.0) for i in ids]
    wait = [
        wall - s - tracer.ticket_execute_s.get(i, 0.0)
        for wall, s, i in zip(elapsed, steer, ids)
    ]
    metrics.put_percentiles("serving.steer_ms", steer, 1e3)
    metrics.put_percentiles("serving.queue_wait_ms", wait, 1e3)
    metrics.put("serving.journal.append.calls", calls.get("serving.journal.append", 0))
    metrics.put("serving.journal.bytes", traced.extra.get("journal_bytes", 0))
    metrics.put("obs.spans_recorded", traced.extra.get("spans_recorded", 0))
    metrics.put("obs.bus.dropped", traced.extra.get("bus_dropped", 0))
    metrics.put_percentiles("loadgen.late_ms", late, 1e3, qs=(0.9,))
    metrics.put("loadgen.late_ms.max", max(late) * 1e3, len(late))
    covered = tracer.covered_s.get("MainThread", 0.0)
    metrics.put("python.gc.collections", sum(tracer.gc_collections))
    metrics.put("python.gc.gen2.collections", tracer.gc_collections[2])
    metrics.put("python.gc.pause_s", sum(tracer.gc_pauses_s))
    metrics.put("python.gc.pause_ms.max", max(tracer.gc_pauses_s, default=0.0) * 1e3)
    metrics.put("trace.wall_s", traced.wall_s)
    metrics.put("trace.uncovered_s", traced.wall_s - covered)
    metrics.put("trace.self_sum_s", tracer.self_sum_s())
    metrics.put(
        "trace.overhead.setup_s", statistics.median(traced.setup_s) - statistics.median(untraced.setup_s)
    )
    metrics.put("trace.overhead.jobs_per_s", jobs_per_s(untraced) - jobs_per_s(traced))
    metrics.put(
        "trace.overhead.ticket_ms.p50",
        (statistics.median(latencies) - statistics.median(_tickets(untraced)[0])) * 1e3,
    )


# -- command line -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=BENCH / "goldens.json")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    benchmark = _load(ROOT / "BENCHMARK.json")
    spec_all = _load(BENCH / "spec.json")
    if args.workload not in spec_all["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    spec = spec_all["workloads"][args.workload]
    canonical = spec_all["canonical_seed"]
    serial = spec["executor_workers"] == 1 and spec["mode"] == "batch"
    _import_program()
    from layers import LayerTracer
    from stats import InsufficientSamples
    from workloads import GateError, run_phase

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_goldens:
            phase = run_phase(
                spec, canonical, seconds=float("inf"), min_tickets=0, workdir=workdir
            )
            goldens = _load(args.goldens) if args.goldens.exists() else {}
            goldens[args.workload] = {"seed": canonical, "days": golden_days(phase, serial)}
            with open(args.goldens, "w", encoding="utf-8") as handle:
                json.dump(goldens, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"recorded {len(phase.days)} days of goldens for {args.workload}")
            return 0

        goldens = _load(args.goldens) if args.goldens.exists() else {}
        common = dict(seconds=args.seconds, min_tickets=spec["min_tickets"], workdir=workdir)
        try:
            if args.trace == 0:
                phase = run_phase(spec, args.seed, setups=spec_all["setup_repeats"], **common)
                phases = [phase]
                golden = check_goldens(goldens, args.workload, args.seed, canonical, phase, serial)
                metrics = Metrics({m["name"]: m["unit"] for m in benchmark["end_to_end"]})
                end_to_end(metrics, phase)
            else:
                untraced = run_phase(spec, args.seed, **common)
                tracer = LayerTracer().install()
                try:
                    traced = run_phase(
                        spec, args.seed, days=[d.day for d in untraced.days],
                        tracer=tracer, **common,
                    )
                finally:
                    tracer.uninstall()
                phases = [untraced, traced]
                golden = check_goldens(goldens, args.workload, args.seed, canonical, untraced, serial)
                check_phases_agree(untraced, traced, serial)
                # self times telescope to the outermost spans' durations, so
                # on one thread they add up to the time spans cover; this
                # fails only if a span of the serial workload ran off the
                # main thread
                covered = tracer.covered_s.get("MainThread", 0.0)
                if serial and abs(tracer.self_sum_s() - covered) > 1e-6 * traced.wall_s:
                    raise GateError(
                        f"self times sum to {tracer.self_sum_s():.6f}s but spans "
                        f"cover {covered:.6f}s of the main thread"
                    )
                metrics = Metrics({m["name"]: m["unit"] for m in benchmark["per_layer"]})
                per_layer(metrics, tracer, untraced, traced)
                traces = ROOT / ".perfbench" / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                written = tracer.write_jsonl(traces / f"{args.workload}-seed{args.seed}.jsonl")
        except GateError as exc:
            print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
            return 1
        except InsufficientSamples as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result_json = metrics.as_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if spec["mode"] == "serve":
        attempted = sum(d.tickets + d.failed for p in phases for d in p.days)
        failed = sum(d.failed for p in phases for d in p.days)
        unit = "tickets"
    else:
        attempted = sum(len(p.days) for p in phases)
        failed = 0
        unit = "days"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {golden}")
    print(f"  attempted {attempted} {unit}, failed {failed}, failed_frac {failed / attempted:.6f}")
    last = phases[-1]
    print(
        f"  {len(last.days)} steady days (day {last.days[0].day}..{last.days[-1].day}), "
        f"plan working set: at most {max(d.core[1] for d in last.days)} plans compiled "
        f"in a day, plan cache capacity {last.extra['plan_cache_capacity']} per shard"
    )
    if args.trace:
        exact = "exact (serial)" if serial else (
            "schedule-dependent: see scope.counters.schedule_spread"
        )
        print(f"  fragment, winner and rule-application counters: {exact}")
        print(f"  wrote {written} spans to .perfbench/traces/")
    print("\n".join(metrics.render()))
    if not args.trace:
        print("  not gated:")
        print("\n".join(f"  {line}" for line in ungated_lines(phases[0])))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
