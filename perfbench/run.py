"""End-to-end benchmark of the SLIP simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                  # the listed workloads in turn

Runs one workload (or the two ``BENCHMARK.json`` lists) in this
process against the public API of the package under ``src/``,
repeating measured passes for about ``--seconds``, then checks every
result outside the timed passes.
Prints each metric as ``<workload> <name> <value> <unit>`` and, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (with ``--workload all`` the metric names carry a
``<workload>.`` prefix).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from spans recorded around the simulator's public
functions (see ``spans.py``); per-layer counts and times are per traced
pass. See ``README.md`` beside this file for the workloads, the metrics
and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

#: Set-up time is measured from here: the simulator's imports (numpy
#: included) happen afterwards, when ``workloads`` is first imported.
_STARTED = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: The workloads ``BENCHMARK.json`` lists, which ``all`` runs.
WORKLOAD_NAMES = ("multicore-mix", "design-search")
#: Run only when named: see "Workloads" in README.md.
EXTRA_WORKLOADS = ("fig-sweep", "cold-direct")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("accesses_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("parallel.busy_s", "s"),
    ("parallel.elapsed_s", "s"),
    ("parallel.speedup", "x"),
    ("parallel.pool_overhead_s", "s"),
    ("parallel.execute_request.self_ms", "ms"),
    ("make_trace.calls", "count"),
    ("make_trace.self_ms", "ms"),
    ("make_trace.cache_hit_ratio", "ratio"),
    ("capture_store.get.calls", "count"),
    ("capture_store.get.hit_ratio", "ratio"),
    ("capture_store.get.self_ms", "ms"),
    ("capture_store.put.calls", "count"),
    ("capture_store.put.self_ms", "ms"),
    ("capture_store.put.mb", "MB"),
    ("capture_store.plan_hit_ratio", "ratio"),
    ("capture_store.plan.self_ms", "ms"),
    ("vector_frontend.calls", "count"),
    ("vector_frontend.self_ms", "ms"),
    ("vector_frontend.decline_ratio", "ratio"),
    ("replay_plan.build.calls", "count"),
    ("replay_plan.build.self_ms", "ms"),
    ("replay_plan.verify.self_ms", "ms"),
    ("vector_replay.calls", "count"),
    ("vector_replay.self_ms", "ms"),
    ("vector_replay.decline_ratio", "ratio"),
    ("vector_replay_slip.calls", "count"),
    ("vector_replay_slip.self_ms", "ms"),
    ("vector_replay_slip.decline_ratio", "ratio"),
    ("filtered.replay_capture.self_ms", "ms"),
    ("filtered.try_run_direct.self_ms", "ms"),
    ("filtered.run_trace_filtered.self_ms", "ms"),
    ("build.calls", "count"),
    ("build.self_ms", "ms"),
    ("single_core.self_ms", "ms"),
    ("multi_core.calls", "count"),
    ("multi_core.self_ms", "ms"),
    ("mem.l2.accesses", "count"),
    ("mem.l3.accesses", "count"),
    ("mem.dram.accesses", "count"),
    ("mem.movements", "count"),
    ("core.policy_recomputations", "count"),
    ("mem.host_ns_per_event", "ns"),
    ("sim.energy_savings_pct", "%"),
    ("sim.speedup", "x"),
    ("trace.pass_ms", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.untraced_accesses_per_s", "1/s"),
    ("trace.traced_accesses_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.span_cost_ms", "ms"),
)

#: Tail candidates, highest first; see :func:`tail_percentile`.
TAIL_CANDIDATES = (99, 95, 90, 75)
SETUP_SAMPLES = 5


def tail_percentile(cells_per_pass: int) -> int:
    """The highest candidate leaving at least ten cells of one pass
    beyond it."""
    for pct in TAIL_CANDIDATES:
        if cells_per_pass * (100 - pct) / 100 >= 10:
            return pct
    raise ValueError(f"{cells_per_pass} cells per pass leave fewer than "
                     f"ten beyond p{TAIL_CANDIDATES[-1]}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rate(passes) -> float:
    """Accesses per second over all of ``passes``."""
    return ratio(sum(one.accesses for one in passes),
                 sum(one.elapsed_s for one in passes))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def clean_environment() -> None:
    """Run the program at its defaults, whatever the caller exported."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def setup_probe(workload: str, seed: int) -> None:
    """Set one workload up in this fresh process; print the seconds."""
    import workloads

    wl = workloads.WORKLOADS[workload](seed, os.path.join(OUT_DIR, "tmp"))
    wl.setup()
    print(repr(time.perf_counter() - _STARTED))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time (imports, traces, store) over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def end_to_end_metrics(wl, passes, setup_s: float, rss_mb: float) -> Dict:
    """Means over the passes of a run.

    The host's speed drifts by a third for seconds to minutes at a time,
    so a median or a fastest pass flips between its states, while a mean
    moves only with the share of the run spent slow. A cell's latency is
    its mean over the passes; ``cell_ms_p50`` and ``cell_ms_tail`` are
    percentiles of those per-cell means (one sample per cell, as the
    tail rule assumes). ``accesses_per_s`` is every pass's accesses over
    every pass's time.
    """
    timed = [one for one in passes if one.cell_s]
    cell_ms = [statistics.fmean(times) * 1000.0
               for times in zip(*(one.cell_s for one in timed))]
    tail = tail_percentile(wl.cells_per_pass)
    return {
        "accesses_per_s": rate(passes),
        "cell_ms_p50": statistics.median(cell_ms) if cell_ms else 0.0,
        "cell_ms_tail": (statistics.quantiles(cell_ms, n=100)[tail - 1]
                         if len(cell_ms) > 1 else 0.0),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def simulated_metrics(wl, results) -> Dict:
    """Exact counts and SLIP+ABP-vs-baseline figures of one pass."""
    from repro.sim.results import RunResult

    def accesses(stats) -> int:
        return (stats.demand_hits + stats.demand_misses
                + stats.metadata_hits + stats.metadata_misses)

    l2 = l3 = dram = moves = recomputations = 0
    for result in results:
        if result is None:
            continue
        if isinstance(result, RunResult):
            l2s, l3s, dram_acc = [result.l2], result.l3, result.dram.accesses
            runtime = result.runtime_stats
            recomputations += getattr(runtime, "policy_recomputations", 0)
        else:
            l2s, l3s, dram_acc = (result.l2_stats, result.l3_stats,
                                  result.dram_accesses)
        l2 += sum(accesses(s) for s in l2s)
        l3 += accesses(l3s)
        dram += dram_acc
        moves += sum(s.movements for s in l2s) + l3s.movements
    savings, speedups = [], []
    for base_i, slip_i in wl.pairs():
        base, slip = results[base_i], results[slip_i]
        if base is None or slip is None:
            continue
        if isinstance(base, RunResult):
            both = ("L2", "L3")
            savings.append(1.0 - ratio(
                sum(slip.level_energy_pj(level) for level in both),
                sum(base.level_energy_pj(level) for level in both)))
            # speedup_over is relative (0.01 == +1%); report the ratio.
            speedups.append(1.0 + slip.speedup_over(base))
        else:
            savings.append(slip.savings_over(base, "L2+L3"))
    return {
        "mem.l2.accesses": l2,
        "mem.l3.accesses": l3,
        "mem.dram.accesses": dram,
        "mem.movements": moves,
        "core.policy_recomputations": recomputations,
        "sim.energy_savings_pct": (100.0 * statistics.fmean(savings)
                                   if savings else 0.0),
        "sim.speedup": (math.exp(statistics.fmean(
            math.log(s) for s in speedups)) if speedups else 0.0),
    }


def layer_metrics(wl, recorder, traced, untraced, serial,
                  cache_delta) -> Dict:
    """Per traced pass; ``parallel.*`` from the first untraced pass, and
    host time per event and tracing overhead against the untraced
    ``jobs=1`` passes in ``serial``."""
    from spans import span_cost_ns

    n = len(traced)

    def calls(name: str) -> float:
        return recorder.calls.get(name, 0) / n

    def self_ms(*names: str) -> float:
        return sum(recorder.self_ns.get(name, 0) for name in names) / 1e6 / n

    def count(name: str) -> float:
        return recorder.counters.get(name, 0) / n

    out = {}
    report = next((one.report for one in untraced if one.report), None)
    if report is not None:
        out.update({
            "parallel.busy_s": report.busy_seconds,
            "parallel.elapsed_s": report.elapsed_seconds,
            "parallel.speedup": report.speedup,
            "parallel.pool_overhead_s": (report.elapsed_seconds
                                         - report.busy_seconds / report.jobs),
        })
    else:
        out.update({name: 0.0 for name in (
            "parallel.busy_s", "parallel.elapsed_s", "parallel.speedup",
            "parallel.pool_overhead_s")})
    hits, misses = cache_delta
    frontend = "vector_frontend.capture_front_end_vector"
    replay = "vector_replay.replay_capture_vector"
    replay_slip = "vector_replay_slip.replay_capture_vector_slip"
    out.update({
        "parallel.execute_request.self_ms":
            self_ms("parallel.execute_request"),
        "make_trace.calls": calls("make_trace.make_trace"),
        "make_trace.self_ms": self_ms("make_trace.make_trace"),
        "make_trace.cache_hit_ratio": ratio(hits, hits + misses),
        "capture_store.get.calls": calls("capture_store.get"),
        "capture_store.get.hit_ratio": ratio(
            count("capture_store.get.hits"), calls("capture_store.get")),
        "capture_store.get.self_ms": self_ms("capture_store.get"),
        "capture_store.put.calls": calls("capture_store.put"),
        "capture_store.put.self_ms": self_ms("capture_store.put"),
        "capture_store.put.mb":
            count("capture_store.put.bytes") / (1024.0 * 1024.0),
        "capture_store.plan_hit_ratio": ratio(
            count("capture_store.plan.hits"),
            calls("capture_store.get_plan")),
        "capture_store.plan.self_ms": self_ms(
            "capture_store.get_plan", "capture_store.put_plan"),
        "vector_frontend.calls": calls(frontend),
        "vector_frontend.self_ms": self_ms(frontend),
        "vector_frontend.decline_ratio": ratio(
            count("vector_frontend.declines"), calls(frontend)),
        "replay_plan.build.calls": calls("replay_plan.build_plan"),
        "replay_plan.build.self_ms": self_ms("replay_plan.build_plan"),
        "replay_plan.verify.self_ms":
            self_ms("replay_plan.ensure_plan_verified"),
        "vector_replay.calls": calls(replay),
        "vector_replay.self_ms": self_ms(replay),
        "vector_replay.decline_ratio": ratio(
            count("vector_replay.declines"), calls(replay)),
        "vector_replay_slip.calls": calls(replay_slip),
        "vector_replay_slip.self_ms": self_ms(replay_slip),
        "vector_replay_slip.decline_ratio": ratio(
            count("vector_replay_slip.declines"), calls(replay_slip)),
        "filtered.replay_capture.self_ms":
            self_ms("filtered.replay_capture"),
        "filtered.try_run_direct.self_ms":
            self_ms("filtered.try_run_direct"),
        "filtered.run_trace_filtered.self_ms":
            self_ms("filtered.run_trace_filtered"),
        "build.calls": calls("build.build_hierarchy"),
        "build.self_ms": self_ms("build.build_hierarchy"),
        "single_core.self_ms": self_ms("single_core.run_trace"),
        "multi_core.calls": calls("multi_core.run_mix"),
        "multi_core.self_ms": self_ms("multi_core.run_mix"),
    })
    sim = simulated_metrics(wl, traced[0].results)
    out.update(sim)
    events = (sim["mem.l2.accesses"] + sim["mem.l3.accesses"]
              + sim["mem.movements"])

    serial_s = statistics.fmean(one.elapsed_s for one in serial)
    traced_elapsed = sum(one.elapsed_s for one in traced)
    out.update({
        "mem.host_ns_per_event": ratio(serial_s * 1e9, events),
        "trace.pass_ms": traced_elapsed * 1000.0 / n,
        "trace.attributed_pct": 100.0 * ratio(
            recorder.total_self_ns() / 1e9, traced_elapsed),
        "trace.untraced_accesses_per_s": rate(serial),
        "trace.traced_accesses_per_s": rate(traced),
        "trace.overhead_pct": 100.0 * (1.0 - ratio(rate(traced),
                                                   rate(serial))),
        "trace.spans": len(recorder.spans) / n,
        "trace.span_cost_ms": len(recorder.spans) / n * span_cost_ns() / 1e6,
    })
    return out


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> Tuple[int, int, Dict[str, float]]:
    """Measure one workload; ``(attempted, failed, metrics)``."""
    import workloads
    from repro.workloads import benchmarks
    from spans import SpanRecorder

    wl = workloads.WORKLOADS[name](seed, os.path.join(OUT_DIR, "tmp"))
    wl.setup()
    recorder = SpanRecorder()
    # ``serial`` holds the untraced jobs=1 passes the traced ones are
    # compared with; on jobs=1 workloads those are the measured passes.
    passes, untraced, serial, traced_passes = [], [], [], []
    hits = misses = 0
    # Repeat passes while another round would end nearer to
    # ``seconds`` than stopping now does (at least one round).
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        # Only the first pass (the reference) and the first traced pass
        # (for the simulated counts) keep their results.
        one = wl.run_pass(wl.jobs)
        one.seal(keep_results=not passes)
        passes.append(one)
        untraced.append(one)
        if traced:
            if wl.jobs != 1:
                one = wl.run_pass(1)
                one.seal(keep_results=False)
                passes.append(one)
            serial.append(one)
            # Pool workers never return their spans: trace serially.
            before = benchmarks.trace_cache_info()
            with recorder.recording():
                one = wl.run_pass(1)
            after = benchmarks.trace_cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            one.seal(keep_results=not traced_passes)
            passes.append(one)
            traced_passes.append(one)
        now = time.perf_counter()
        if now - started + (now - begun) / 2 >= seconds:
            break
    rss_mb = peak_rss_mb()
    attempted, failed = wl.check(passes)
    if traced:
        metrics = layer_metrics(wl, recorder, traced_passes, untraced,
                                serial, (hits, misses))
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.dump(
            os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"),
            {"workload": name, "seed": seed,
             "traced_passes": len(traced_passes)},
        )
    else:
        metrics = end_to_end_metrics(wl, passes,
                                     measure_setup(name, seed), rss_mb)
    return attempted, failed, metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    clean_environment()
    if args.setup_probe:
        if args.workload == "all":
            parser.error("--setup-probe needs one --workload")
        setup_probe(args.workload, args.seed)
        return 0

    units = dict(PER_LAYER if args.trace else END_TO_END)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    try:
        for name in names:
            done, bad, values = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace))
            attempted += done
            failed += bad
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, unit in units.items():
                value = values[metric]
                print(f"{name} {metric} {value!r} {unit}")
                metrics[prefix + metric] = {"value": value, "unit": unit}
            print(f"{name} cells {bad} failed of {done} attempted")
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, "tmp"), ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
