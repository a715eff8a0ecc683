"""Single-core trace-driven simulation driver."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.energy_model import LevelEnergyParams
from ..workloads.benchmarks import make_trace
from ..workloads.trace import Trace
from .build import build_hierarchy, maybe_boost_sampler
from .config import SystemConfig, check_warmup_fraction, default_system
from .results import RunResult, collect_result
from .timing import execution_time


def run_trace(
    trace: Trace,
    policy: str,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    replacement: str = "lru",
    warmup_fraction: float = 0.25,
    warmup_sampling_boost: bool = True,
    level_energy_overrides: Optional[Dict[str, LevelEnergyParams]] = None,
    always_sample: bool = False,
) -> RunResult:
    """Simulate one trace under one policy and collect all statistics.

    The first ``warmup_fraction`` of the trace warms caches, TLB and
    SLIP page metadata with statistics discarded afterwards — the
    analog of the paper's SimPoint warmup before measurement. A
    fraction outside ``[0, 1]`` raises ``ValueError``.

    Eligible runs go through the composed kernel pipeline (batched
    front-end capture -> batched replay, byte-identical by the kernel
    contracts; see :func:`~repro.sim.filtered.try_run_direct`); the
    scalar per-access walk below stays the golden reference and serves
    every shape the pipeline declines.
    """
    check_warmup_fraction(warmup_fraction)
    config = config or default_system()
    hierarchy = build_hierarchy(
        config, policy, seed=seed, replacement=replacement,
        level_energy_overrides=level_energy_overrides,
        always_sample=always_sample,
    )
    # Imported lazily: filtered.py imports this module at load time.
    from .filtered import try_run_direct

    result = try_run_direct(
        hierarchy, trace, policy, config, seed=seed,
        replacement=replacement, warmup_fraction=warmup_fraction,
        warmup_sampling_boost=warmup_sampling_boost,
        level_energy_overrides=level_energy_overrides,
        always_sample=always_sample,
    )
    if result is not None:
        return result
    return _run_trace_scalar(hierarchy, trace, policy, config,
                             warmup_fraction, warmup_sampling_boost)


# slip-audit: twin=replay-plan role=ref
def _run_trace_scalar(
    hierarchy,
    trace: Trace,
    policy: str,
    config: SystemConfig,
    warmup_fraction: float,
    warmup_sampling_boost: bool,
) -> RunResult:
    """The golden-reference scalar walk: one ``access()`` per reference."""
    addresses = trace.addresses.tolist()
    writes = trace.is_write.tolist()
    access = hierarchy.access
    warmup = int(len(addresses) * warmup_fraction)
    maybe_boost_sampler(hierarchy.runtime, warmup_sampling_boost)
    for addr, is_write in zip(addresses[:warmup], writes[:warmup]):
        access(addr, is_write)
    hierarchy.reset_stats()
    for addr, is_write in zip(addresses[warmup:], writes[warmup:]):
        access(addr, is_write)
    hierarchy.finalize()
    measured_instructions = (
        (len(addresses) - warmup) * trace.instructions_per_access
    )
    timing = execution_time(hierarchy, measured_instructions, config.core)
    return collect_result(policy, trace.name, config, hierarchy, timing)


def run_benchmark(
    benchmark: str,
    policy: str,
    length: int = 200_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    replacement: str = "lru",
) -> RunResult:
    """Generate a benchmark analog trace and simulate it."""
    trace = make_trace(benchmark, length, seed)
    return run_trace(trace, policy, config=config, seed=seed,
                     replacement=replacement)


def run_policy_sweep(
    benchmark: str,
    policies: Iterable[str],
    length: int = 200_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, RunResult]:
    """Run several policies over the *same* trace for fair comparison.

    ``jobs > 1`` fans the policies out across worker processes; results
    are identical to the serial run because each worker regenerates the
    trace deterministically through the shared trace cache.
    """
    config = config or default_system()
    policies = list(policies)
    # Imported lazily: the experiments package imports this module.
    from ..experiments.parallel import resolve_jobs, run_policy_grid

    if resolve_jobs(jobs) > 1 and len(policies) > 1:
        results, _ = run_policy_grid(
            [benchmark], policies, length, seed=seed, config=config,
            jobs=jobs,
        )
        return {policy: results[(benchmark, policy)] for policy in policies}
    # Serial path: filtered capture/replay shares the policy-invariant
    # front end across the policies (byte-identical to run_trace).
    from .filtered import run_trace_filtered

    trace = make_trace(benchmark, length, seed)
    return {
        policy: run_trace_filtered(trace, policy, config=config, seed=seed)
        for policy in policies
    }


def run_benchmark_suite(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    length: int = 200_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str], RunResult]:
    """Run a whole (benchmark x policy) grid, optionally in parallel.

    The workhorse behind figure sweeps: every cell is an independent
    simulation, so wall-clock scales down with ``jobs`` while the
    result dict stays byte-identical to a serial run.
    """
    from ..experiments.parallel import run_policy_grid

    results, _ = run_policy_grid(
        benchmarks, policies, length, seed=seed, config=config, jobs=jobs,
    )
    return results
