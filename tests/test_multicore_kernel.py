"""Multicore kernel path: byte-identity with the scalar mix walk.

Every mix cell the kernel path (:mod:`repro.sim.vector_mix`) accepts
must serialize byte-for-byte like the round-robin scalar walk
(``REPRO_FILTERED=0``) — all eight Figure 16 mixes under all five
policies, a long mix, several warmup fractions, unequal per-core trace
lengths, randomized private-L2/shared-L3 geometries and worker
fan-out. Everything it cannot represent must decline with a recorded
reason and fall back to the walk with identical bytes.
"""

import json
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check_mix_replay,
)
from repro.experiments.parallel import MixRequest, run_jobs
from repro.policies.baseline import BaselinePlacement
from repro.sim import kernel_report
from repro.sim.config import (
    CacheLevelConfig,
    CoreConfig,
    DramConfig,
    SlipParams,
    SystemConfig,
    default_system,
)
from repro.sim.multi_core import _build_mix, run_mix, run_mix_traces
from repro.sim.vector_mix import event_positions, try_run_mix
from repro.sim.vector_replay_slip import merge_runs
from repro.workloads.benchmarks import make_trace
from repro.workloads.mixes import (
    CORE_ADDRESS_STRIDE,
    MULTICORE_MIXES,
    make_mix_traces,
)

POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_000


def canonical(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


def scalar_and_kernel(monkeypatch, run):
    """``run()`` once through the scalar walk, once through the kernels."""
    monkeypatch.setenv("REPRO_FILTERED", "0")
    scalar = canonical(run())
    monkeypatch.delenv("REPRO_FILTERED")
    return scalar, canonical(run())


def built(config, policy, traces, seed=0, boost=True):
    """Per-core hierarchies as ``run_mix_traces`` builds them."""
    runtimes, shared_l3, hierarchies = _build_mix(config, policy,
                                                  len(traces), seed)
    if boost and policy in ("slip", "slip_abp"):
        for rt in runtimes:
            rt.sampler.nsamp, rt.sampler.nstab = 2, 32
    return hierarchies


# ----------------------------------------------------------------------
# Byte-identity with the scalar walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mix", MULTICORE_MIXES,
                         ids=["+".join(m) for m in MULTICORE_MIXES])
def test_every_mix_and_policy_matches_scalar(mix, monkeypatch):
    for policy in POLICIES:
        scalar, kernel = scalar_and_kernel(
            monkeypatch,
            lambda: run_mix(mix, policy, length_per_core=LENGTH, seed=1))
        assert kernel == scalar, f"{mix}/{policy}"


@pytest.mark.parametrize("policy", POLICIES)
def test_long_mix_matches_scalar(policy, monkeypatch):
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix(("soplex", "mcf"), policy,
                        length_per_core=20_000, seed=3))
    assert kernel == scalar


@pytest.mark.parametrize("fraction", (0.0, 0.3, 0.9))
@pytest.mark.parametrize("policy", ("baseline", "lru_pea", "slip_abp"))
def test_warmup_fractions_match_scalar(fraction, policy, monkeypatch):
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix(("omnetpp", "mcf"), policy, length_per_core=1_500,
                        seed=2, warmup_fraction=fraction))
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
def test_unequal_lengths_truncate_like_the_walk(policy, monkeypatch):
    # The walk stops at the shortest trace; the kernel must truncate
    # the longer one before capturing (or its warmup would differ).
    traces = [
        make_trace("leslie3D", 1_700, seed=4),
        make_trace("gcc", 2_300, seed=5).with_offset(CORE_ADDRESS_STRIDE),
    ]
    config = default_system()
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix_traces(traces, ("leslie3D", "gcc"), policy,
                               config, seed=6))
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
def test_three_cores_match_scalar(policy, monkeypatch):
    names = ("soplex", "mcf", "lbm")
    traces = [make_trace(name, 1_200, seed=core)
              .with_offset(core * CORE_ADDRESS_STRIDE)
              for core, name in enumerate(names)]
    config = default_system()
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix_traces(traces, names, policy, config, seed=2))
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
def test_tiny_system_matches_scalar(policy, tiny_system, monkeypatch):
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix(("soplex", "lbm"), policy, length_per_core=1_200,
                        config=tiny_system, seed=8))
    assert kernel == scalar


def _random_level(rng, name, base_sets, base_lat, base_pj, uniform_ok):
    ways = rng.choice((2, 4, 8))
    sets = rng.choice((base_sets, base_sets * 2))
    nsub = rng.randint(1, min(3, ways))
    cuts = sorted(rng.sample(range(1, ways), nsub - 1)) if nsub > 1 else []
    bounds = [0] + cuts + [ways]
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    if uniform_ok and nsub == 1 and rng.random() < 0.5:
        parts = ()  # exercise the uniform-level path too
    return CacheLevelConfig(
        name=name,
        size_bytes=sets * ways * 64,
        ways=ways,
        latency_cycles=base_lat,
        access_energy_pj=base_pj,
        sublevel_ways=parts,
        sublevel_energy_pj=tuple(
            base_pj * (0.5 + 0.25 * i) for i in range(len(parts))),
        sublevel_latency=tuple(base_lat + i for i in range(len(parts))),
    )


def _random_system(rng, policy) -> SystemConfig:
    # SLIP levels need an explicit sublevel partition.
    uniform_ok = policy not in ("slip", "slip_abp")
    return SystemConfig(
        l1=CacheLevelConfig(name="L1", size_bytes=1024, ways=2,
                            latency_cycles=1, access_energy_pj=1.0),
        l2=_random_level(rng, "L2", 8, 3, 10.0, uniform_ok),
        l3=_random_level(rng, "L3", 32, 8, 40.0, uniform_ok),
        dram=DramConfig(latency_cycles=50, energy_pj_per_bit=2.0),
        slip=SlipParams(),
        core=CoreConfig(),
        tlb_entries=8,
    )


@pytest.mark.parametrize("case_seed", range(10))
def test_random_geometry_property(case_seed, monkeypatch):
    rng = random.Random(9_000 + case_seed)
    policy = POLICIES[case_seed % len(POLICIES)]
    config = _random_system(rng, policy)
    mix = tuple(rng.sample(("soplex", "lbm", "mcf", "gcc", "milc"), 2))
    length = rng.randint(600, 1_800)
    seed = rng.randint(0, 50)
    fraction = rng.choice((0.0, 0.3, 0.5))
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix(mix, policy, length_per_core=length,
                        config=config, seed=seed,
                        warmup_fraction=fraction))
    assert kernel == scalar


def test_jobs_parity():
    requests = [MixRequest(("xalancbmk", "gcc"), policy, 1_000, seed=3)
                for policy in POLICIES]
    serial = run_jobs(requests, jobs=1)
    pooled = run_jobs(requests, jobs=2)
    assert [canonical(j.result) for j in serial.results] == \
        [canonical(j.result) for j in pooled.results]


# ----------------------------------------------------------------------
# The shared-L3 reuse histogram counts each resident line once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ("baseline", "slip_abp"))
def test_shared_l3_histogram_counts_residents_once(policy, monkeypatch):
    # Scalar walk: build and drive the cell by hand so the shared L3's
    # departures and final residents can be counted directly.
    monkeypatch.setenv("REPRO_FILTERED", "0")
    config = default_system()
    traces = make_mix_traces(("soplex", "mcf"), LENGTH, seed=1)
    result = run_mix_traces(traces, ("soplex", "mcf"), policy, config,
                            seed=1)
    stats = result.l3_stats
    departures = sum(stats.reuse_histogram.values())
    runtimes, shared_l3, hierarchies = _build_mix(config, policy, 2, 1)
    if policy == "slip_abp":
        for rt in runtimes:
            rt.sampler.nsamp, rt.sampler.nstab = 2, 32
    from repro.sim.multi_core import _run_mix_scalar
    _run_mix_scalar(hierarchies, shared_l3, traces, 0.3)
    residents = len(shared_l3.resident_lines())
    measured_departures = sum(shared_l3.stats.reuse_histogram.values())
    assert residents > 0
    assert departures == measured_departures + residents


# ----------------------------------------------------------------------
# Merge schedule and captured-event positions
# ----------------------------------------------------------------------
def test_event_positions_follow_the_capture():
    from repro.sim.vector_frontend import capture_front_end_vector

    config = default_system()
    trace = make_trace("soplex", 3_000, seed=1)
    hierarchy = built(config, "baseline", [trace])[0]
    capture = capture_front_end_vector(hierarchy, trace, config, 0.3)
    pos = event_positions(capture)
    assert np.all(np.diff(pos) >= 0)
    # The warmup boundary of the flat stream is the first measured
    # position, exactly as the capture recorded it.
    assert int(np.count_nonzero(pos < capture.warmup)) == \
        capture.event_boundary


def test_merge_runs_is_round_robin_order():
    class Cap:
        def __init__(self, tlb, miss):
            self.tlb_miss_pos = np.asarray(tlb, dtype=np.int64)
            self.l1_miss_pos = np.asarray(miss, dtype=np.int64)

    caps = [Cap([0, 5], [0, 1, 2, 7]), Cap([3], [1, 2, 3, 4])]
    # Groups (pos, core): (0,0) (1,0) (1,1) (2,0) (2,1) (3,1) (4,1)
    # (5,0) (7,0) -> runs alternate cores, stop = last position + 1.
    assert list(merge_runs(caps, 0, 10)) == [
        (0, 2), (1, 2), (0, 3), (1, 5), (0, 8)]
    assert list(merge_runs(caps, 2, 4)) == [(0, 3), (1, 4)]
    assert list(merge_runs(caps[:1], 0, 10)) == [(0, 10)]
    assert list(merge_runs(caps, 8, 8)) == []


def test_mix_conservation_flags_a_dropped_lane():
    good = dict(l2_events=[5, 4], l2_consumed=[5, 4], l3_forwarded=[3, 2],
                l3_consumed=5, dram_reads=[2, 1], dram_writes=[1, 0],
                l3_misses=3, l3_victim_wbs=1)
    check_mix_replay(**good)
    for field, value in (("l2_consumed", [5, 3]), ("l3_consumed", 4),
                         ("dram_writes", [0, 0])):
        with pytest.raises(InvariantViolation,
                           match="mix-replay-conservation"):
            check_mix_replay(**{**good, field: value})


# ----------------------------------------------------------------------
# Decline matrix: every bypass records why and keeps the bytes
# ----------------------------------------------------------------------
def _declined(config, policy, traces):
    hierarchies = built(config, policy, traces)
    assert not try_run_mix(hierarchies, traces, config, 0.3)
    reasons = {h.kernel_declines.mix for h in hierarchies}
    assert len(reasons) == 1, "every core must carry the same record"
    return reasons.pop()


@pytest.mark.parametrize("env,reason", (
    ("REPRO_FILTERED", "env:REPRO_FILTERED"),
    ("REPRO_VECTOR_FRONTEND", "env:REPRO_VECTOR_FRONTEND"),
    ("REPRO_VECTOR_REPLAY", "env:REPRO_VECTOR_REPLAY"),
))
@pytest.mark.parametrize("policy", ("baseline", "slip_abp"))
def test_env_switches_decline(env, reason, policy, monkeypatch):
    config = default_system()
    traces = make_mix_traces(("soplex", "mcf"), 1_000, seed=1)
    monkeypatch.setenv(env, "0")
    assert _declined(config, policy, traces) == reason
    declined = canonical(run_mix_traces(traces, ("soplex", "mcf"), policy,
                                        config, seed=1))
    monkeypatch.delenv(env)
    assert canonical(run_mix_traces(traces, ("soplex", "mcf"), policy,
                                    config, seed=1)) == declined


@pytest.mark.parametrize("policy", ("lru_pea", "slip"))
def test_simcheck_declines(policy, monkeypatch):
    config = default_system()
    traces = make_mix_traces(("soplex", "milc"), 800, seed=2)
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "64")
    assert _declined(config, policy, traces) == "simcheck"
    checked = canonical(run_mix_traces(traces, ("soplex", "milc"), policy,
                                       config, seed=2))
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS")
    assert canonical(run_mix_traces(traces, ("soplex", "milc"), policy,
                                    config, seed=2)) == checked


@pytest.mark.parametrize("policy", ("slip", "slip_abp"))
def test_rd_block_declines(policy, monkeypatch):
    base = default_system()
    config = replace(base, slip=replace(base.slip, rd_block_lines=8))
    traces = make_mix_traces(("lbm", "gcc"), 800, seed=3)
    assert _declined(config, policy, traces) == "rd-block"
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix_traces(traces, ("lbm", "gcc"), policy, config))
    assert kernel == scalar


def test_foreign_placement_declines():
    class CustomPlacement(BaselinePlacement):
        pass

    config = default_system()
    traces = make_mix_traces(("soplex", "mcf"), 800, seed=1)
    hierarchies = built(config, "baseline", traces)
    hierarchies[1].l2_placement.__class__ = CustomPlacement
    assert not try_run_mix(hierarchies, traces, config, 0.3)
    assert hierarchies[0].kernel_declines.mix == \
        "placement:mismatched:CustomPlacement/BaselinePlacement"


@pytest.mark.parametrize("policy", ("slip", "slip_abp"))
def test_unrouted_core_region_declines(policy, monkeypatch):
    # Both cores in core 0's address region: the shared-L3 router sends
    # core 1's pages to core 0's runtime, which the per-core kernel
    # closures cannot reproduce — the walk serves the cell.
    traces = [make_trace("soplex", 900, seed=1),
              make_trace("mcf", 900, seed=2).with_offset(1 << 20)]
    config = default_system()
    assert _declined(config, policy, traces) == "routing:core1"
    scalar, kernel = scalar_and_kernel(
        monkeypatch,
        lambda: run_mix_traces(traces, ("soplex", "mcf"), policy, config))
    assert kernel == scalar


def test_metadata_region_trace_declines():
    # The flat model tells metadata lines from demand lines by the
    # access; a trace reaching the page-table region must not replay.
    from repro.mem.tlb import PTE_TABLE_BASE
    from repro.sim.vector_replay_slip import slip_eligible

    config = default_system()
    trace = make_trace("soplex", 500, seed=1)
    hierarchy = built(config, "slip_abp", [trace])[0]
    assert slip_eligible(hierarchy, l3_runtime=hierarchy.l3_placement
                         .runtime, trace=trace)
    far = trace.with_offset(PTE_TABLE_BASE)
    assert not slip_eligible(hierarchy, l3_runtime=hierarchy.l3_placement
                             .runtime, trace=far)
    assert hierarchy.kernel_declines.replay == "address:metadata-region"


def test_kernel_report_tallies_mixes(monkeypatch):
    kernel_report.reset_kernel_counts()
    try:
        for policy in POLICIES:
            run_mix(("soplex", "mcf"), policy, length_per_core=600)
        monkeypatch.setenv("REPRO_VECTOR_REPLAY", "0")
        run_mix(("soplex", "mcf"), "nurapid", length_per_core=600)
        lines = kernel_report.kernel_report_lines()
    finally:
        kernel_report.reset_kernel_counts()
    mix_line = [line for line in lines if "vector-mix" in line]
    assert mix_line == [
        "[kernel-report] vector-mix: 5 kernel run(s), 1 decline(s) "
        "[env:REPRO_VECTOR_REPLAY=1]"]


def test_default_config_never_declines():
    config = default_system()
    traces = make_mix_traces(("cactusADM", "bzip2"), 600, seed=1)
    for policy in POLICIES:
        hierarchies = built(config, policy, traces)
        assert try_run_mix(hierarchies, traces, config, 0.3)
        assert all(h.kernel_declines.mix is None for h in hierarchies)
