"""Tests for the simulation drivers and result roll-ups."""

import pytest

from repro.sim.build import POLICY_NAMES, build_hierarchy
from repro.sim.single_core import run_benchmark, run_policy_sweep, run_trace
from repro.workloads.benchmarks import make_trace

LENGTH = 12_000


class TestBuildHierarchy:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_all_policies_build(self, tiny_system, policy):
        hierarchy = build_hierarchy(tiny_system, policy)
        hierarchy.access(0)
        assert hierarchy.counters.demand_accesses == 1

    def test_unknown_policy_rejected(self, tiny_system):
        with pytest.raises(ValueError):
            build_hierarchy(tiny_system, "magic")

    def test_slip_tracks_metadata_energy(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "slip_abp")
        assert hierarchy.l2.track_metadata_energy

    def test_baseline_no_metadata_energy(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "baseline")
        assert not hierarchy.l2.track_metadata_energy

    def test_slip_runtime_wired(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "slip")
        assert hierarchy.runtime.slip_enabled
        assert not hierarchy.runtime.allow_abp

    def test_slip_abp_allows_bypass(self, tiny_system):
        hierarchy = build_hierarchy(tiny_system, "slip_abp")
        assert hierarchy.runtime.allow_abp


class TestRunTrace:
    def test_result_fields_populated(self, tiny_system):
        trace = make_trace("soplex", LENGTH)
        result = run_trace(trace, "baseline", config=tiny_system)
        assert result.policy == "baseline"
        assert result.benchmark == "soplex"
        assert result.l2.accesses > 0
        assert result.dram.reads > 0
        assert result.timing.exec_cycles > 0

    def test_warmup_excluded_from_stats(self, tiny_system):
        trace = make_trace("soplex", LENGTH)
        full = run_trace(trace, "baseline", config=tiny_system,
                         warmup_fraction=0.0)
        warmed = run_trace(trace, "baseline", config=tiny_system,
                           warmup_fraction=0.5)
        assert warmed.counters.demand_accesses < (
            full.counters.demand_accesses
        )

    def test_deterministic(self, tiny_system):
        trace = make_trace("soplex", LENGTH)
        a = run_trace(trace, "slip_abp", config=tiny_system, seed=1)
        b = run_trace(trace, "slip_abp", config=tiny_system, seed=1)
        assert a.level_energy_pj("L2") == b.level_energy_pj("L2")
        assert a.dram.accesses == b.dram.accesses

    def test_eou_energy_reported_for_slip(self, tiny_system):
        trace = make_trace("soplex", LENGTH)
        result = run_trace(trace, "slip_abp", config=tiny_system)
        assert "L2" in result.eou_energy_pj

    def test_run_benchmark_wrapper(self, tiny_system):
        result = run_benchmark("lbm", "baseline", length=5000,
                               config=tiny_system)
        assert result.benchmark == "lbm"


class TestPolicyComparisons:
    """The paper's ordering on the scaled-down system."""

    @pytest.fixture(scope="class")
    def sweep(self):
        # Paper-scale config: orderings are the point of this class.
        return run_policy_sweep(
            "soplex",
            ["baseline", "nurapid", "lru_pea", "slip_abp"],
            length=100_000,
        )

    def test_nurapid_increases_energy(self, sweep):
        base = sweep["baseline"]
        assert sweep["nurapid"].energy_savings_over(base, "L2") < -0.2
        assert sweep["nurapid"].energy_savings_over(base, "L3") < -0.2

    def test_lru_pea_increases_energy(self, sweep):
        base = sweep["baseline"]
        assert sweep["lru_pea"].energy_savings_over(base, "L2") < -0.1

    def test_slip_abp_saves_energy(self, sweep):
        base = sweep["baseline"]
        assert sweep["slip_abp"].energy_savings_over(base, "L2") > 0.0
        assert sweep["slip_abp"].energy_savings_over(base, "L3") > -0.05

    def test_nuca_policies_move_lines(self, sweep):
        assert sweep["nurapid"].l2.movements > 0
        assert sweep["lru_pea"].l2.movements > 0

    def test_slip_shifts_hits_to_sublevel0(self, sweep):
        base_frac = sweep["baseline"].l2.sublevel_access_fractions()[0]
        slip_frac = sweep["slip_abp"].l2.sublevel_access_fractions()[0]
        assert slip_frac > base_frac

    def test_nuca_promotions_concentrate_sublevel0(self, sweep):
        base_frac = sweep["baseline"].l2.sublevel_access_fractions()[0]
        nurapid_frac = sweep["nurapid"].l2.sublevel_access_fractions()[0]
        assert nurapid_frac > base_frac

    def test_slip_abp_bypasses(self, sweep):
        assert sweep["slip_abp"].l2.bypasses > 0

    def test_speedups_within_few_percent(self, sweep):
        base = sweep["baseline"]
        for name in ("nurapid", "lru_pea", "slip_abp"):
            assert abs(sweep[name].speedup_over(base)) < 0.08, name


class TestResultMethods:
    @pytest.fixture(scope="class")
    def pair(self):
        sweep = run_policy_sweep("sphinx3", ["baseline", "slip_abp"],
                                 length=30_000)
        return sweep["baseline"], sweep["slip_abp"]

    def test_full_system_energy_includes_core(self, pair):
        base, _ = pair
        cache_total = sum(
            base.level_energy_pj(lvl) for lvl in ("L1", "L2", "L3")
        )
        assert base.full_system_energy_pj() > cache_total

    def test_full_system_savings_small_positive_shape(self, pair):
        base, slip = pair
        saving = slip.full_system_savings_over(base)
        assert -0.05 < saving < 0.2

    def test_relative_misses_near_one(self, pair):
        base, slip = pair
        assert 0.5 < slip.relative_misses(base, "L2") < 1.5

    def test_miss_traffic_keys(self, pair):
        base, _ = pair
        traffic = base.miss_traffic("L2")
        assert set(traffic) == {"demand", "metadata"}

    def test_self_comparison_is_zero(self, pair):
        base, _ = pair
        assert base.energy_savings_over(base, "L2") == 0.0
        assert base.speedup_over(base) == 0.0
        assert base.relative_dram_traffic(base) == 1.0


class TestWarmupFractionBoundary:
    """Every entry point rejects a warmup fraction outside [0, 1] with
    the same ``ValueError``, whichever path (kernel or scalar walk)
    would have run the cell."""

    BAD = (-0.5, 1.5, float("nan"), "0.25")

    @staticmethod
    def _entry_points():
        from repro.experiments.parallel import MixRequest, RunRequest
        from repro.sim.filtered import run_trace_filtered
        from repro.sim.multi_core import run_mix, run_mix_traces
        from repro.workloads.capture_store import MemoryCaptureStore
        from repro.workloads.mixes import make_mix_traces

        trace = make_trace("soplex", 2_000)
        mix = ("mcf", "lbm")
        traces = make_mix_traces(mix, 1_000, 0)
        return {
            "run_trace": lambda w: run_trace(trace, "slip",
                                             warmup_fraction=w),
            "run_trace_filtered": lambda w: run_trace_filtered(
                trace, "slip", warmup_fraction=w,
                store=MemoryCaptureStore()),
            "run_mix": lambda w: run_mix(mix, "slip", 1_000,
                                         warmup_fraction=w),
            "run_mix_traces": lambda w: run_mix_traces(
                traces, mix, "slip", make_default_system(),
                warmup_fraction=w),
            "RunRequest": lambda w: RunRequest("soplex", "slip", 2_000,
                                               warmup_fraction=w),
            "MixRequest": lambda w: MixRequest(mix, "slip", 1_000,
                                               warmup_fraction=w),
        }

    @pytest.mark.parametrize("scalar", (False, True),
                             ids=("kernel", "scalar"))
    def test_every_path_raises_the_same_error(self, scalar, monkeypatch):
        if scalar:
            monkeypatch.setenv("REPRO_FILTERED", "0")
        for name, call in self._entry_points().items():
            for bad in self.BAD:
                with pytest.raises(ValueError,
                                   match=r"warmup_fraction must be in"):
                    call(bad)

    @pytest.mark.parametrize("fraction", (0.0, 1.0))
    def test_closed_interval_ends_accepted(self, fraction):
        result = run_trace(make_trace("soplex", 2_000), "slip",
                           warmup_fraction=fraction)
        assert (result.counters.demand_accesses
                == 2_000 - int(2_000 * fraction))


def make_default_system():
    from repro.sim.config import default_system

    return default_system()
