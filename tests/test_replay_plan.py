"""ReplayPlan precompute and the composed direct pipeline.

Three contracts:

* plans are invisible in results — ``REPRO_REPLAY_PLAN`` on/off (and
  memory vs. disk store, and jobs=1 vs. jobs=2) must all produce
  byte-identical ``RunResult.to_json()`` for every policy;
* plans live in process only — the disk store writes no plan
  directory, and pooled workers that each build their own plans agree
  byte-for-byte with a serial run;
* the composed direct pipeline (``run_trace`` -> ``try_run_direct``)
  equals the scalar walk, and every documented decline falls back.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core.energy_model import LevelEnergyParams
from repro.experiments.parallel import RunRequest, run_jobs
from repro.sim.build import build_hierarchy
from repro.sim.filtered import (
    capture_front_end,
    front_end_fingerprint,
    run_trace_filtered,
    try_run_direct,
)
from repro.sim.replay_plan import (
    PLAN_ARRAY_NAMES,
    build_plan,
    derive_plan_arrays,
    ensure_plan_verified,
    plan_geometry,
    plan_geometry_key,
)
from repro.sim.single_core import run_trace
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import (
    DiskCaptureStore,
    MemoryCaptureStore,
    fingerprint_key,
)

ALL_POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")
LENGTH = 2_500


def canonical(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def plan_dirs(root) -> list:
    found = []
    for dirpath, dirnames, _ in os.walk(root):
        found.extend(os.path.join(dirpath, d) for d in dirnames
                     if d.startswith("plan-") and ".tmp-" not in d)
    return found


# ----------------------------------------------------------------------
# Plan on/off byte-identity
# ----------------------------------------------------------------------
class TestPlanByteIdentity:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("store_kind", ("memory", "disk"))
    def test_plan_on_off_identical(self, policy, store_kind, tmp_path,
                                   monkeypatch, tiny_system):
        trace = make_trace("soplex", LENGTH)

        def run_pair(flag: str) -> str:
            monkeypatch.setenv("REPRO_REPLAY_PLAN", flag)
            store = (MemoryCaptureStore() if store_kind == "memory"
                     else DiskCaptureStore(str(tmp_path / f"s{flag}")))
            first = run_trace_filtered(trace, policy,
                                       config=tiny_system, store=store)
            # Second run replays the stored capture — the plan path.
            second = run_trace_filtered(trace, policy,
                                        config=tiny_system, store=store)
            assert canonical(first) == canonical(second)
            return canonical(second)

        assert run_pair("1") == run_pair("0")

    @pytest.mark.multiproc
    def test_plan_jobs_parity(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
        grid = [
            RunRequest("soplex", policy, length=2_000)
            for policy in ALL_POLICIES
        ]
        serial = run_jobs(grid, jobs=1)
        parallel = run_jobs(grid, jobs=2)
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.result == theirs.result, ours.request.label()
        monkeypatch.setenv("REPRO_REPLAY_PLAN", "0")
        unplanned = run_jobs(grid, jobs=1)
        for ours, theirs in zip(serial.results, unplanned.results):
            assert ours.result == theirs.result, ours.request.label()


# ----------------------------------------------------------------------
# In-process plans with a disk store
# ----------------------------------------------------------------------
class TestDiskStorePlans:
    def test_disk_store_writes_no_plan_dirs(self, tmp_path, tiny_system):
        trace = make_trace("lbm", LENGTH)
        store = DiskCaptureStore(str(tmp_path))
        for policy in ALL_POLICIES:
            run_trace_filtered(trace, policy, config=tiny_system,
                               store=store)
        # The capture entry is on disk; its plan stayed in memory.
        assert os.listdir(tmp_path)
        assert plan_dirs(tmp_path) == []

    @pytest.mark.multiproc
    def test_pooled_workers_match_serial_bytes(self, tmp_path,
                                               monkeypatch):
        # One disk store of captures; each pool worker builds and
        # verifies its own plans.
        monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
        grid = [
            RunRequest("mcf", policy, length=2_000)
            for policy in ALL_POLICIES
        ]
        serial = run_jobs(grid, jobs=1)
        pooled = run_jobs(grid, jobs=2)
        assert plan_dirs(tmp_path) == []
        for ours, theirs in zip(serial.results, pooled.results):
            assert (canonical(ours.result) == canonical(theirs.result)
                    ), ours.request.label()


# ----------------------------------------------------------------------
# Conservation invariant
# ----------------------------------------------------------------------
class TestPlanDerivation:
    def test_plan_arrays_rederive_exactly(self, tiny_system):
        trace = make_trace("soplex", LENGTH)
        capture = capture_front_end(trace, tiny_system)
        geometry = plan_geometry(tiny_system)
        plan = ensure_plan_verified(
            build_plan(capture, trace, geometry), capture, trace)
        assert plan.verified
        rederived = derive_plan_arrays(capture, trace, geometry)
        for name in PLAN_ARRAY_NAMES:
            np.testing.assert_array_equal(
                np.asarray(getattr(plan, name)), rederived[name])

    def test_geometry_key_tracks_back_end(self, tiny_system):
        base = plan_geometry_key(plan_geometry(tiny_system))
        grown = dataclasses.replace(
            tiny_system,
            l2=dataclasses.replace(
                tiny_system.l2,
                size_bytes=tiny_system.l2.size_bytes * 2,
            ),
        )
        assert plan_geometry_key(plan_geometry(grown)) != base


# ----------------------------------------------------------------------
# Composed direct pipeline
# ----------------------------------------------------------------------
class TestDirectPipeline:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_direct_matches_scalar(self, policy, monkeypatch,
                                   tiny_system):
        trace = make_trace("soplex", LENGTH)
        composed = run_trace(trace, policy, config=tiny_system, seed=3)
        monkeypatch.setenv("REPRO_DIRECT_PIPELINE", "0")
        scalar = run_trace(trace, policy, config=tiny_system, seed=3)
        assert canonical(composed) == canonical(scalar)

    def test_direct_runs_leave_the_store_alone(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CAPTURE_DIR", str(tmp_path))
        trace = make_trace("soplex", LENGTH)
        run_trace(trace, "slip_abp")
        assert os.listdir(tmp_path) == []

    def test_direct_plan_cache_reuse_identical(self, tiny_system):
        trace = make_trace("lbm", LENGTH)
        first = run_trace(trace, "slip", config=tiny_system)
        # Second call hits the in-process direct-plan LRU.
        second = run_trace(trace, "slip", config=tiny_system)
        assert canonical(first) == canonical(second)

    def test_scalar_replacement_still_identical(self, monkeypatch,
                                                tiny_system):
        # Frontend-ineligible shape: the pipeline declines and the
        # scalar walk must serve it — identically to pipeline-off.
        trace = make_trace("soplex", LENGTH)
        composed = run_trace(trace, "baseline", config=tiny_system,
                             replacement="random")
        monkeypatch.setenv("REPRO_DIRECT_PIPELINE", "0")
        scalar = run_trace(trace, "baseline", config=tiny_system,
                           replacement="random")
        assert canonical(composed) == canonical(scalar)


class TestDirectDeclines:
    def _declines(self, tiny_system, policy="slip", config=None,
                  **kwargs):
        config = config or tiny_system
        trace = make_trace("soplex", 1_200)
        hierarchy = build_hierarchy(
            config, policy,
            replacement=kwargs.pop("replacement", "lru"),
        )
        result = try_run_direct(hierarchy, trace, policy, config,
                                **kwargs)
        return result, hierarchy

    def test_env_off_declines(self, monkeypatch, tiny_system):
        monkeypatch.setenv("REPRO_DIRECT_PIPELINE", "0")
        result, _ = self._declines(tiny_system)
        assert result is None

    def test_filtered_off_declines(self, monkeypatch, tiny_system):
        monkeypatch.setenv("REPRO_FILTERED", "0")
        result, _ = self._declines(tiny_system)
        assert result is None

    def test_simcheck_declines(self, monkeypatch, tiny_system):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        result, _ = self._declines(tiny_system)
        assert result is None

    def test_energy_overrides_decline(self, tiny_system):
        l3 = tiny_system.l3
        overrides = {
            "L3": LevelEnergyParams(
                sublevel_capacity_lines=tuple(
                    l3.sublevel_capacity_lines(i)
                    for i in range(l3.num_sublevels)
                ),
                sublevel_energy_pj=tuple(
                    e * 0.5 for e in l3.sublevel_energy_pj
                ),
                next_level_energy_pj=tiny_system.dram.energy_pj_per_line,
            )
        }
        result, _ = self._declines(tiny_system,
                                   level_energy_overrides=overrides)
        assert result is None

    def test_rd_block_slip_declines(self, tiny_system):
        config = tiny_system.with_slip(rd_block_lines=4)
        result, _ = self._declines(tiny_system, config=config)
        assert result is None

    def test_replay_ineligible_records_reason(self, tiny_system):
        # L1 is always stock LRU, so a replacement ablation passes the
        # front-end kernel; the *replay* kernel declines and the run is
        # served by the scalar replay walk — still a full result.
        result, hierarchy = self._declines(tiny_system,
                                           policy="baseline",
                                           replacement="random")
        assert result is not None
        assert hierarchy.kernel_declines.frontend is None
        assert hierarchy.kernel_declines.replay == \
            "replacement:RandomReplacement/RandomReplacement"

    def test_frontend_env_off_records_reason(self, monkeypatch,
                                             tiny_system):
        monkeypatch.setenv("REPRO_VECTOR_FRONTEND", "0")
        result, hierarchy = self._declines(tiny_system)
        assert result is None
        assert hierarchy.kernel_declines.frontend == \
            "env:REPRO_VECTOR_FRONTEND"

    def test_accepted_run_clears_the_record(self, tiny_system):
        result, hierarchy = self._declines(tiny_system)
        assert result is not None
        assert hierarchy.kernel_declines.frontend is None
        assert hierarchy.kernel_declines.replay is None


# ----------------------------------------------------------------------
# Plan keying sanity against the front-end fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_and_geometry_compose(tiny_system):
    trace = make_trace("soplex", LENGTH)
    fp = front_end_fingerprint(trace, tiny_system, 0, 0.25)
    key = fingerprint_key(fp)
    geom = plan_geometry_key(plan_geometry(tiny_system))
    assert key and geom and key != geom
