"""The benchmark's four workloads, driven through the simulator's public API.

Every workload builds its inputs from the benchmark seed alone (traces
through :func:`repro.workloads.benchmarks.make_trace`, seeds through
:func:`repro.experiments.parallel.derive_seed`), runs them as *cells* —
one ``RunRequest``/``MixRequest`` through ``run_jobs``, or one
``run_trace`` call — and checks every result outside the timed passes.

Modelled-cache warm-up: the simulated caches start empty in every cell
and warm over the first 25% of each trace (30% of each core's trace for
the two-core mixes); statistics from the warm-up are discarded. At 10k
accesses the 2 MB L3 does not fill during warm-up, so the simulated
outputs (``sim.*`` per-layer metrics) describe a cache still warming,
which is why SLIP's energy saving is near zero or negative here while
the paper reports it on long SimPoint runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments import parallel
from repro.experiments.parallel import MixRequest, RunRequest, derive_seed
from repro.sim import single_core
from repro.sim.config import default_system
from repro.sim.results import RunResult
from repro.workloads import benchmarks, capture_store
from repro.workloads.benchmarks import SPEC_ORDER
from repro.workloads.mixes import MULTICORE_MIXES

POLICIES = ("baseline", "nurapid", "lru_pea", "slip", "slip_abp")

#: Forces the scalar golden walk, as ``scripts/check.sh`` does.
SCALAR_ENV = {"REPRO_FILTERED": "0", "REPRO_DIRECT_PIPELINE": "0"}


@contextmanager
def environment(values: Dict[str, str]) -> Iterator[None]:
    """Set environment variables for the duration of a block."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def canonical(result) -> str:
    """Byte-stable serialization of a cell result, for comparisons."""
    if isinstance(result, RunResult):
        return result.to_json()
    return json.dumps(asdict(result), sort_keys=True, separators=(",", ":"))


def digest(result) -> Optional[bytes]:
    """Fingerprint of a cell result; ``None`` where the cell raised."""
    if result is None:
        return None
    return hashlib.sha256(canonical(result).encode()).digest()


def pool_jobs() -> int:
    """``min(2, nproc)``, counting the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


@dataclass
class Pass:
    """One execution of a workload's cells."""

    elapsed_s: float
    cell_s: List[float]
    #: One entry per cell, ``None`` where the cell raised; ``None`` as a
    #: whole once :meth:`seal` has dropped them.
    results: Optional[List[object]]
    accesses: int
    report: Optional[parallel.SweepReport] = None
    digests: List[Optional[bytes]] = field(default_factory=list)

    def seal(self, keep_results: bool) -> None:
        """Fingerprint every cell and, unless ``keep_results``, drop the
        results, so that memory does not grow with the number of passes
        (``peak_rss_mb`` would otherwise follow the host's speed)."""
        self.digests = [digest(result) for result in self.results]
        if not keep_results:
            self.results = None
            self.report = None


class Workload:
    """Cells, their inputs and their output checks.

    ``cells_per_pass`` fixes the tail percentile (see ``tail_percentile``
    in ``run.py``); ``jobs`` is the untraced worker count.
    """

    name = ""
    jobs = 1

    def __init__(self, seed: int, scratch_dir: str) -> None:
        self.seed = seed
        self.scratch_dir = scratch_dir

    # -- inputs ---------------------------------------------------------
    def setup(self) -> None:
        """Generate the traces (so passes hit the trace cache)."""
        raise NotImplementedError

    @property
    def cells_per_pass(self) -> int:
        raise NotImplementedError

    # -- execution ------------------------------------------------------
    def run_pass(self, jobs: int) -> Pass:
        raise NotImplementedError

    def run_subset(self, indices: Sequence[int], jobs: int,
                   scalar: bool = False) -> List[object]:
        """Re-run some cells outside the timed passes."""
        raise NotImplementedError

    def cross_checks(self) -> List[Tuple[str, List[int], int, bool]]:
        """``(label, cell indices, jobs, scalar)`` re-runs to compare."""
        raise NotImplementedError

    def expected_demand(self, index: int) -> Optional[int]:
        """Measured accesses a single-core cell must report, else None."""
        return None

    def pairs(self) -> List[Tuple[int, int]]:
        """``(baseline cell, slip_abp cell)`` index pairs on one trace."""
        return []

    # -- checks ---------------------------------------------------------
    def check(self, passes: List[Pass]) -> Tuple[int, int]:
        """``(attempted, failed)`` cells over every sealed pass.

        A cell fails when it raised, reports a ``demand_accesses`` other
        than its measured length, differs from the first pass, or
        differs in a cross-check (scalar golden walk, other job count).
        The first pass must have kept its results.
        """
        reference = passes[0].digests
        bad = set()
        for index, result in enumerate(passes[0].results):
            expected = self.expected_demand(index)
            if result is None or (
                    expected is not None
                    and result.counters.demand_accesses != expected):
                bad.add(index)
        for label, indices, jobs, scalar in self.cross_checks():
            try:
                results = self.run_subset(indices, jobs, scalar)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                bad.update(indices)
                continue
            for index, result in zip(indices, results):
                if digest(result) != reference[index]:
                    print(f"{self.name}: cell {index} differs in the "
                          f"{label} check", file=sys.stderr)
                    bad.add(index)
        attempted = failed = 0
        for one in passes:
            for index, fingerprint in enumerate(one.digests):
                attempted += 1
                if (index in bad or fingerprint is None
                        or fingerprint != reference[index]):
                    failed += 1
        return attempted, failed


class SweepWorkload(Workload):
    """A workload whose cells are requests run through ``run_jobs``."""

    requests: List[parallel.Request]

    @property
    def cells_per_pass(self) -> int:
        return len(self.requests)

    @contextmanager
    def store(self) -> Iterator[None]:
        """The capture store a pass (or a cross-check) starts from."""
        yield

    def _run(self, requests: List[parallel.Request],
             jobs: int) -> parallel.SweepReport:
        with self.store():
            return parallel.run_jobs(requests, jobs=jobs)

    def run_pass(self, jobs: int) -> Pass:
        try:
            report = self._run(self.requests, jobs)
        except Exception:
            # A raising cell aborts the whole batch: every cell failed.
            traceback.print_exc(file=sys.stderr)
            n = len(self.requests)
            return Pass(0.0, [], [None] * n, 0)
        return Pass(
            elapsed_s=report.elapsed_seconds,
            cell_s=[job.wall_seconds for job in report.results],
            results=[job.result for job in report.results],
            accesses=report.total_accesses,
            report=report,
        )

    def run_subset(self, indices: Sequence[int], jobs: int,
                   scalar: bool = False) -> List[object]:
        requests = [self.requests[i] for i in indices]
        with environment(SCALAR_ENV if scalar else {}):
            report = self._run(requests, jobs)
        return [job.result for job in report.results]

    def pairs(self) -> List[Tuple[int, int]]:
        index = {}
        for i, request in enumerate(self.requests):
            index[(self._trace_key(request), request.policy)] = i
        return [
            (i, index[(key, "slip_abp")])
            for (key, policy), i in index.items()
            if policy == "baseline" and (key, "slip_abp") in index
        ]

    @staticmethod
    def _trace_key(request) -> Tuple:
        if isinstance(request, MixRequest):
            return (request.mix, request.length_per_core, request.seed,
                    request.config)
        return (request.benchmark, request.length, request.seed,
                request.config)


class SingleCoreSweep(SweepWorkload):
    """Shared single-core bookkeeping: expected measured lengths."""

    def setup(self) -> None:
        self.measured = []
        for request in self.requests:
            n = len(benchmarks.make_trace(request.benchmark, request.length,
                                          request.seed))
            self.measured.append(n - int(n * request.warmup_fraction))

    def expected_demand(self, index: int) -> Optional[int]:
        return self.measured[index]


# ----------------------------------------------------------------------
# fig-sweep
# ----------------------------------------------------------------------
class FigSweep(SingleCoreSweep):
    """14 SPEC analogs x 5 policies at 10k accesses, ``jobs=1``.

    The in-memory capture store is emptied before every pass, as a
    fresh ``slip-experiments`` process finds it.
    """

    name = "fig-sweep"
    length = 10_000

    def __init__(self, seed: int, scratch_dir: str) -> None:
        super().__init__(seed, scratch_dir)
        trace_seed = derive_seed(seed, self.name)
        self.requests = [
            RunRequest(benchmark, policy, self.length, trace_seed)
            for benchmark in SPEC_ORDER for policy in POLICIES
        ]

    @contextmanager
    def store(self) -> Iterator[None]:
        capture_store.reset_default_store()
        yield

    def cross_checks(self):
        rng = random.Random(derive_seed(self.seed, self.name, "check"))
        picked = rng.sample(range(len(SPEC_ORDER)), 2)
        indices = [b * len(POLICIES) + p
                   for b in sorted(picked) for p in range(len(POLICIES))]
        return [("scalar golden", indices, 1, True),
                ("jobs=2", indices, 2, False)]


# ----------------------------------------------------------------------
# cold-direct
# ----------------------------------------------------------------------
class ColdDirect(Workload):
    """40 store-less ``run_trace`` calls, each on its own trace.

    Cell ``i`` runs benchmark ``SPEC_ORDER[i % 14]`` under policy
    ``POLICIES[i % 5]`` on a trace seeded by ``derive_seed(seed, i)``,
    so no capture or replay plan is shared between cells.
    """

    name = "cold-direct"
    cells = 40
    length = 10_000

    def setup(self) -> None:
        self.inputs = []
        for i in range(self.cells):
            trace_seed = derive_seed(self.seed, self.name, i)
            trace = benchmarks.make_trace(SPEC_ORDER[i % len(SPEC_ORDER)],
                                          self.length, trace_seed)
            self.inputs.append((trace, POLICIES[i % len(POLICIES)],
                                trace_seed))

    @property
    def cells_per_pass(self) -> int:
        return self.cells

    def _call(self, index: int):
        trace, policy, trace_seed = self.inputs[index]
        return single_core.run_trace(trace, policy, seed=trace_seed)

    def run_pass(self, jobs: int) -> Pass:
        cell_s, results = [], []
        clock = time.perf_counter
        started = clock()
        for index in range(self.cells):
            begun = clock()
            try:
                result = self._call(index)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            cell_s.append(clock() - begun)
            results.append(result)
        elapsed = clock() - started
        accesses = sum(len(trace) for trace, _, _ in self.inputs)
        return Pass(elapsed, cell_s, results, accesses)

    def run_subset(self, indices, jobs, scalar=False):
        with environment(SCALAR_ENV if scalar else {}):
            return [self._call(index) for index in indices]

    def cross_checks(self):
        # Five consecutive cells cover all five policies.
        rng = random.Random(derive_seed(self.seed, self.name, "check"))
        start = rng.randrange(self.cells - len(POLICIES) + 1)
        return [("scalar golden",
                 list(range(start, start + len(POLICIES))), 1, True)]

    def expected_demand(self, index: int) -> Optional[int]:
        n = len(self.inputs[index][0])
        return n - int(n * 0.25)  # run_trace's default warm-up fraction


# ----------------------------------------------------------------------
# multicore-mix
# ----------------------------------------------------------------------
class MulticoreMix(SweepWorkload):
    """The eight Figure 16 two-core mixes x 5 policies, ``jobs=1``.

    All five policies (not only baseline and slip_abp) so that one pass
    has the 40 cells the tail percentile needs.
    """

    name = "multicore-mix"
    length_per_core = 2_000

    def __init__(self, seed: int, scratch_dir: str) -> None:
        super().__init__(seed, scratch_dir)
        mix_seed = derive_seed(seed, self.name)
        self.requests = [
            MixRequest(mix, policy, self.length_per_core, mix_seed)
            for mix in MULTICORE_MIXES for policy in POLICIES
        ]

    def setup(self) -> None:
        for request in self.requests:
            for core, benchmark in enumerate(request.mix):
                benchmarks.make_trace(benchmark, request.length_per_core,
                                      request.seed + core)

    def cross_checks(self):
        rng = random.Random(derive_seed(self.seed, self.name, "check"))
        picked = sorted(rng.sample(range(len(MULTICORE_MIXES)), 2))
        indices = [m * len(POLICIES) + POLICIES.index(policy)
                   for m in picked for policy in ("baseline", "slip_abp")]
        return [("jobs=2", indices, 2, False)]


# ----------------------------------------------------------------------
# design-search
# ----------------------------------------------------------------------
DESIGN_BENCHMARKS = ("soplex", "mcf", "omnetpp", "lbm")
DESIGN_POLICIES = ("baseline", "slip", "slip_abp")
DESIGN_L1_KB = (16, 32)
DESIGN_L2_L3_KB = ((128, 1024), (256, 2048), (512, 4096))


def design_configs():
    """L1 size x (L2, L3) size grid around the Table 1 system.

    Only the L1 variants change the capture fingerprint
    (``repro.sim.filtered.front_end_fingerprint`` covers L1 and TLB, not
    L2/L3 geometry): L2/L3 variants share a capture and rebuild only
    their replay plans.
    """
    base = default_system()
    return [
        replace(base,
                l1=replace(base.l1, size_bytes=l1_kb * 1024),
                l2=replace(base.l2, size_bytes=l2_kb * 1024),
                l3=replace(base.l3, size_bytes=l3_kb * 1024))
        for l1_kb in DESIGN_L1_KB for l2_kb, l3_kb in DESIGN_L2_L3_KB
    ]


class DesignSearch(SingleCoreSweep):
    """Geometry grid through a fresh on-disk store, on a process pool."""

    name = "design-search"
    length = 10_000

    def __init__(self, seed: int, scratch_dir: str) -> None:
        super().__init__(seed, scratch_dir)
        self.jobs = pool_jobs()
        trace_seed = derive_seed(seed, self.name)
        self.requests = [
            RunRequest(benchmark, policy, self.length, trace_seed,
                       config=config)
            for config in design_configs()
            for benchmark in DESIGN_BENCHMARKS
            for policy in DESIGN_POLICIES
        ]

    def setup(self) -> None:
        super().setup()
        os.makedirs(self.scratch_dir, exist_ok=True)

    @contextmanager
    def store(self) -> Iterator[None]:
        root = tempfile.mkdtemp(prefix="captures-", dir=self.scratch_dir)
        try:
            with environment({capture_store.CAPTURE_DIR_ENV: root}):
                capture_store.reset_default_store()
                yield
        finally:
            capture_store.reset_default_store()
            shutil.rmtree(root, ignore_errors=True)

    def cross_checks(self):
        rng = random.Random(derive_seed(self.seed, self.name, "check"))
        per_config = len(DESIGN_BENCHMARKS) * len(DESIGN_POLICIES)
        indices = []
        # One (benchmark, geometry) group per L1 size, all 3 policies.
        for half in range(len(DESIGN_L1_KB)):
            config = half * len(DESIGN_L2_L3_KB) + rng.randrange(
                len(DESIGN_L2_L3_KB))
            start = (config * per_config
                     + rng.randrange(len(DESIGN_BENCHMARKS))
                     * len(DESIGN_POLICIES))
            indices.extend(range(start, start + len(DESIGN_POLICIES)))
        return [("scalar golden", indices, 1, True),
                ("jobs=1", indices, 1, False)]


WORKLOADS = {
    cls.name: cls for cls in (FigSweep, ColdDirect, MulticoreMix,
                              DesignSearch)
}
