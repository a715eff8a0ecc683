"""In-memory span recorder that traces the simulator's layers from outside.

The traced run wraps each layer's public functions without touching the
program: :func:`install_layers` replaces *every* binding of a function
across the loaded ``repro`` modules, because callers import by name
(``repro.sim.filtered`` binds ``capture_front_end_vector``,
``replay_capture_vector``, ``build_plan`` ... at import time, so
patching only the defining module would miss those calls). Store
methods are patched on their classes.

Each call records one span: id, name, parent span, cell id, start and
end (``perf_counter_ns``). A span without a parent opens a new cell, so
all spans of one simulated cell share its id. Spans stay in memory and
are written once, by :meth:`SpanRecorder.dump`, when the benchmark ends.
A layer's self time is its span's duration minus the durations of its
direct child spans. Kernel declines are counted from return values
(``None`` from the front-end kernel, ``False`` from the replay kernels).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

OnResult = Callable[["SpanRecorder", object, tuple], None]


class _Open:
    """A span still on the stack."""

    __slots__ = ("sid", "name", "group", "parent", "cell", "start",
                 "child_ns")

    def __init__(self, sid: int, name: str, group: Optional[str],
                 parent: Optional["_Open"], cell: int, start: int) -> None:
        self.sid = sid
        self.name = name
        self.group = group
        self.parent = parent
        self.cell = cell
        self.start = start
        self.child_ns = 0


class SpanRecorder:
    """Spans, per-name call counts/self times and outcome counters."""

    def __init__(self) -> None:
        #: Finished spans: (id, name, parent id, cell id, start ns, end ns).
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[_Open] = []
        self._next_sid = 1
        self._next_cell = 1
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, on_result: Optional[OnResult] = None,
             group: Optional[str] = None):
        """``fn`` recording one span per call.

        A call made directly from a span of the same ``group`` is part
        of that span (a disk store consulting its in-memory memo is one
        store call, not two), so it records nothing.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if group is not None and stack and stack[-1].group == group:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is None:
                cell = self._next_cell
                self._next_cell += 1
            else:
                cell = parent.cell
            span = _Open(self._next_sid, name, group, parent, cell, 0)
            self._next_sid += 1
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span.start
                if parent is not None:
                    parent.child_ns += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - span.child_ns
                self.spans.append((
                    span.sid, name, parent.sid if parent else 0, cell,
                    span.start, end,
                ))
            if on_result is not None:
                on_result(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, fn, name: str,
                       on_result: Optional[OnResult] = None) -> None:
        """Replace every ``repro`` module binding of ``fn``."""
        wrapper = self.wrap(name, fn, on_result)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def patch_method(self, cls, attr: str, name: str,
                     on_result: Optional[OnResult] = None,
                     group: Optional[str] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, on_result, group))
        self._patches.append((cls, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Trace every layer for the duration of the block.

        The wrappers are removed again on exit, so untraced passes (and
        pool workers forked for them) run the program unmodified.
        """
        install_layers(self)
        try:
            yield
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def dump(self, path: str, meta: Dict) -> None:
        """Write every recorded span (plus ``meta``) as one JSON file."""
        fields = ["id", "name", "parent", "cell", "start_ns", "end_ns"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans},
                      handle)


def span_cost_ns(samples: int = 20_000) -> float:
    """Host cost of recording one span: a wrapped no-op minus a bare one."""
    def noop() -> None:
        return None

    traced = SpanRecorder().wrap("noop", noop)
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(samples):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(samples):
        traced()
    wrapped = clock() - start
    return max(0, wrapped - bare) / samples


# ----------------------------------------------------------------------
# Layer targets
# ----------------------------------------------------------------------
def _count_if(counter: str, predicate) -> OnResult:
    def on_result(recorder: SpanRecorder, result, args) -> None:
        if predicate(result):
            recorder.counters[counter] += 1
    return on_result


def _is_none(result) -> bool:
    return result is None


def _is_false(result) -> bool:
    return result is False


def _is_hit(result) -> bool:
    return result is not None


def _count_put_bytes(recorder: SpanRecorder, result, args) -> None:
    # DiskCaptureStore.put / MemoryCaptureStore.put(self, key, capture)
    recorder.counters["capture_store.put.bytes"] += args[2].nbytes()


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every traced layer.

    Span names are ``<layer>.<function>``, layers named after modules.
    """
    from repro.experiments import parallel
    from repro.sim import (build, filtered, multi_core, replay_plan,
                           single_core, vector_frontend, vector_replay,
                           vector_replay_slip)
    from repro.workloads import benchmarks, capture_store

    functions = [
        (parallel.execute_request, "parallel.execute_request", None),
        (benchmarks.make_trace, "make_trace.make_trace", None),
        (vector_frontend.capture_front_end_vector,
         "vector_frontend.capture_front_end_vector",
         _count_if("vector_frontend.declines", _is_none)),
        (replay_plan.build_plan, "replay_plan.build_plan", None),
        (replay_plan.ensure_plan_verified,
         "replay_plan.ensure_plan_verified", None),
        (vector_replay.replay_capture_vector,
         "vector_replay.replay_capture_vector",
         _count_if("vector_replay.declines", _is_false)),
        (vector_replay_slip.replay_capture_vector_slip,
         "vector_replay_slip.replay_capture_vector_slip",
         _count_if("vector_replay_slip.declines", _is_false)),
        (filtered.replay_capture, "filtered.replay_capture", None),
        (filtered.try_run_direct, "filtered.try_run_direct", None),
        (filtered.run_trace_filtered, "filtered.run_trace_filtered", None),
        (build.build_hierarchy, "build.build_hierarchy", None),
        (single_core.run_trace, "single_core.run_trace", None),
        (multi_core.run_mix, "multi_core.run_mix", None),
    ]
    for fn, name, on_result in functions:
        recorder.patch_function(fn, name, on_result)
    for cls in (capture_store.MemoryCaptureStore,
                capture_store.DiskCaptureStore):
        recorder.patch_method(cls, "get", "capture_store.get",
                              _count_if("capture_store.get.hits", _is_hit),
                              group="capture_store")
        recorder.patch_method(cls, "put", "capture_store.put",
                              _count_put_bytes, group="capture_store")
        recorder.patch_method(cls, "get_plan", "capture_store.get_plan",
                              _count_if("capture_store.plan.hits", _is_hit),
                              group="capture_store")
        recorder.patch_method(cls, "put_plan", "capture_store.put_plan",
                              group="capture_store")
