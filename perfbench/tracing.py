"""Span recorder for the traced benchmark run.

The recorder wraps the public functions at each layer boundary of
``repro`` from the outside: nothing under ``src/`` is edited.  Callers
bind names with ``from ... import``, so a free function is replaced in
every loaded ``repro`` module that holds it, and a method is replaced on
its class.  Spans are kept in memory and written out once, when the
process ends.

A span records its name, start, end, parent span and run id.  A
layer's self time is its spans' duration minus the time covered by their
child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Modules imported before patching, so that lazily imported callers
#: (``from .study.runtable import build_run_table`` inside a function) pick
#: up the wrapper from the defining module.
PRELOAD = (
    "repro.__main__",
    "repro.study.runtable",
    "repro.exec.executor",
    "repro.exec.worker",
    "repro.engine.numpy_engine",
    "repro.service.api.server",
)


def _lanes(args, kwargs, result):
    seeds = args[0] if args else kwargs.get("seeds", ())
    return {"lanes": len(seeds)}


def _plan_attrs(args, kwargs, result):
    return {"accesses": result.n_accesses, "elided": result.n_accesses - result.n_steps}


def _report_attrs(args, kwargs, result):
    report = result.report
    return {"simulated": report.simulated, "cache_hits": report.cache_hits}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _campaigns(args, kwargs, result):
    return {"campaigns": len(result)}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _shards(args, kwargs, result):
    return {"shards": len(result)}


def _shard_lanes(args, kwargs, result):
    return {"lanes": int(args[1]["count"])}


#: (module, attribute path, layer, attribute extractor).  The engine layer
#: is patched separately: its simulator objects are built per trace.
TARGETS = (
    ("repro.study.scenario", "WorkloadSpec.build_trace", "workloads.build", None),
    ("repro.workloads.eembc", "EembcLayoutTraceBuilder.__call__", "workloads.build", None),
    ("repro.cache.fastsim", "CompiledTrace.__init__", "fastsim.compile", None),
    ("repro.engine.plan", "compile_plan", "plan.compile", _plan_attrs),
    ("repro.engine.mapcache", "cached_set_index_matrix", "mapcache.lookup", None),
    ("repro.study.runner", "execute_scenarios", "runner", _report_attrs),
    ("repro.study.store", "ResultStore.save", "store.save", None),
    ("repro.study.store", "ResultStore.load", "store.load", _hit),
    ("repro.study.store", "ResultStore.save_analysis", "store.save_analysis", None),
    ("repro.study.store", "ResultStore.load_analysis", "store.load_analysis", _hit),
    ("repro.pwcet.protocol", "apply_mbpta_batch", "pwcet.batch", _campaigns),
    ("repro.study.runtable", "build_run_table", "runtable.build", _rows),
    ("repro.analysis.report", "render_result", "report.render", None),
    ("repro.analysis.report", "render_rows", "report.render", None),
    ("repro.exec.plan", "plan_shards", "exec.plan", _shards),
    ("repro.exec.worker", "run_worker", "exec.worker", None),
    ("repro.exec.worker", "ShardRunner.execute", "exec.execute", _shard_lanes),
    ("repro.exec.executor", "reassemble_campaign", "exec.reassemble", None),
    ("repro.service.services.jobs", "JobManager.submit", "service.submit", None),
)

_current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Collects spans in memory; one per process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = True
        self.maps: Dict[str, int] = {}
        self.spans: List[Dict[str, object]] = []
        self.skipped: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def wrap(self, function: Callable, layer: str, attrs: Optional[Callable] = None):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            span = {
                "id": next(recorder._ids),
                "parent": _current.get(),
                "name": layer,
                "run_id": recorder.run_id,
            }
            token = _current.set(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                span["error"] = type(error).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                _current.reset(token)
                with recorder._lock:
                    recorder.spans.append(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every target; a target missing from this revision is skipped."""
        for name in PRELOAD:
            importlib.import_module(name)
        for module_name, path, layer, attrs in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attribute = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(original, layer, attrs)
            if owner_name:
                setattr(owner, attribute, wrapped)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                if getattr(loaded, attribute, None) is original:
                    setattr(loaded, attribute, wrapped)
        self._install_engine()

    def _install_engine(self) -> None:
        """Trace ``run_batch`` of every simulator the numpy engine builds.

        In-process campaigns reach the engine through
        ``TraceDrivenCore.run``/``run_batch`` and the exec path through
        ``ShardRunner.execute``; both end in the simulator's ``run_batch``
        (``run`` delegates to it), so this one boundary covers both.
        """
        try:
            from repro.engine import get_engine

            engine_class = type(get_engine("numpy"))
            build = engine_class.simulator
        except (ImportError, ValueError, AttributeError):
            self.skipped.append("numpy engine simulator")
            return
        recorder = self

        @functools.wraps(build)
        def simulator(engine, *args, **kwargs):
            built = build(engine, *args, **kwargs)
            try:
                built.run_batch = recorder.wrap(built.run_batch, "engine", _lanes)
            except AttributeError:  # a simulator with __slots__ stays untraced
                pass
            return built

        engine_class.simulator = simulator

    def stop(self) -> None:
        """End the traced phase: record no more spans, keep the map counters."""
        self.enabled = False
        self.maps = map_cache_counts()

    def dump(self, path: str) -> None:
        if self.enabled:
            self.stop()
        payload = {
            "run_id": self.run_id,
            "skipped": self.skipped,
            "maps": self.maps,
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def map_cache_counts() -> Dict[str, int]:
    """The placement-map cache counters of this process (empty if absent)."""
    try:
        from repro.engine.mapcache import map_cache_stats
    except ImportError:
        return {}
    return dict(map_cache_stats())


# ------------------------------------------------------------ derivation


def layer_totals(spans: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per layer: outermost calls, their total seconds, and self seconds.

    Spans from several processes are keyed by ``(run_id, id)``.  A span
    nested inside a span of its own layer adds to self time but not to the
    call count or total, so recursion is never counted twice.
    """
    by_key = {(span["run_id"], span["id"]): span for span in spans}
    child_time: Dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["run_id"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    totals: Dict[str, Dict[str, float]] = {}
    for key, span in by_key.items():
        duration = span["end"] - span["start"]
        entry = totals.setdefault(
            span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["self_s"] += duration - child_time.get(key, 0.0)
        ancestor = span["parent"]
        nested = False
        while ancestor is not None:
            parent_span = by_key.get((span["run_id"], ancestor))
            if parent_span is None:
                break
            if parent_span["name"] == span["name"]:
                nested = True
                break
            ancestor = parent_span["parent"]
        if not nested:
            entry["calls"] += 1
            entry["s"] += duration
            entry["durations"].append(duration)
    return totals


PER_LAYER_UNITS = {
    "workloads.build_calls": "count",
    "workloads.build_s": "s",
    "fastsim.compile_calls": "count",
    "fastsim.compile_s": "s",
    "plan.compile_calls": "count",
    "plan.compile_s": "s",
    "plan.elided_share": "ratio",
    "mapcache.lookups": "count",
    "mapcache.lookup_s": "s",
    "mapcache.hit_ratio": "ratio",
    "engine.calls": "count",
    "engine.s": "s",
    "engine.lanes": "count",
    "engine.lanes_per_call": "lanes/call",
    "runner.s": "s",
    "runner.self_s": "s",
    "runner.simulated": "count",
    "runner.cache_hits": "count",
    "store.save_calls": "count",
    "store.save_s": "s",
    "store.load_calls": "count",
    "store.load_s": "s",
    "store.analysis_s": "s",
    "store.hit_ratio": "ratio",
    "pwcet.batch_calls": "count",
    "pwcet.campaigns": "count",
    "pwcet.batch_s": "s",
    "runtable.build_s": "s",
    "runtable.rows": "count",
    "report.render_s": "s",
    "exec.shards": "count",
    "exec.lanes_per_shard": "lanes/shard",
    "exec.execute_s": "s",
    "exec.queue_overhead_s": "s",
    "exec.reassemble_s": "s",
    "service.submit_ms": "ms",
    "service.job_s": "s",
    "service.events": "count",
    "trace.overhead_s": "s",
}


def _attr_sum(spans, layer: str, attribute: str) -> float:
    return sum(span.get(attribute, 0) for span in spans if span["name"] == layer)


def per_layer_metrics(
    spans: List[Dict[str, object]], maps: Dict[str, int], client: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced rep."""
    totals = layer_totals(spans)

    def total(layer: str, field: str = "s") -> float:
        return totals.get(layer, {}).get(field, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    accesses = _attr_sum(spans, "plan.compile", "accesses")
    loads = [span for span in spans if span["name"] in ("store.load", "store.load_analysis")]
    map_hits = maps.get("memory_hits", 0) + maps.get("disk_hits", 0)
    submits = totals.get("service.submit", {}).get("durations", [])
    return {
        "workloads.build_calls": total("workloads.build", "calls"),
        "workloads.build_s": total("workloads.build"),
        "fastsim.compile_calls": total("fastsim.compile", "calls"),
        "fastsim.compile_s": total("fastsim.compile"),
        "plan.compile_calls": total("plan.compile", "calls"),
        "plan.compile_s": total("plan.compile"),
        "plan.elided_share": ratio(_attr_sum(spans, "plan.compile", "elided"), accesses),
        "mapcache.lookups": total("mapcache.lookup", "calls"),
        "mapcache.lookup_s": total("mapcache.lookup"),
        "mapcache.hit_ratio": ratio(map_hits, map_hits + maps.get("misses", 0)),
        "engine.calls": total("engine", "calls"),
        "engine.s": total("engine"),
        "engine.lanes": _attr_sum(spans, "engine", "lanes"),
        "engine.lanes_per_call": ratio(
            _attr_sum(spans, "engine", "lanes"), total("engine", "calls")
        ),
        "runner.s": total("runner"),
        "runner.self_s": total("runner", "self_s"),
        "runner.simulated": _attr_sum(spans, "runner", "simulated"),
        "runner.cache_hits": _attr_sum(spans, "runner", "cache_hits"),
        "store.save_calls": total("store.save", "calls"),
        "store.save_s": total("store.save"),
        "store.load_calls": total("store.load", "calls"),
        "store.load_s": total("store.load"),
        "store.analysis_s": total("store.save_analysis") + total("store.load_analysis"),
        "store.hit_ratio": ratio(sum(1 for span in loads if span.get("hit")), len(loads)),
        "pwcet.batch_calls": total("pwcet.batch", "calls"),
        "pwcet.campaigns": _attr_sum(spans, "pwcet.batch", "campaigns"),
        "pwcet.batch_s": total("pwcet.batch"),
        "runtable.build_s": total("runtable.build"),
        "runtable.rows": _attr_sum(spans, "runtable.build", "rows"),
        "report.render_s": total("report.render"),
        "exec.shards": _attr_sum(spans, "exec.plan", "shards"),
        "exec.lanes_per_shard": ratio(
            _attr_sum(spans, "exec.execute", "lanes"), total("exec.execute", "calls")
        ),
        "exec.execute_s": total("exec.execute"),
        "exec.queue_overhead_s": total("exec.worker") - total("exec.execute"),
        "exec.reassemble_s": total("exec.reassemble"),
        "service.submit_ms": 1000.0 * statistics.median(submits) if submits else 0.0,
        "service.job_s": client.get("job_s", 0.0),
        "service.events": client.get("events", 0),
    }
