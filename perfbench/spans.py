"""Span recording for the traced runs, from outside the program.

The traced runs wrap the public entry points of each layer (class methods
and module functions) with timers; the program's files are untouched, and
the untraced runs never import this module.

* Serve: ``install_serve_wrappers`` runs inside the traced server process
  (``serve_traced.py``).  A context variable carries one record per HTTP
  request through the connection's task, so every server-side span is
  charged to the request whose ``X-Request-Id`` it served.  The batch flush
  runs in its own task and is charged to no request.
* Simulation: ``install_sim_wrappers`` runs in the benchmark process.  A
  span stack gives each layer its self time (its spans minus the spans of
  other layers nested inside them).

Both report the remainder: the traced end-to-end time that no layer's self
time covers.  ``RECONCILE_BOUND_PCT`` bounds it (see README).
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from common import STACK_NAMES, info, median, metric

#: The largest share (in %) of traced end-to-end time the layer self times
#: may leave uncovered before a traced run fails (README, "Traced runs").
RECONCILE_BOUND_PCT = 15.0

#: name -> unit; every traced run prints all of these (BENCHMARK.json per_layer).
SERVE_LAYER_METRICS = {
    "api.self_ms": "ms", "service.parse_ms": "ms", "priorities.order_ms": "ms",
    "plancache.fingerprint_ms": "ms", "progress.to_bytes_ms": "ms",
    "plancache.hits": "count", "plancache.misses": "count", "plancache.evictions": "count",
    "batching.wait_ms": "ms", "batching.batch_size": "count", "batching.fused": "count",
    "batching.shared_setups": "count",
    "capsearch.search_ms": "ms", "capsearch.probes_per_search": "count",
}
SIM_LAYER_METRICS = {
    "sim.events": "count", "sim.us_per_event": "us",
    **{f"sim.stack_cpu_s.{name}": "s" for name in STACK_NAMES},
    "jobtracker.heartbeats": "count", "jobtracker.heartbeat_ms": "ms",
    "scheduler.select_task_calls": "count", "scheduler.select_task_ms": "ms",
    "scheduler.launches_per_call": "ratio",
    "dsl.ops": "count", "dsl.op_us": "us", "collector.ms": "ms",
    "planner.plans": "count", "planner.ms": "ms", "oozie.ms": "ms",
}
COMMON_LAYER_METRICS = {"trace.overhead_pct": "%", "trace.remainder_pct": "%"}


def _all_layers(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric; layers this workload does not run read 0."""
    units = {**SERVE_LAYER_METRICS, **SIM_LAYER_METRICS, **COMMON_LAYER_METRICS}
    return {name: metric(values.get(name, 0.0), unit) for name, unit in units.items()}


def _reconcile(workload: str, overhead_pct: float, remainder_pct: float,
               rows: List[Tuple[str, float]]) -> bool:
    bound = RECONCILE_BOUND_PCT
    info(f"{workload} traced run reconciliation (share of traced end-to-end time):")
    for name, share in rows:
        info(f"  {name:<28} {share:6.2f}%")
    info(f"  {'remainder (no layer)':<28} {remainder_pct:6.2f}%  (bound {bound:.0f}%)")
    info(f"  tracing overhead vs untraced: {overhead_pct:+.1f}%")
    ok = remainder_pct <= bound
    if not ok:
        info(f"reconciliation FAILED: remainder {remainder_pct:.2f}% > {bound:.0f}%")
    return ok


# -- serve -----------------------------------------------------------------------

_request = contextvars.ContextVar("perfbench_request", default=None)


class ServeRecorder:
    def __init__(self) -> None:
        self.requests: List[Dict[str, Any]] = []
        self.searches: List[Tuple[float, int]] = []

    def dump(self) -> Dict[str, Any]:
        return {"requests": self.requests, "searches": self.searches}


def _sync_span(fn: Callable, key: str) -> Callable:
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ctx = _request.get()
        if ctx is None:
            return fn(*args, **kwargs)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            ctx[key] += perf() - t0

    return wrapper


def _async_span(fn: Callable, key: str, note: Callable[[Dict[str, Any], Any], None]) -> Callable:
    perf = time.perf_counter

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        ctx = _request.get()
        if ctx is None:
            return await fn(*args, **kwargs)
        t0 = perf()
        try:
            result = await fn(*args, **kwargs)
        finally:
            ctx[key] += perf() - t0
        note(ctx, result)
        return result

    return wrapper


def install_serve_wrappers() -> ServeRecorder:
    """Wrap the service's layers; call before the server is built."""
    from repro.core import client as client_mod
    from repro.core import priorities
    from repro.core.plancache import PlanCache
    from repro.core.progress import ProgressPlan
    from repro.serve.api import PlanServer
    from repro.serve.batching import BatchingPlanner
    from repro.serve.service import PlanningService

    recorder = ServeRecorder()
    perf = time.perf_counter

    dispatch = PlanServer._dispatch

    @functools.wraps(dispatch)
    async def traced_dispatch(self, *args, **kwargs):
        ctx = {"parse": 0.0, "plan": 0.0, "order": 0.0, "lookup": 0.0, "fingerprint": 0.0,
               "batcher": 0.0, "to_bytes": 0.0, "rid": None, "outcome": None}
        token = _request.set(ctx)
        try:
            return await dispatch(self, *args, **kwargs)
        finally:
            _request.reset(token)
            if ctx["rid"] is not None:
                recorder.requests.append(ctx)

    flush = BatchingPlanner._flush_after_window

    @functools.wraps(flush)
    async def untagged_flush(self):
        _request.set(None)  # the batch serves several requests: charge none
        return await flush(self)

    def note_plan(ctx, served):
        ctx["rid"] = served.request_id

    def note_batch(ctx, result):
        ctx["outcome"] = result[1]

    find_min_cap = client_mod.find_min_cap

    @functools.wraps(find_min_cap)
    def traced_search(*args, **kwargs):
        t0 = perf()
        result = find_min_cap(*args, **kwargs)
        recorder.searches.append((perf() - t0, result.probes))
        return result

    PlanServer._dispatch = traced_dispatch
    BatchingPlanner._flush_after_window = untagged_flush
    PlanningService.parse_workflow = _sync_span(PlanningService.parse_workflow, "parse")
    PlanningService.plan = _async_span(PlanningService.plan, "plan", note_plan)
    BatchingPlanner.plan = _async_span(BatchingPlanner.plan, "batcher", note_batch)
    PlanCache.lookup = _sync_span(PlanCache.lookup, "lookup")
    PlanCache.fingerprint = staticmethod(_sync_span(PlanCache.fingerprint, "fingerprint"))
    ProgressPlan.to_bytes = _sync_span(ProgressPlan.to_bytes, "to_bytes")
    for name in list(priorities.PRIORITIZERS):
        priorities.PRIORITIZERS[name] = _sync_span(priorities.PRIORITIZERS[name], "order")
    client_mod.find_min_cap = traced_search
    return recorder


def serve_layers(workload: str, results, base: Dict[str, Any], phase: Dict[str, Any],
                 dump: Dict[str, Any]) -> Tuple[Dict[str, Dict[str, Any]], bool]:
    """Join client latencies with server spans by request id."""
    server = {r["rid"]: r for r in dump["requests"]}
    rows = []
    for res in results:
        for latency_ms, rid in zip(res.latencies_ms, res.request_ids):
            rows.append((latency_ms / 1e3, server[rid]))
    n = len(rows)
    total = sum(lat for lat, _ in rows)
    sums: Dict[str, float] = defaultdict(float)
    waits: List[float] = []
    for lat, r in rows:
        inner = r["parse"] + r["plan"] + r["to_bytes"]
        wait = r["batcher"] - r["lookup"] if r["outcome"] != "hit" else 0.0
        if r["outcome"] != "hit":
            waits.append(wait)
        sums["api"] += lat - inner
        sums["parse"] += r["parse"]
        sums["order"] += r["order"]
        sums["fingerprint"] += r["fingerprint"]
        sums["to_bytes"] += r["to_bytes"]
        sums["wait"] += wait
    covered = sum(sums.values())
    remainder_pct = 100.0 * (total - covered) / total
    base_lat = [x for res in base["results"] for x in res.latencies_ms]
    traced_lat = [lat * 1e3 for lat, _ in rows]
    overhead_pct = 100.0 * (median(traced_lat) / median(base_lat) - 1.0)
    shares = [(k, 100.0 * v / total) for k, v in sums.items()]
    ok = _reconcile(workload, overhead_pct, remainder_pct, shares)
    base_rate = sum(len(r.latencies_ms) for r in base["results"]) / base["cpu"]
    traced_rate = n / phase["cpu"]
    info(f"  server requests per CPU-second: untraced {base_rate:.0f}, traced {traced_rate:.0f}")
    cache = phase["stats"]["plan_cache"]
    batch = phase["stats"]["batch"]
    searches = dump["searches"]
    values = {
        "api.self_ms": 1e3 * sums["api"] / n,
        "service.parse_ms": 1e3 * sums["parse"] / n,
        "priorities.order_ms": 1e3 * sums["order"] / n,
        "plancache.fingerprint_ms": 1e3 * sums["fingerprint"] / n,
        "progress.to_bytes_ms": 1e3 * sums["to_bytes"] / n,
        "plancache.hits": cache["hits"],
        "plancache.misses": cache["misses"],
        "plancache.evictions": cache["evictions"],
        "batching.wait_ms": 1e3 * sum(waits) / len(waits) if waits else 0.0,
        "batching.batch_size": batch["batched_requests"] / batch["batches"] if batch["batches"] else 0.0,
        "batching.fused": batch["fused"],
        "batching.shared_setups": batch["shared_setups"],
        "capsearch.search_ms": 1e3 * sum(s for s, _ in searches) / len(searches) if searches else 0.0,
        "capsearch.probes_per_search": sum(p for _, p in searches) / len(searches) if searches else 0.0,
        "trace.overhead_pct": overhead_pct,
        "trace.remainder_pct": remainder_pct,
    }
    return _all_layers(values), ok


# -- simulation ------------------------------------------------------------------


class SimRecorder:
    """Self and total time per span name, from a stack of open spans."""

    def __init__(self) -> None:
        self.stack: List[float] = [0.0]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.launches = 0
        self.run_s = 0.0
        self.runs = 0

    def wrap(self, name: str, fn: Callable, count_result: bool = False) -> Callable:
        perf = time.perf_counter
        stack, self_s, total_s, calls = self.stack, self.self_s, self.total_s, self.calls
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                child = stack.pop()
                stack[-1] += d
                self_s[name] += d - child
                total_s[name] += d
                calls[name] += 1
            if count_result and result is not None:
                recorder.launches += 1
            return result

        return wrapper

    def wrap_planner(self, planner: Callable) -> Callable:
        return self.wrap("planner", planner)

    def add_run(self, seconds: float) -> None:
        self.run_s += seconds
        self.runs += 1

    def layer_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == prefix)


def install_sim_wrappers() -> SimRecorder:
    """Wrap the simulator's layers; affects simulations built afterwards."""
    from repro.cluster.jobtracker import JobTracker
    from repro.core.scheduler import WohaScheduler
    from repro.metrics.collector import MetricsCollector
    from repro.oozie import OozieCoordinator
    from repro.schedulers.base import WorkflowScheduler
    from repro.schedulers.edf import EdfScheduler
    from repro.schedulers.fair import FairScheduler
    from repro.schedulers.fifo import FifoScheduler
    from repro.structures.dsl import DoubleSkipList

    rec = SimRecorder()
    for method, name in (("_heartbeat_tick", "jobtracker.tick"),
                         ("schedule_round", "jobtracker.round"),
                         ("_complete_task", "jobtracker.complete"),
                         ("submit_workflow", "jobtracker.submit"),
                         ("submit_wjob", "jobtracker.submit")):
        setattr(JobTracker, method, rec.wrap(name, getattr(JobTracker, method)))
    hooks = ("on_workflow_submitted", "on_wjob_submitted", "on_job_completed",
             "on_workflow_completed", "on_task_assigned")
    for cls in (WorkflowScheduler, EdfScheduler, FifoScheduler, FairScheduler, WohaScheduler):
        if "select_task" in cls.__dict__:
            cls.select_task = rec.wrap("scheduler.select_task", cls.__dict__["select_task"],
                                       count_result=True)
        for hook in hooks:
            if hook in cls.__dict__:
                setattr(cls, hook, rec.wrap("scheduler.hooks", cls.__dict__[hook]))
    for method in ("insert", "remove", "update_head_ct", "update_priority", "update_ct",
                   "head_by_ct", "head_by_priority"):
        setattr(DoubleSkipList, method, rec.wrap("dsl", getattr(DoubleSkipList, method)))
    for method in ("on_task_launch", "on_task_complete"):
        setattr(MetricsCollector, method, rec.wrap("collector", getattr(MetricsCollector, method)))
    for method in ("submit_workflow", "on_job_completed", "_poll"):
        setattr(OozieCoordinator, method, rec.wrap("oozie", getattr(OozieCoordinator, method)))
    return rec


def sim_layers(plain, traced, rec: SimRecorder) -> Tuple[Dict[str, Dict[str, Any]], bool]:
    plain_ok = [r for r in plain if r.error is None]
    traced_ok = [r for r in traced if r.error is None]
    events = sum(r.events for r in plain_ok)
    per_stack: Dict[str, List[float]] = defaultdict(list)
    for r in plain_ok:
        per_stack[r.op.stack].append(r.cpu_s)
    # Overhead: CPU per event, traced against untraced.
    traced_events = sum(r.events for r in traced_ok)
    us_plain = 1e6 * sum(r.cpu_s for r in plain_ok) / events
    us_traced = 1e6 * sum(r.cpu_s for r in traced_ok) / traced_events
    overhead_pct = 100.0 * (us_traced / us_plain - 1.0)
    total = rec.run_s
    layer_names = ("jobtracker", "scheduler", "dsl", "collector", "planner", "oozie")
    shares = [(name, 100.0 * rec.layer_self(name) / total) for name in layer_names]
    remainder_pct = 100.0 - sum(s for _, s in shares)
    ok = _reconcile("sim-fig8", overhead_pct, remainder_pct, shares)
    runs = max(1, rec.runs)
    calls = rec.calls
    values = {
        "sim.events": events / len(plain_ok),
        "sim.us_per_event": us_plain,
        **{f"sim.stack_cpu_s.{name}": (sum(v) / len(v) if v else 0.0)
           for name, v in ((n, per_stack.get(n, [])) for n in STACK_NAMES)},
        "jobtracker.heartbeats": calls["jobtracker.tick"] / runs,
        "jobtracker.heartbeat_ms": 1e3 * rec.total_s["jobtracker.tick"] / max(1, calls["jobtracker.tick"]),
        "scheduler.select_task_calls": calls["scheduler.select_task"] / runs,
        "scheduler.select_task_ms": 1e3 * rec.total_s["scheduler.select_task"] / max(1, calls["scheduler.select_task"]),
        "scheduler.launches_per_call": rec.launches / max(1, calls["scheduler.select_task"]),
        "dsl.ops": calls["dsl"] / runs,
        "dsl.op_us": 1e6 * rec.total_s["dsl"] / max(1, calls["dsl"]),
        "collector.ms": 1e3 * rec.total_s["collector"] / runs,
        "planner.plans": calls["planner"] / runs,
        "planner.ms": 1e3 * rec.total_s["planner"] / max(1, calls["planner"]),
        "oozie.ms": 1e3 * rec.total_s["oozie"] / runs,
        "trace.overhead_pct": overhead_pct,
        "trace.remainder_pct": remainder_pct,
    }
    return _all_layers(values), ok
