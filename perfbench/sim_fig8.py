"""The sim-fig8 workload: the paper's Fig 8-10 sweep, run in this process.

One operation is one simulation: a scheduler stack (EDF, FIFO, Fair,
WOHA-HLF/MPF/LPF) on a 40-node cluster of 200/240/280 map and as many
reduce slots, fed the Yahoo!-like trace with singletons dropped, at
Hadoop's 3 s heartbeat.  A round is the whole 6 x 3 sweep; every run does
whole rounds, at least ``MET_ROUNDS`` of them.  Round ``r`` runs cluster
size ``s`` on its own trace, generated from seed ``1000 * seed + 3 * r + s``:
at one size every stack sees the same trace, as in the paper, and a run
averages over several traces rather than over one.

Reported: simulations per CPU-second of this process, and as latency the
wall time of one Fig 8 column (the six stacks at one size on one trace);
the median over a run's columns.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, STACK_NAMES, CheckFailed, check, child_env, info, median, metric,
)

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation, SimulationResult
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.model import Workflow
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows

SIZES = (200, 240, 280)
NODES = 40
HEARTBEAT_S = 3.0
SETUP_REPEATS = 3
#: workflows_met sums the deadline-met counts of the first MET_ROUNDS rounds
#: (3 x MET_ROUNDS traces), which every run completes whatever its length.
MET_ROUNDS = 3
_WOHA = {"WOHA-HLF": "hlf", "WOHA-MPF": "mpf", "WOHA-LPF": "lpf"}
_OOZIE = {"EDF": EdfScheduler, "FIFO": FifoScheduler, "Fair": FairScheduler}


def trace_seed(seed: int, round_index: int, size_index: int) -> int:
    return 1000 * seed + 3 * round_index + size_index


def input_seeds(workload: str, seed: int) -> Dict[str, str]:
    """The generator seeds a run's inputs come from."""
    return {"yahoo": f"{trace_seed(seed, 0, 0)} + 3 * round + size_index"}


def trace_for(seed: int, round_index: int, size_index: int) -> List[Workflow]:
    config = YahooTraceConfig(drop_single_job=True, seed=trace_seed(seed, round_index, size_index))
    return generate_yahoo_workflows(config)


def build_simulation(stack: str, size: int, workflows: List[Workflow],
                     wrap_planner: Optional[Callable] = None) -> ClusterSimulation:
    config = ClusterConfig.from_total_slots(size, size, nodes=NODES, heartbeat_interval=HEARTBEAT_S)
    if stack in _WOHA:
        planner = make_planner(_WOHA[stack])
        if wrap_planner is not None:
            planner = wrap_planner(planner)
        sim = ClusterSimulation(config, WohaScheduler(), submission="woha", planner=planner)
    else:
        sim = ClusterSimulation(config, _OOZIE[stack](), submission="oozie")
    sim.add_workflows(workflows)
    return sim


# -- checks --------------------------------------------------------------------


def critical_path(workflow: Workflow) -> float:
    """Longest chain of map-phase + reduce-phase lengths through the DAG."""
    finish: Dict[str, float] = {}
    for name in workflow.topological_order():
        job = workflow.job(name)
        length = (job.map_duration if job.num_maps else 0.0) + (
            job.reduce_duration if job.num_reduces else 0.0)
        start = max((finish[p] for p in job.prerequisites), default=0.0)
        finish[name] = start + length
    return max(finish.values())


def check_simulation(stack: str, workflows: List[Workflow], result: SimulationResult) -> int:
    """Per-simulation checks; returns the recounted deadline-met count."""
    check(len(result.stats) == len(workflows), "not every workflow was submitted")
    expected_tasks = sum(w.total_tasks for w in workflows)
    if stack in _WOHA:
        expected_tasks += sum(len(w.jobs) for w in workflows)  # one submitter task per wjob
    check(result.metrics.tasks_completed == expected_tasks,
          f"{result.metrics.tasks_completed} tasks completed, trace has {expected_tasks}")
    met = 0
    for wf in workflows:
        st = result.stats[wf.name]
        check(st.completion_time != float("inf"), f"{wf.name} never completed")
        span, floor = st.completion_time - wf.submit_time, critical_path(wf)
        check(span >= floor - 1e-6, f"{wf.name} finished in {span}s, under its critical path {floor}s")
        met += st.completion_time <= wf.deadline
    util = result.utilization
    check(0.0 < util <= 1.0 + 1e-9, f"utilization {util} outside (0, 1]")
    simulator_met = len(workflows) - round(result.miss_ratio * len(workflows))
    check(met == simulator_met, f"recounted {met} deadlines met, simulator says {simulator_met}")
    return met


class Op:
    __slots__ = ("round", "stack", "size_index")

    def __init__(self, round_index: int, stack: str, size_index: int) -> None:
        self.round = round_index
        self.stack = stack
        self.size_index = size_index


def round_ops(round_index: int) -> List[Op]:
    return [Op(round_index, stack, s) for s in range(len(SIZES)) for stack in STACK_NAMES]


class Traces:
    """Traces generated on first use (generation is not timed)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._cache: Dict[Tuple[int, int], List[Workflow]] = {}

    def get(self, round_index: int, size_index: int) -> List[Workflow]:
        key = (round_index, size_index)
        if key not in self._cache:
            self._cache = {k: v for k, v in self._cache.items() if k[0] >= round_index}
            self._cache[key] = trace_for(self.seed, round_index, size_index)
        return self._cache[key]


class OpResult:
    __slots__ = ("op", "cpu_s", "wall_s", "events", "met", "error")

    def __init__(self, op: Op) -> None:
        self.op = op
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.events = 0
        self.met = 0
        self.error: Optional[str] = None


def run_op(op: Op, traces: Traces, wrap_planner: Optional[Callable] = None,
           on_run: Optional[Callable[[float], None]] = None) -> OpResult:
    workflows = traces.get(op.round, op.size_index)
    out = OpResult(op)
    cpu, perf = time.process_time, time.perf_counter
    c0, w0 = cpu(), perf()
    try:
        sim = build_simulation(op.stack, SIZES[op.size_index], workflows, wrap_planner)
        r0 = perf()
        result = sim.run()
        if on_run is not None:
            on_run(perf() - r0)
        out.cpu_s, out.wall_s = cpu() - c0, perf() - w0
        out.events = result.events_processed
        out.met = check_simulation(op.stack, workflows, result)
    except CheckFailed as exc:
        out.error = f"{op.stack}@{SIZES[op.size_index]} round {op.round}: {exc}"
    except Exception as exc:  # a simulation that raised is a failed operation
        out.error = f"{op.stack}@{SIZES[op.size_index]} round {op.round} raised {type(exc).__name__}: {exc}"
    return out


def check_shape(results: List[OpResult]) -> None:
    """Fig 8's shape: at every cluster size, WOHA-LPF meets at least as many
    deadlines as FIFO, summed over the run's traces at that size (Fig 8
    plots one miss ratio per size).  A single trace may go the other way;
    those are reported, not failed."""
    met: Dict[Tuple[str, int], int] = defaultdict(int)
    per_trace: Dict[Tuple[str, int, int], int] = {}
    for r in results:
        if r.error is None:
            met[(r.op.stack, r.op.size_index)] += r.met
            per_trace[(r.op.stack, r.op.round, r.op.size_index)] = r.met
    for (stack, rnd, s), lpf in sorted(per_trace.items()):
        fifo = per_trace.get(("FIFO", rnd, s))
        if stack == "WOHA-LPF" and fifo is not None and lpf < fifo:
            info(f"note: round {rnd} at {SIZES[s]} slots: WOHA-LPF met {lpf} < FIFO {fifo}")
    for s, size in enumerate(SIZES):
        check(met[("WOHA-LPF", s)] >= met[("FIFO", s)],
              f"WOHA-LPF met {met[('WOHA-LPF', s)]} < FIFO {met[('FIFO', s)]} at {size} slots")


# -- set-up ----------------------------------------------------------------------


def prepare(seed: int) -> Traces:
    """What a run does before its first simulation: the round-0 traces."""
    traces = Traces(seed)
    for s in range(len(SIZES)):
        traces.get(0, s)
    return traces


def measure_setup(seed: int) -> float:
    """Process start to ready: a fresh interpreter importing the program and
    building the first round's inputs, as the run itself does."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "sim_fig8.py"), "--setup-probe", str(seed)],
        stdout=subprocess.PIPE, env=child_env(), text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


# -- the workload ------------------------------------------------------------------


def _run_rounds(traces: Traces, seconds: float, min_rounds: int = 1
                ) -> Tuple[List[OpResult], bool, List[str]]:
    results: List[OpResult] = []
    errors: List[str] = []
    correct = True
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        round_results = [run_op(op, traces) for op in round_ops(r)]
        results.extend(round_results)
        errors.extend(x.error for x in round_results if x.error)
        r += 1
    try:
        check_shape(results)
    except CheckFailed as exc:
        info(f"check failed: {exc}")
        correct = False
    return results, correct, errors


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    if trace:
        return _run_traced(seed, seconds)
    setups = [measure_setup(seed) for _ in range(SETUP_REPEATS)]
    traces = prepare(seed)
    results, correct, errors = _run_rounds(traces, seconds, MET_ROUNDS)
    for err in errors[:5]:
        info(f"failed operation: {err}")
    ok = [r for r in results if r.error is None]
    cpu = sum(r.cpu_s for r in ok)
    columns: Dict[Tuple[int, int], float] = defaultdict(float)
    for r in ok:
        columns[(r.op.round, r.op.size_index)] += r.wall_s * 1e3
    walls_ms = list(columns.values())
    met = sum(r.met for r in ok if r.op.round < MET_ROUNDS)
    info(f"sim-fig8: {len(results)} simulations in {len(results) // 18} rounds, cpu {cpu:.2f}s, "
         f"events {sum(r.events for r in ok)}, setups {[round(s, 3) for s in setups]}")
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {
            "latency_p50_ms": metric(median(walls_ms), "ms"),
            "ops_per_cpu_s": metric(len(ok) / cpu, "1/s"),
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "workflows_met": metric(met, "count"),
        },
    }


def _run_traced(seed: int, seconds: float) -> Dict:
    """An untraced half (per-stack CPU, us/event), then a traced half with
    span wrappers installed around each layer's public calls."""
    import spans as spanlib

    traces = prepare(seed)
    half = max(1.0, seconds / 2)
    plain: List[OpResult] = []
    start = time.perf_counter()
    ops = round_ops(0)
    i = 0
    # At least one simulation of every stack before the time check applies.
    while i < len(STACK_NAMES) or (time.perf_counter() - start < half and i < len(ops)):
        plain.append(run_op(ops[i], traces))
        i += 1
    recorder = spanlib.install_sim_wrappers()
    traced: List[OpResult] = []
    order = ["WOHA-LPF", "EDF", "WOHA-HLF", "FIFO", "WOHA-MPF", "Fair"]
    start = time.perf_counter()
    j = 0
    while j < 2 or (time.perf_counter() - start < half and j < len(order)):
        op = Op(0, order[j], j % len(SIZES))
        traced.append(run_op(op, traces, wrap_planner=recorder.wrap_planner,
                             on_run=recorder.add_run))
        j += 1
    everything = plain + traced
    failed = [r for r in everything if r.error]
    for r in failed:
        info(f"failed operation: {r.error}")
    layers, ok = spanlib.sim_layers(plain, traced, recorder)
    return {"correct": ok, "attempted": len(everything), "failed": len(failed),
            "metrics": layers}


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    prepare(int(sys.argv[2]))
    print("ready", flush=True)
