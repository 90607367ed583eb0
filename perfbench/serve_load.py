"""The serve workloads: a load generator driving a real ``repro serve`` process.

The server is a separate process (``python -m repro serve``, or the traced
launcher ``serve_traced.py`` in a traced run); this process is the load
generator: two closed-loop clients, each a thread holding one keep-alive
loopback connection and sending its next request only after the previous
response has fully arrived (in serve-cold the two also wait for each other
between requests, see ``Lockstep``).  Latency is timed in the client from
the first byte sent to the last byte received.

Inputs come from ``--seed`` alone (see ``RequestStream``); the server gets
only the request bodies.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, TMP_DIR, CheckFailed, check, child_env, info, median, metric, proc_cpu_s,
    proc_peak_rss_mb, quantile,
)

from repro.core.priorities import lpf_order
from repro.core.plangen import simulate_makespan
from repro.core.progress import ProgressPlan
from repro.experiments.scenarios import serve_scenario
from repro.workflow.model import Workflow
from repro.workflow.xmlconfig import workflow_to_xml
from repro.workloads.io import workflows_to_json
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows

SLOTS = 200
CLIENTS = 2
#: Every ADMIT_EVERY-th request of a client goes to /v1/admit (20%).
ADMIT_EVERY = 5
#: serve-cold: this many leading requests of each client form the fixed
#: sample whose caps are checked for minimality after the timed phase.
COLD_SAMPLE_PER_CLIENT = 40
COLD_WARMUP = 24
SETUP_REPEATS = 3
_PHI = 0.6180339887498949
_DEADLINE_TOKEN = 987654.125  # placeholder deadline, replaced per request


# -- inputs --------------------------------------------------------------------


def _retimed(workflow: Workflow, relative_deadline: float) -> Workflow:
    return workflow.with_timing(submit_time=0.0, deadline=relative_deadline)


def input_seeds(workload: str, seed: int) -> Dict[str, Any]:
    """The generator seeds a run's inputs come from."""
    yahoo = [seed] if workload == "serve-recurrent" else [seed * 4 + k + 1 for k in range(4)]
    return {"serve_scenario": seed, "yahoo": yahoo}


def recurrent_templates(seed: int) -> List[Workflow]:
    """The serve scenario's fan-out DAGs plus one Yahoo!-like workflow set."""
    fanout, _ = serve_scenario(seed, 2.0)
    yahoo = generate_yahoo_workflows(YahooTraceConfig(seed=seed))
    return [
        _retimed(w, w.relative_deadline)
        for w in list(fanout) + list(yahoo)
        if w.relative_deadline is not None
    ]


def cold_pool(seed: int) -> Tuple[List[Workflow], List[Workflow]]:
    """Distinct Yahoo!-like structures (four sets) and the fan-out templates."""
    fanout, _ = serve_scenario(seed, 2.0)
    yahoo: List[Workflow] = []
    for k in range(4):
        yahoo.extend(generate_yahoo_workflows(YahooTraceConfig(seed=seed * 4 + k + 1)))
    keep = lambda ws: [_retimed(w, w.relative_deadline) for w in ws if w.relative_deadline is not None]
    return keep(yahoo), keep(fanout)


class _Body:
    """A request body with the relative deadline left as a hole."""

    __slots__ = ("workflow", "content_type", "head", "tail")

    def __init__(self, workflow: Workflow, as_xml: bool) -> None:
        self.workflow = workflow
        marked = workflow.with_timing(submit_time=0.0, deadline=_DEADLINE_TOKEN)
        text = workflow_to_xml(marked) if as_xml else workflows_to_json([marked])
        token = repr(_DEADLINE_TOKEN)
        check(text.count(token) == 1, "deadline placeholder not unique in body")
        self.head, self.tail = (part.encode("utf-8") for part in text.split(token))
        self.content_type = "application/xml" if as_xml else "application/json"

    def render(self, relative_deadline: float) -> bytes:
        return self.head + repr(relative_deadline).encode("ascii") + self.tail


class Request:
    __slots__ = ("ordinal", "path", "data", "workflow", "deadline", "template")

    def __init__(self, ordinal: int, path: str, body: _Body, deadline: float, template: int,
                 tenant: str) -> None:
        payload = body.render(deadline)
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {body.content_type}\r\n"
            f"X-Tenant: {tenant}\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        self.ordinal = ordinal
        self.path = path
        self.data = head.encode("latin-1") + payload
        self.workflow = body.workflow
        self.deadline = deadline
        self.template = template


class RequestStream:
    """The deterministic request sequence of one client.

    Shares are fixed by the request's position ``k``: XML on positions 0
    and 1 mod 4 and JSON on 2 and 3, ``/v1/admit`` on every fifth.  In
    serve-recurrent the client cycles through the templates; in serve-cold
    every request is a distinct planning problem: a structure from the pool
    and a relative deadline unique to the request (a seeded stretch of the
    base deadline plus a strictly increasing millisecond offset).  On even
    positions both clients send the same fan-out structure, each with its
    own deadline, so the round's batch shares one set-up; on odd positions
    each sends its own Yahoo!-like structure.
    """

    def __init__(self, workload: str, client: int, seed: int,
                 yahoo: List[Workflow], fanout: List[Workflow]) -> None:
        self.workload = workload
        self.client = client
        self.seed = seed
        self.templates = fanout + yahoo
        self.n_fanout = len(fanout)
        self.n_yahoo = len(yahoo)
        self._bodies: Dict[Tuple[int, bool], _Body] = {}
        self.position = 0

    def _body(self, template: int, as_xml: bool) -> _Body:
        body = self._bodies.get((template, as_xml))
        if body is None:
            body = _Body(self.templates[template], as_xml)
            self._bodies[(template, as_xml)] = body
        return body

    def request(self, k: int) -> Request:
        """Request ``k`` of this client (``k`` may be negative: warm-up)."""
        as_xml = (k // 2) % 2 == 0
        path = "/v1/admit" if k % ADMIT_EVERY == ADMIT_EVERY - 1 else "/v1/plan"
        tenant = f"client{self.client}"
        if self.workload == "serve-recurrent":
            n = len(self.templates)
            template = (k + self.client * (n // 2)) % n
            deadline = self.templates[template].relative_deadline
        else:
            g = 2 * k + self.client  # unique across both clients
            if k % 2 == 0:
                template = ((k // 2) * 7 + self.seed) % self.n_fanout
            else:
                template = self.n_fanout + (g * 13 + self.seed) % self.n_yahoo
            base = self.templates[template].relative_deadline
            u = ((g + self.seed) * _PHI) % 1.0
            deadline = base * (0.6 + 0.8 * u) + (g + 100_000) * 1e-3
        return Request(k, path, self._body(template, as_xml), deadline, template, tenant)

    def next(self) -> Request:
        req = self.request(self.position)
        self.position += 1
        return req


# -- wire ------------------------------------------------------------------------


class Connection:
    """One blocking keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def exchange(self, data: bytes) -> Tuple[int, Dict[str, str], bytes]:
        sock = self.sock
        sock.sendall(data)
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        lines = buf[:end].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        need = end + 4 + int(headers.get("content-length", "0"))
        while len(buf) < need:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buf += chunk
        body = buf[end + 4:need]
        self.buf = buf[need:]
        return status, headers, body

    def get_json(self, path: str) -> Any:
        status, _, body = self.exchange(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )
        check(status == 200, f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


# -- server process ------------------------------------------------------------


class Server:
    """A ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, traced: bool, spans_path: Optional[str] = None) -> None:
        args = ["serve", "--port", "0", "--slots", str(SLOTS)]
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py"), spans_path] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} {self.proc.stderr.read()[-2000:]}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        self.pid = self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self.proc.stderr.close()


# -- checks ----------------------------------------------------------------------


class PlanFacts:
    """What a served plan says, after the per-response checks passed."""

    __slots__ = ("cap", "feasible", "makespan", "order")

    def __init__(self, cap: int, feasible: bool, makespan: float, order: Tuple[str, ...]) -> None:
        self.cap = cap
        self.feasible = feasible
        self.makespan = makespan
        self.order = order


def check_plan_response(req: Request, headers: Dict[str, str], body: bytes) -> PlanFacts:
    """Every /v1/plan response: decodable, finite, monotone, consistent."""
    try:
        plan = ProgressPlan.from_bytes(body)
    except Exception as exc:  # any decode fault is a failed output check
        raise CheckFailed(f"plan bytes do not decode: {type(exc).__name__}: {exc}") from exc
    check(math.isfinite(plan.makespan), "plan makespan not finite")
    reqs = [e.cum_req for e in plan.entries]
    check(all(math.isfinite(e.ttd) for e in plan.entries), "plan ttd not finite")
    check(all(a <= b for a, b in zip(reqs, reqs[1:])), "plan requirements not monotone")
    check(bool(reqs) and reqs[-1] == req.workflow.total_tasks,
          f"plan ends at {reqs[-1] if reqs else None}, workflow has {req.workflow.total_tasks} tasks")
    cap = int(headers["x-plan-cap"])
    check(cap == plan.resource_cap, f"X-Plan-Cap {cap} != decoded cap {plan.resource_cap}")
    check(1 <= cap <= SLOTS, f"cap {cap} outside [1, {SLOTS}]")
    makespan = float(headers["x-plan-makespan"])
    check(makespan == plan.makespan, "X-Plan-Makespan differs from the decoded makespan")
    feasible = headers["x-plan-feasible"] == "1"
    check(feasible == plan.feasible, "X-Plan-Feasible differs from the decoded flag")
    check(feasible == (makespan <= req.deadline),
          f"X-Plan-Feasible={int(feasible)} but makespan {makespan} vs deadline {req.deadline}")
    return PlanFacts(cap, feasible, makespan, plan.job_order)


def check_admit_response(req: Request, body: bytes) -> Tuple[PlanFacts, Dict[str, Any]]:
    verdict = json.loads(body)
    makespan = float(verdict["makespan"])
    cap = int(verdict["resource_cap"])
    check(math.isfinite(makespan), "admission makespan not finite")
    check(1 <= cap <= SLOTS, f"admission cap {cap} outside [1, {SLOTS}]")
    check(verdict["relative_deadline"] == req.deadline, "admission echoes another deadline")
    check(verdict["admitted"] == (makespan <= req.deadline),
          "admission verdict disagrees with the plan's feasibility")
    return PlanFacts(cap, bool(verdict["admitted"]), makespan, ()), verdict


def check_minimal(workflow: Workflow, deadline: float, facts: PlanFacts) -> None:
    """The served cap is minimal under an Algorithm 1 makespan computed here."""
    order = lpf_order(workflow)
    if facts.order:
        check(tuple(facts.order) == order, "plan job order is not the LPF order")
    at_cap = simulate_makespan(workflow, facts.cap, order)
    check(at_cap == facts.makespan, f"makespan at cap {facts.cap}: {at_cap} vs served {facts.makespan}")
    if facts.feasible:
        check(at_cap <= deadline, "feasible cap misses the deadline")
        check(facts.cap == 1 or simulate_makespan(workflow, facts.cap - 1, order) > deadline,
              f"cap {facts.cap} not minimal: cap - 1 also meets the deadline")
    else:
        check(facts.cap == SLOTS and at_cap > deadline,
              "infeasible plan not at the full slot count")


# -- clients ---------------------------------------------------------------------

#: What the warm-up learnt of a serve-recurrent template: the plan bytes, the
#: checked facts, and the (X-Plan-Cap, X-Plan-Makespan, X-Plan-Feasible)
#: header strings every later hit must repeat.
Known = Dict[int, Tuple[bytes, PlanFacts, Tuple[str, str, str]]]


def plan_headers(headers: Dict[str, str]) -> Tuple[str, str, str]:
    return headers["x-plan-cap"], headers["x-plan-makespan"], headers["x-plan-feasible"]


class ClientResult:
    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.request_ids: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.sample: List[Tuple[Request, PlanFacts]] = []


class FreeRun:
    """serve-recurrent pacing: each client sends until the time is up."""

    def __init__(self, until: float) -> None:
        self.until = until

    def next_round(self) -> bool:
        return time.perf_counter() < self.until

    def abort(self) -> None:
        pass


class Lockstep:
    """serve-cold pacing: no client sends request ``k + 1`` before every
    client has its answer to ``k``, so the round's requests meet in one
    micro-batch window and its fan-out pair shares one set-up.  Whether the
    next round is sent is decided once for all clients, so every client
    makes the same number of requests."""

    def __init__(self, parties: int, until: float) -> None:
        self.until = until
        self.stop = False
        self.barrier = threading.Barrier(parties, action=self._decide)

    def _decide(self) -> None:
        self.stop = time.perf_counter() >= self.until

    def next_round(self) -> bool:
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            return False  # another client stopped on a broken connection
        return not self.stop

    def abort(self) -> None:
        self.barrier.abort()


def _client_loop(conn: Connection, stream: RequestStream, pacer, result: ClientResult,
                 workload: str, known: Known, sample_size: int) -> None:
    perf = time.perf_counter
    recurrent = workload == "serve-recurrent"
    try:
        while pacer.next_round():
            req = stream.next()
            result.attempted += 1
            try:
                t0 = perf()
                status, headers, body = conn.exchange(req.data)
                t1 = perf()
                check(status == 200, f"status {status}: {body[:200]!r}")
                if req.path == "/v1/plan":
                    outcome = headers.get("x-plan-outcome")
                    rid = int(headers["x-request-id"])
                    if recurrent and body == known[req.template][0]:
                        facts = known[req.template][1]
                        check(plan_headers(headers) == known[req.template][2],
                              "X-Plan-Cap/Makespan/Feasible changed on a hit")
                    else:
                        facts = check_plan_response(req, headers, body)
                else:
                    facts, verdict = check_admit_response(req, body)
                    outcome = verdict["outcome"]
                    rid = int(verdict["request_id"])
                if recurrent:
                    check(outcome == "hit", f"serve-recurrent answered {outcome!r} after warm-up")
                    ref = known[req.template][1]
                    check(facts.cap == ref.cap and facts.feasible == ref.feasible,
                          "a hit disagrees with the warm-up plan")
                else:
                    check(outcome != "hit", "serve-cold answered a cache hit")
                    if req.ordinal < sample_size:
                        result.sample.append((req, facts))
            except CheckFailed as exc:
                result.failed += 1
                if len(result.errors) < 5:
                    result.errors.append(str(exc))
                continue
            except (OSError, ValueError, KeyError) as exc:
                # A broken connection or an unparsable answer: this client's
                # connection is unusable, so it stops here.
                result.failed += 1
                result.errors.append(f"{type(exc).__name__}: {exc}")
                return
            result.latencies_ms.append((t1 - t0) * 1e3)
            result.request_ids.append(rid)
    finally:
        pacer.abort()  # never leave another client waiting for this one


def run_clients(port: int, streams: List[RequestStream], seconds: float, workload: str,
                known: Known, sample_size: int) -> List[ClientResult]:
    """Run the closed-loop clients for ``seconds``, one thread each."""
    conns = [Connection(port) for _ in streams]
    results = [ClientResult() for _ in streams]
    until = time.perf_counter() + seconds
    pacer = FreeRun(until) if workload == "serve-recurrent" else Lockstep(len(streams), until)
    threads = [
        threading.Thread(target=_client_loop,
                         args=(conn, stream, pacer, res, workload, known, sample_size))
        for conn, stream, res in zip(conns, streams, results)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for conn in conns:
        conn.close()
    return results


# -- set-up ------------------------------------------------------------------------


class Session:
    """One set-up: inputs built, server started and warmed up."""

    def __init__(self, workload: str, seed: int, traced: bool = False,
                 spans_path: Optional[str] = None) -> None:
        t0 = time.perf_counter()
        if workload == "serve-recurrent":
            yahoo, fanout = [], recurrent_templates(seed)
        else:
            yahoo, fanout = cold_pool(seed)
        self.streams = [RequestStream(workload, c, seed, yahoo, fanout) for c in range(CLIENTS)]
        self.server = Server(traced, spans_path)
        self.known: Known = {}
        try:
            self._warm_up(workload)
        except BaseException:
            self.server.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _warm_up(self, workload: str) -> None:
        conn = Connection(self.server.port)
        try:
            stream = self.streams[0]
            if workload == "serve-recurrent":
                # Build every template's plan once, through both body formats.
                for template, workflow in enumerate(stream.templates):
                    for as_xml in (True, False):
                        req = Request(-1, "/v1/plan", stream._body(template, as_xml),
                                      workflow.relative_deadline, template, "warmup")
                        status, headers, body = conn.exchange(req.data)
                        check(status == 200, f"warm-up answered {status}")
                        facts = check_plan_response(req, headers, body)
                        if template in self.known:
                            check(self.known[template][0] == body,
                                  "XML and JSON bodies of one template got different plans")
                        self.known[template] = (body, facts, plan_headers(headers))
            else:
                for k in range(-COLD_WARMUP, 0):
                    req = stream.request(k)
                    status, _h, body = conn.exchange(req.data)
                    check(status == 200, f"warm-up answered {status}")
            self.stats0 = conn.get_json("/v1/stats")
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        conn = Connection(self.server.port)
        try:
            return conn.get_json("/v1/stats")
        finally:
            conn.close()


# -- the workload ----------------------------------------------------------------


def _timed_phase(session: Session, workload: str, seconds: float) -> Dict[str, Any]:
    pid = session.server.pid
    sample = COLD_SAMPLE_PER_CLIENT if workload == "serve-cold" else 0
    cpu0, t0 = proc_cpu_s(pid), time.perf_counter()
    results = run_clients(session.server.port, session.streams, seconds, workload,
                          session.known, sample)
    wall = time.perf_counter() - t0
    cpu = proc_cpu_s(pid) - cpu0
    stats = session.stats()
    return {
        "results": results, "wall": wall, "cpu": cpu, "stats": stats,
        "rss": proc_peak_rss_mb(pid),
    }


def _run_checks(session: Session, workload: str, phase: Dict[str, Any]) -> Tuple[bool, int]:
    """Run-level checks; returns (correct, workflows_met)."""
    results = phase["results"]
    answered = sum(len(r.latencies_ms) for r in results)
    before = session.stats0["plan_cache"]
    after = phase["stats"]["plan_cache"]
    hits = after["hits"] - before["hits"]
    builds = after["misses"] - before["misses"]
    try:
        if workload == "serve-recurrent":
            check(builds == 0, f"serve-recurrent built {builds} plans after warm-up")
            check(hits == answered, f"{hits} cache hits for {answered} answered requests")
            met = 0
            for template, (_, facts, _headers) in sorted(session.known.items()):
                wf = session.streams[0].templates[template]
                check_minimal(wf, wf.relative_deadline, facts)
                met += facts.feasible
        else:
            check(hits == 0, f"serve-cold served {hits} cache hits")
            check(builds == answered, f"{builds} builds for {answered} answered requests")
            check(after["evictions"] > 0, "serve-cold never evicted: keys fit the cache")
            sample = [item for r in results for item in r.sample]
            check(len(sample) == CLIENTS * COLD_SAMPLE_PER_CLIENT,
                  f"minimality sample holds {len(sample)} requests")
            met = 0
            for req, facts in sample:
                check_minimal(req.workflow, req.deadline, facts)
                met += facts.feasible
    except CheckFailed as exc:
        info(f"check failed: {exc}")
        return False, 0
    return True, met


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if trace:
        return _run_traced(workload, seed, seconds)
    setups: List[float] = []
    session: Optional[Session] = None
    for rep in range(SETUP_REPEATS):
        session = Session(workload, seed)
        setups.append(session.setup_s)
        if rep < SETUP_REPEATS - 1:
            session.server.stop()
    assert session is not None
    try:
        phase = _timed_phase(session, workload, seconds)
    finally:
        session.server.stop()
    correct, met = _run_checks(session, workload, phase)
    results = phase["results"]
    for r in results:
        for err in r.errors:
            info(f"failed operation: {err}")
    latencies = [x for r in results for x in r.latencies_ms]
    answered = len(latencies)
    info(f"{workload}: {answered} answered in {phase['wall']:.2f}s, server cpu {phase['cpu']:.2f}s, "
         f"p99 {quantile(latencies, 0.99):.3f} ms, "
         f"setups {[round(s, 3) for s in setups]}")
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            "latency_p50_ms": metric(median(latencies), "ms"),
            "ops_per_cpu_s": metric(answered / phase["cpu"], "1/s"),
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(phase["rss"], "MB"),
            "workflows_met": metric(met, "count"),
        },
    }


# -- traced run ------------------------------------------------------------------


def _run_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Half the time untraced, half against the traced launcher; per-layer
    metrics come from the traced half, overhead from comparing the two."""
    import spans as spanlib

    half = max(1.0, seconds / 2)
    plain = Session(workload, seed)
    try:
        base = _timed_phase(plain, workload, half)
    finally:
        plain.server.stop()
    os.makedirs(TMP_DIR, exist_ok=True)
    spans_path = os.path.join(TMP_DIR, f"serve-spans-{os.getpid()}.json")
    traced = Session(workload, seed, traced=True, spans_path=spans_path)
    try:
        phase = _timed_phase(traced, workload, half)
    finally:
        traced.server.stop()
    try:
        with open(spans_path) as fh:
            dump = json.load(fh)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if os.path.isdir(TMP_DIR) and not os.listdir(TMP_DIR):
            os.rmdir(TMP_DIR)
    correct, _met = _run_checks(traced, workload, phase)
    results = phase["results"]
    attempted = sum(r.attempted for r in results) + sum(r.attempted for r in base["results"])
    failed = sum(r.failed for r in results) + sum(r.failed for r in base["results"])
    layers, ok = spanlib.serve_layers(workload, results, base, phase, dump)
    return {"correct": correct and ok, "attempted": attempted, "failed": failed,
            "metrics": layers}
