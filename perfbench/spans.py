"""Spans and counters around racksim's public entry points, for one traced
round of the benchmark.

Nothing under `src/` is edited: `Tracer.install` swaps wrappers in for the
entry points of each layer (class attributes, restored by `uninstall`),
and `Tracer.attach` wraps the switch methods bound on one `RackRun`.

- engine: `EventLoop.schedule` and the lane pushes are not timed (a span
  per push would cost more than the push). They swap in a wrapper for the
  handler they carry, so each dispatched event is one span and is counted
  as a heap or a lane event. Heap pushes are counted too, for the heap's
  depth. `run_until` is one span whose self time is the loop's own
  dispatch work.
- workload: `RequestFactory.make_request`.
- switchsim: the switch's bound `route_reqf`, `route_reqr` and `note_rep`.
- server: `Server.on_packet` and the worker timer, timed where the loop
  dispatches them, which is their only caller.
- baselines: `ClientView.choose`.
- runner: the `RackRun._ev_*` handlers, and `RackRun.__init__`.
- analysis: `MetricsRecord.class_summary`.
- config: `ExperimentConfig.__init__` and `build_runspec`.

A span is (id, name, start ns, end ns, parent id, req_id); req_id is -1
where the boundary does not name one request. Every span is counted into
per-name call counts, total and self time (total minus the time of the
spans nested in it); the first `SPAN_CAP` spans of each point are also kept
in memory and written out by `write`, so a traced point of 100k requests
does not hold a million spans.
"""

from __future__ import annotations

import csv
from array import array
from time import perf_counter_ns

from racksim.analysis import MetricsRecord
from racksim.baselines import ClientView
from racksim.config import ExperimentConfig
from racksim.engine import EventLoop
from racksim.runner import RackRun
from racksim.server import Server
from racksim.workload import RequestFactory

SPAN_CAP = 50_000


def _req_of_arg(_fn, req):
    return req.req_id


def _req_of_reply(_fn, arg):
    return arg[0].req_id


def _req_of_timer(fn, token):
    srv = fn.__self__
    req = srv.w_req[token % srv.n_workers]
    return -1 if req is None else req.req_id


# loop-dispatched handlers: function -> (span name, req_id extractor)
HANDLERS = {
    RackRun._ev_send: ("runner.send", None),
    RackRun._ev_reqr: ("runner.reqr", _req_of_arg),
    RackRun._ev_rep: ("runner.rep", _req_of_reply),
    RackRun._ev_client_rep: ("runner.client_rep", _req_of_reply),
    Server.on_packet: ("server.on_packet", _req_of_arg),
    Server._on_worker: ("server.timer", _req_of_timer),
}
RUNNER_HANDLERS = tuple(name for name, _ in HANDLERS.values()
                        if name.startswith("runner."))


class PointCounts:
    """Engine and switch counts of one simulation point."""

    __slots__ = ("heap_pushes", "heap_pops", "lane_pops", "heap_high",
                 "reqf", "stalls", "stall_high", "jbsq_bound", "over_bound",
                 "over_bound_fallback", "max_outstanding")

    def __init__(self):
        self.heap_pushes = self.heap_pops = self.lane_pops = 0
        self.heap_high = 0
        self.reqf = self.stalls = self.stall_high = 0
        self.jbsq_bound = None
        self.over_bound = self.over_bound_fallback = self.max_outstanding = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self._open: list[int] = []          # span ids of the open spans
        self._child: list[int] = []         # child ns of each open span
        self._next_id = 0
        self._kept = 0
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_req = array("q")
        self.points: list[PointCounts] = []
        self.pc = PointCounts()
        self._handlers: dict = {}
        self._saved: list = []

    # -- spans -------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def call(self, nid: int, fn, args, rid: int):
        """fn(*args) inside a span named by `nid`."""
        sid = self._next_id
        self._next_id = sid + 1
        opened, child = self._open, self._child
        parent = opened[-1] if opened else -1
        opened.append(sid)
        child.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter_ns()
            opened.pop()
            dur = t1 - t0
            self_ns = dur - child.pop()
            if child:
                child[-1] += dur
            self.calls[nid] += 1
            self.total_ns[nid] += dur
            self.self_ns[nid] += self_ns
            if self._kept < SPAN_CAP:
                self._kept += 1
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.span_parent.append(parent)
                self.span_req.append(rid)

    def wrap(self, name: str, fn, req_of=None):
        nid = self.name_id(name)
        call = self.call
        if req_of is None:
            return lambda *args: call(nid, fn, args, -1)
        return lambda *args: call(nid, fn, args, req_of(args))

    def _handler(self, fn, heap: bool):
        """The span-recording stand-in for one loop-dispatched handler."""
        key = (fn, heap)
        h = self._handlers.get(key)
        if h is not None:
            return h
        func = getattr(fn, "__func__", fn)
        name, req_of = HANDLERS.get(func, (f"handler.{func.__name__}", None))
        nid = self.name_id(name)
        call = self.call
        tracer = self

        def h(now, arg):
            if heap:
                tracer.pc.heap_pops += 1
            else:
                tracer.pc.lane_pops += 1
            rid = -1 if req_of is None else req_of(fn, arg)
            return call(nid, fn, (now, arg), rid)

        self._handlers[key] = h
        return h

    # -- installing the wrappers --------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        tracer = self
        schedule = EventLoop.schedule
        lane = EventLoop.lane
        run_until = EventLoop.run_until

        def traced_schedule(loop, time, fn, arg=None):
            schedule(loop, time, tracer._handler(fn, True), arg)
            pc = tracer.pc
            pc.heap_pushes += 1
            depth = pc.heap_pushes - pc.heap_pops
            if depth > pc.heap_high:
                pc.heap_high = depth

        def traced_lane(loop, delay):
            push = lane(loop, delay)

            def traced_push(now, fn, arg=None):
                push(now, tracer._handler(fn, False), arg)
            return traced_push

        run_nid = self.name_id("engine.run_until")

        def traced_run_until(loop, end):
            return tracer.call(run_nid, run_until, (loop, end), -1)

        make_nid = self.name_id("workload.make_request")
        make_request = RequestFactory.make_request

        def traced_make_request(factory, client, now):
            kept = tracer._kept
            members = tracer.call(make_nid, make_request, (factory, client, now), -1)
            if members and tracer._kept > kept:
                # no span nests in make_request, so the last kept is its own
                tracer.span_req[-1] = members[0].req_id
            return members

        self._patch(EventLoop, "schedule", traced_schedule)
        self._patch(EventLoop, "lane", traced_lane)
        self._patch(EventLoop, "run_until", traced_run_until)
        self._patch(RequestFactory, "make_request", traced_make_request)
        for owner, attr, name in (
                (ClientView, "choose", "baselines.choose"),
                (MetricsRecord, "class_summary", "analysis.class_summary"),
                (ExperimentConfig, "__init__", "config.parse"),
                (ExperimentConfig, "build_runspec", "config.build_runspec"),
                (RackRun, "__init__", "runner.construct")):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- one point -----------------------------------------------------------------

    def begin_point(self) -> None:
        """Fresh counts and span budget for the next point; call before each
        `RackRun.run`. Lane pushes read `self.pc` when they fire, so the
        lanes a constructor opened count into the point that runs them."""
        self.pc = PointCounts()
        self.points.append(self.pc)
        self._handlers = {}
        self._kept = 0

    def attach(self, run: RackRun) -> None:
        """Wrap the switch methods bound on one constructed run."""
        sw = run.switch
        if sw is None:
            return
        pc = self.pc
        tracer = self
        reqf = sw.route_reqf
        reqf_nid = self.name_id("switchsim.route_reqf")

        def route_reqf(req, now):
            dst = tracer.call(reqf_nid, reqf, (req, now), req.req_id)
            pc.reqf += 1
            if dst == -1:
                pc.stalls += 1
                depth = len(sw.stalled)
                if depth > pc.stall_high:
                    pc.stall_high = depth
            return dst

        sw.route_reqf = route_reqf
        sw.note_rep = self.wrap("switchsim.note_rep", sw.note_rep,
                                lambda args: args[0].req_id)
        sw.route_reqr = self.wrap("switchsim.route_reqr", sw.route_reqr,
                                  lambda args: args[0].req_id)
        watch_jbsq_bound(sw, pc)

    # -- results -------------------------------------------------------------------

    def stat(self, name: str):
        """(calls, total ns, self ns) of one span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def write(self, path) -> int:
        """Write the kept spans as CSV; returns the number written."""
        names = self.names
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span_id", "name", "start_ns", "end_ns", "parent_id",
                        "req_id"])
            for i in range(len(self.span_id)):
                w.writerow([self.span_id[i], names[self.span_name[i]],
                            self.span_start[i], self.span_end[i],
                            self.span_parent[i], self.span_req[i]])
        return len(self.span_id)


def watch_jbsq_bound(sw, pc: PointCounts) -> None:
    """Count into `pc` each dispatch of a JBSQ switch and the outstanding
    count it leaves on its server. A dispatch happens in the switch's bound
    `route_reqf` (first packets) and `note_rep` (release of a stalled
    request); both are wrapped here. Does nothing for other policies."""
    if not sw.policy.uses_outstanding:
        return
    bound = pc.jbsq_bound = sw.policy.bound

    def note_dispatch(req, dst):
        n = sw.outstanding[dst]
        if n > pc.max_outstanding:
            pc.max_outstanding = n
        if n > bound:
            pc.over_bound += 1
            if req.fallback:
                pc.over_bound_fallback += 1

    reqf = sw.route_reqf

    def route_reqf(req, now):
        dst = reqf(req, now)
        if dst is not None and dst != -1:
            note_dispatch(req, dst)
        return dst

    rep = sw.note_rep

    def note_rep(req, src, load, final, now):
        out = rep(req, src, load, final, now)
        release = out[1]
        if release is not None:
            note_dispatch(release[0], release[1])
        return out

    sw.route_reqf = route_reqf
    sw.note_rep = note_rep
