"""Run orchestration: wires the workload generator, the switch, and the
servers into one event loop and measures the result.

There is one packet path whatever the policy: client-based dispatch is the
switch policy `switchsim.ClientPolicy`, built by `make_policy` as every
policy is. The hot path is deliberately flat.
One event fires per first-packet at its switch-arrival time; that handler
draws the next arrival for the same client, creates the request, and routes
it, so a single-packet request costs four events end to end (send, server
arrival, worker timer, reply at switch). The two fixed hops, switch to
server and server to switch, ride FIFO lanes of the event loop rather than
its heap; each server pushes its replies onto the server-to-switch lane
itself. Reply delivery to the client is pure added delay, so every
completion is recorded at the reply's switch-arrival event rather than with
a fifth event. Client-based dispatch adds that fifth event only to update
the client's view when the reply reaches it. Load and mix changes act at
their `at_us` as a send time, other timeline events at the switch; switch
and server faults act under every policy but the pooled global baselines;
a failed server drops what it holds through the switch's `mark_dropped`.
Each edge of a class's start/stop window is a mix change with no new
weights, scheduled as a `set_mix` event is.
"""

from __future__ import annotations

import csv
import os
import time
from array import array
from contextlib import ExitStack
from math import log

from . import __version__
from .analysis import MetricsRecord
from .config import ExperimentConfig, RunSpec
from .engine import EventLoop, RngStreams
from .server import Server
from .switchsim import ReqTable, Switch, make_policy
from .workload import RequestFactory


class RackRun:
    """One simulation run: a rack under one policy at one load and seed.
    `trace_affinity` does nothing (the switch always counts affinity)."""

    def __init__(self, spec: RunSpec, trace_affinity: bool = False):
        self.spec = spec
        exp = self.exp = spec.exp
        v = spec.variant
        self.sim = EventLoop()
        self.streams = RngStreams(spec.seed)

        self.d_cs = exp.d_cs
        self.rep_delay = exp.switch_lat + exp.d_cs   # switch -> client
        self.gap_us = exp.gap_us
        self._to_server = self.sim.lane(exp.switch_lat + exp.d_ss)
        to_switch = self.sim.lane(exp.d_ss)

        self.factory = RequestFactory(
            exp.classes, self.streams.get("classes"), self.streams.get("service"))
        # some arrival sends more than its first packet
        self._trailing = any(c.packets > 1 or c.group_size > 1
                             for c in exp.classes)
        self._arr_rnds = [self.streams.get(f"arrivals/{c}").random
                          for c in range(v.clients)]
        self._gen_token = 0
        self._send = self._ev_send      # bound once, rescheduled per send
        # per-client arrival rate, requests per us
        self._rate_pc = spec.rate_rps / 1e6 / v.clients

        # generation window and measurement window
        if exp.duration_us is not None:
            self.t_arr_end = exp.duration_us
        else:
            total_rate_us = spec.rate_rps / 1e6
            self.t_arr_end = exp.requests_per_point / (
                total_rate_us * (1.0 - exp.warmup_fraction))
        self.w0 = exp.warmup_fraction * self.t_arr_end
        self.w1 = self.t_arr_end
        self.hard_end = self.t_arr_end + exp.drain_us

        n_classes = len(exp.classes)
        rnd_h = self.streams.get("hashing")
        salts = [rnd_h.getrandbits(61) for _ in range(exp.rt_stages)]
        policy_salt = rnd_h.getrandbits(61)
        fallback_salt = rnd_h.getrandbits(61)
        table = ReqTable(exp.rt_slots, salts, ttl_us=exp.rt_ttl_us)
        policy = make_policy(v.policy, n_classes, policy_salt, k=v.k,
                             bound=v.bound, n_servers=v.n_servers,
                             clients=v.clients)
        self.views = policy.views   # the clients' views, under client dispatch
        # the servers report as `v.tracking` says; the switch changes its own
        # copy of the active flags
        self.switch = Switch(
            v.n_servers, n_classes, v.loc_sets, list(v.active0),
            policy, v.tracking, table,
            self.streams.get("sampling"), self.streams.get("loss"),
            fallback_salt, rep_loss_prob=v.rep_loss_prob)

        priorities = [c.priority for c in exp.classes]
        self.servers = [
            Server(sid, v.workers[sid], v.intra_kind, self.sim,
                   to_switch, self._ev_rep, self.switch.mark_dropped,
                   n_classes=n_classes, slice_us=exp.slice_us,
                   preempt_threshold_us=exp.preempt_threshold_us,
                   ctx_switch_us=exp.ctx_switch_us,
                   preempt_latency_us=exp.preempt_latency_us,
                   tracking=v.tracking, wfq_weights=exp.wfq_weights,
                   priorities=priorities)
            for sid in range(v.n_servers)]

        # per class: latency samples as unboxed doubles, 8 B each
        self.samples = [array("d") for _ in range(n_classes)]
        self.arrivals = [0] * n_classes
        self.fallbacks = [0] * n_classes
        self.completed_total = 0
        self.census_system: dict = {}
        self.census_waiting: dict = {}
        self.bucket_us = exp.bucket_us
        self.buckets = [[] for _ in range(n_classes)] if self.bucket_us else []

    # -- rate control ------------------------------------------------------------

    def _start_sends(self, now: float, token: int) -> None:
        """Start each client's send chain, as `_ev_send` continues it."""
        if self._rate_pc > 0.0:
            for c in range(self.spec.variant.clients):
                self.sim.schedule(now - log(1.0 - self._arr_rnds[c]())
                                  / self._rate_pc, self._send, (c, token))

    # -- event handlers ------------------------------------------------------------

    def _ev_send(self, now: float, arg):
        """Fires at the switch arrival of a client's first packet; also draws
        that client's next arrival."""
        client, token = arg
        if token != self._gen_token:
            return
        t_send = now - self.d_cs
        if t_send >= self.t_arr_end:
            return
        self.sim.schedule(now - log(1.0 - self._arr_rnds[client]())
                          / self._rate_pc, self._send, arg)
        members = self.factory.make_request(client, t_send)
        if not members:
            return
        if self.w0 <= t_send < self.w1:
            arrivals = self.arrivals
            for req in members:
                req.measured = True
                arrivals[req.tag] += 1

        first = members[0]
        dst = self.switch.route_reqf(first, now)
        if dst is not None and dst >= 0:
            self._to_server(now, self.servers[dst].on_packet, first)
        if not self._trailing:
            return
        # trailing packets and any further group members follow as REQR,
        # gap_us apart, a group's members one after another
        schedule = self.sim.schedule
        reqr = self._ev_reqr
        gap = self.gap_us
        offset = gap
        skip = 1    # the first packet went through route_reqf
        for m in members:
            for _ in range(m.packets - skip):
                schedule(now + offset, reqr, m)
                offset += gap
            skip = 0

    def _ev_reqr(self, now: float, req):
        dst = self.switch.route_reqr(req)
        if dst is not None and dst >= 0:
            self._to_server(now, self.servers[dst].on_packet, req)

    def _ev_rep(self, now: float, arg):
        """A server's reply at the switch; the server pushed it onto the
        server-to-switch lane. A delivered reply completes its request at
        its client, `rep_delay` later, and is recorded here."""
        req, src, load, final = arg
        delivered, release = self.switch.note_rep(req, src, load, final, now)
        if delivered:
            done = now + self.rep_delay
            if self.views is not None:
                self.sim.schedule(done, self._ev_client_rep, arg)
            self.completed_total += 1
            tag = req.tag
            if req.measured:
                self.samples[tag].append(done - req.arrival)
                if req.fallback:
                    self.fallbacks[tag] += 1
            if self.bucket_us:
                row = self.buckets[tag]
                idx = int(done / self.bucket_us)
                while len(row) <= idx:
                    row.append(0)
                row[idx] += 1
        if release is not None:
            self._forward(now, release)

    def _forward(self, now: float, release):
        """Send a released stalled request, and the follow-on packets
        buffered with it, on to the server the switch placed it on."""
        sreq, dst, follow = release
        on_packet = self.servers[dst].on_packet
        for m in (sreq, *follow):
            self._to_server(now, on_packet, m)

    def _ev_client_rep(self, now: float, arg):
        """The reply reaches its client, whose view takes the load report."""
        req, src, load, _final = arg
        self.views[req.client].observe(src, load)

    # -- timeline / instrumentation -------------------------------------------------

    def _ev_timeline(self, now: float, ev: dict):
        kind = ev["kind"]
        if kind == "switch_fail":
            self.switch.fail()
            self.sim.schedule(now + ev["duration_us"], self._ev_recover, None)
        elif kind == "add_server":
            sid = ev["server"]
            srv = self.servers[sid]
            if srv.failed:
                # it comes back empty: what the switch counted on it is lost
                self.switch.forget_server(sid)
                srv.failed = False
            for release in self.switch.set_active(sid, True, now):
                self._forward(now, release)
        elif kind == "remove_server":
            sid = ev["server"]
            self.switch.set_active(sid, False, now)
            if not ev["planned"]:
                self.servers[sid].fail()
                self.sim.schedule(now + ev["purge_delay_us"], self._ev_purge, sid)
        elif kind == "set_load":
            self._rate_pc = (ev["load"] * self.exp.capacity_rps / 1e6
                             / self.spec.variant.clients)
            self._gen_token += 1
            self._start_sends(now, self._gen_token)
        else:  # set_mix
            self.factory.set_weights(ev["weights"], ev["at_us"])

    def _ev_recover(self, now: float, _arg):
        self.switch.recover()

    def _ev_purge(self, now: float, sid: int):
        self.switch.reqtable.purge_server(sid)

    def _ev_census(self, now: float, _arg):
        for srv in self.servers:
            if srv.failed:
                continue
            n = srv.in_system
            w = n - srv.busy
            self.census_system[n] = self.census_system.get(n, 0) + 1
            self.census_waiting[w] = self.census_waiting.get(w, 0) + 1
        nxt = now - log(1.0 - self._rnd_census.random()) * self.exp.census_interval_us
        if nxt < self.w1:
            self.sim.schedule(nxt, self._ev_census, None)

    def _ev_maint(self, now: float, _arg):
        self.switch.reqtable.purge_stale(now)
        nxt = now + self._maint_period
        if nxt < self.hard_end:
            self.sim.schedule(nxt, self._ev_maint, None)

    # -- run ---------------------------------------------------------------------

    def run(self) -> MetricsRecord:
        t0 = time.perf_counter()
        exp = self.exp
        self._start_sends(self.d_cs, 0)
        windows = [{"kind": "set_mix", "at_us": t, "weights": {}}
                   for c in exp.classes for t in (c.start_us, c.stop_us)
                   if t is not None]
        for ev in exp.timeline + windows:
            # load and mix change at a send time, so at the switch d_cs later
            at = ev["at_us"]
            if ev["kind"] in ("set_load", "set_mix"):
                at += self.d_cs
            self.sim.schedule(at, self._ev_timeline, ev)
        if exp.census_interval_us is not None:
            self._rnd_census = self.streams.get("census")
            first = self.w0 - log(1.0 - self._rnd_census.random()) * exp.census_interval_us
            if first < self.w1:
                self.sim.schedule(first, self._ev_census, None)
        self._maint_period = exp.rt_ttl_us / 2.0
        self.sim.schedule(self._maint_period, self._ev_maint, None)

        self.sim.run_until(self.hard_end)

        rec = MetricsRecord(
            class_tags=[c.tag for c in exp.classes],
            window=(self.w0, self.w1),
            samples=self.samples,
            arrivals=self.arrivals,
            completions=[len(s) for s in self.samples],
            fallbacks=self.fallbacks,
            injected=self.factory.created,
            completed=self.completed_total,
            dropped=self.switch.dropped_requests,
            dispatch_hist=self.switch.dispatch_hist,
            fallback_inserts=self.switch.fallback_insert,
            fallback_reads=self.switch.fallback_read,
            census_system=self.census_system,
            census_waiting=self.census_waiting,
            buckets=self.buckets,
            bucket_us=self.bucket_us or 0.0,
        )
        rec.wall_s = time.perf_counter() - t0
        return rec


def run_point(exp: ExperimentConfig, variant: str, load: float,
              seed: int) -> MetricsRecord:
    return RackRun(exp.build_runspec(variant, load, seed)).run()


# -- sweep driver -----------------------------------------------------------------

CSV_COLUMNS = [
    "load_fraction", "offered_rps", "achieved_rps", "class_tag",
    "p50_us", "p99_us", "p999_us", "mean_us", "fallback_count", "seed",
]


def _format_row(load: float, seed: int, tag_index: int, rec: MetricsRecord) -> list:
    s = rec.class_summary(tag_index)
    return [
        f"{load:g}",
        f"{rec.offered_rps(tag_index):.3f}",
        f"{rec.achieved_rps(tag_index):.3f}",
        s.tag,
        f"{s.p50_us:.3f}",
        f"{s.p99_us:.3f}",
        f"{s.p999_us:.3f}",
        f"{s.mean_us:.3f}",
        str(s.fallbacks),
        str(seed),
    ]


def _point_job(args):
    exp, variant, load, seed = args
    rec = run_point(exp, variant, load, seed)
    rows = [((load, i, seed), _format_row(load, seed, i, rec))
            for i in range(len(rec.class_tags))]
    counts = (sum(rec.completions), rec.injected, rec.completed, rec.dropped)
    return variant, load, seed, rows, counts, rec.wall_s


def run_experiment(exp: ExperimentConfig, out_dir: str, parallel: int = 1,
                   log=None) -> list:
    """Run the full sweep and write one CSV per variant plus a manifest.
    `parallel` worker processes run the points, never more than there are
    points; 1 runs them in this process. `log`, if given, gets one line per
    point in sweep order. Returns the written file paths."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(exp, *point) for point in exp.points()]
    workers = min(parallel, len(jobs))
    by_variant = {v: [] for v in exp.variants}
    manifest_pts = []
    with ExitStack() as stack:
        imap = map
        if workers > 1:
            # imported here so that a serial run never loads it
            import multiprocessing
            imap = stack.enter_context(multiprocessing.Pool(workers)).imap
        for variant, load, seed, rows, counts, wall in imap(_point_job, jobs):
            if log is not None:
                log(f"{exp.name} {variant} load={load:g} seed={seed} "
                    f"wall={wall:.2f}s")
            by_variant[variant].extend(rows)
            measured, injected, completed, dropped = counts
            manifest_pts.append(
                f"point variant={variant} load={load:g} seed={seed} "
                f"measured={measured} injected={injected} "
                f"completed={completed} dropped={dropped} wall_s={wall:.3f}")

    paths = []
    for variant, rows in by_variant.items():
        rows.sort(key=lambda kr: kr[0])  # (load, class index, seed)
        path = os.path.join(out_dir, f"{variant}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            w.writerows(r for _, r in rows)
        paths.append(path)

    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"tool racksim {__version__}\n")
        fh.write(f"name {exp.name}\n")
        fh.write(f"config_sha256 {exp.config_sha256}\n")
        fh.write(f"variants {','.join(exp.variants)}\n")
        fh.write(f"loads {','.join(f'{x:g}' for x in exp.loads)}\n")
        fh.write(f"seeds {','.join(str(s) for s in exp.seeds)}\n")
        for line in manifest_pts:
            fh.write(line + "\n")
    paths.append(manifest)
    return paths
