"""Run orchestration: wires the workload generator, the switch, and the
servers into one event loop and measures the result.

The hot path is deliberately flat. One event fires per first-packet at its
switch-arrival time; that handler draws the next arrival for the same client,
creates the request, and routes it, so a single-packet request costs four
events end to end (send, server arrival, worker timer, reply at switch). The
two fixed hops, switch to server and server to switch, ride FIFO lanes of the
event loop rather than its heap. Reply delivery to the client is pure added
delay, so completion latency is recorded at the reply's switch-arrival event
rather than with a fifth event. Client-dispatch mode is the exception: the
per-client view must be updated at the instant the reply reaches that
client, so it gets a real event.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import time
from math import log

from . import __version__
from .analysis import MetricsRecord
from .baselines import ClientView
from .config import ExperimentConfig, RunSpec
from .engine import EventLoop, RngStreams
from .server import Server
from .switchsim import ReqTable, Switch, make_policy
from .workload import RequestFactory


class RackRun:
    """One simulation run: a rack under one policy at one load and seed."""

    def __init__(self, spec: RunSpec, trace_affinity: bool = False):
        self.spec = spec
        exp = self.exp = spec.exp
        self.sim = EventLoop()
        self.streams = RngStreams(spec.seed)

        self.d_cs = exp.d_cs
        self.fwd_delay = exp.switch_lat + exp.d_ss   # switch -> server
        self.rep_delay = exp.switch_lat + exp.d_cs   # switch -> client
        self.gap_us = exp.gap_us
        self._to_server = self.sim.lane(self.fwd_delay)
        self._to_switch = self.sim.lane(exp.d_ss)

        self.factory = RequestFactory(
            spec.classes, self.streams.get("classes"), self.streams.get("service"))
        # some arrival sends more than its first packet
        self._trailing = any(c.packets > 1 or c.group_size > 1
                             for c in spec.classes)
        self._arr_rnds = [self.streams.get(f"arrivals/{c}").random
                          for c in range(spec.clients)]
        self._gen_token = 0
        self._rate_pc = 0.0      # per-client arrival rate, requests per us
        self._set_rate(spec.rate_rps)

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

        priorities = [c.priority for c in spec.classes]
        self.servers = []
        for sid in range(spec.n_servers):
            srv = Server(
                sid, spec.workers[sid], spec.intra_kind, self.sim, self._emit,
                n_classes=len(spec.classes), slice_us=exp.slice_us,
                preempt_threshold_us=exp.preempt_threshold_us,
                ctx_switch_us=exp.ctx_switch_us,
                preempt_latency_us=exp.preempt_latency_us,
                tracking=spec.tracking, wfq_weights=exp.wfq_weights,
                priorities=priorities)
            self.servers.append(srv)

        self.client_mode = spec.client_mode
        if self.client_mode:
            self.switch = None
            self.views = [ClientView(spec.n_servers) for _ in range(spec.clients)]
            self.view_k = spec.policy_k
            self.elig_all = list(range(spec.n_servers))
            self.rnd_choice = self.streams.get("sampling")
            self.dispatch_hist = [0] * spec.n_servers
        else:
            rnd_h = self.streams.get("hashing")
            salts = [rnd_h.getrandbits(61) for _ in range(exp.rt_stages)]
            policy_salt = rnd_h.getrandbits(61)
            fallback_salt = rnd_h.getrandbits(61)
            table = ReqTable(exp.rt_stages, exp.rt_slots, salts,
                             ttl_us=exp.rt_ttl_us)
            policy = make_policy(spec.policy_kind, len(spec.classes), policy_salt,
                                 k=spec.policy_k, bound=spec.policy_bound)
            self.switch = Switch(
                spec.n_servers, len(spec.classes), spec.loc_sets,
                list(spec.active0), policy, spec.tracking, table,
                self.streams.get("sampling"), self.streams.get("loss"),
                fallback_salt, rep_loss_prob=spec.rep_loss_prob,
                double_count_prob=spec.double_count_prob,
                trace_affinity=trace_affinity)
            for srv in self.servers:
                srv.drop_sink = self.switch.mark_dropped

        n_classes = len(spec.classes)
        self.samples = [[] for _ in range(n_classes)]
        self.arrivals = [0] * n_classes
        self.fallbacks = [0] * n_classes
        self.completed_total = 0
        self.client_dropped = 0
        self.census_system: dict = {}
        self.census_waiting: dict = {}
        self.bucket_us = exp.bucket_us
        self.buckets = [[] for _ in range(n_classes)] if self.bucket_us else []

    # -- rate control ------------------------------------------------------------

    def _set_rate(self, rate_rps: float):
        self._rate_pc = rate_rps / 1e6 / self.spec.clients

    def _next_gap(self, client: int) -> float:
        return -log(1.0 - self._arr_rnds[client]()) / self._rate_pc

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
        self.sim.schedule(now + self._next_gap(client), self._ev_send, arg)
        members = self.factory.make_request(client, t_send)
        if not members:
            return
        if self.w0 <= t_send < self.w1:
            arrivals = self.arrivals
            for req in members:
                req.measured = True
                arrivals[req.tag] += 1

        if self.client_mode:
            dst = self.views[client].choose(self.elig_all, self.view_k,
                                            self.rnd_choice)
            self.dispatch_hist[dst] += len(members)
            t_fwd = now + self.fwd_delay
            schedule = self.sim.schedule
            on_packet = self.servers[dst].on_packet
            offset = 0.0
            for req in members:
                for _ in range(req.packets):
                    schedule(t_fwd + offset, on_packet, req)
                    offset += self.gap_us
            return

        first = members[0]
        dst = self.switch.route_reqf(first, now)
        if dst is not None and dst >= 0:
            self._to_server(now, self.servers[dst].on_packet, first)
        if self._trailing:
            # trailing packets and any further group members follow as REQR
            offset = self.gap_us
            schedule = self.sim.schedule
            for _ in range(first.packets - 1):
                schedule(now + offset, self._ev_reqr, first)
                offset += self.gap_us
            for m in members[1:]:
                for _ in range(m.packets):
                    schedule(now + offset, self._ev_reqr, m)
                    offset += self.gap_us

    def _ev_reqr(self, now: float, req):
        dst = self.switch.route_reqr(req)
        if dst is not None and dst >= 0:
            self._to_server(now, self.servers[dst].on_packet, req)

    def _emit(self, req, sid: int, load, final: bool, now: float):
        """Server reply callback; fires the reply's switch arrival."""
        self._to_switch(now, self._ev_rep, (req, sid, load, final))

    def _ev_rep(self, now: float, arg):
        if self.client_mode:
            self.sim.schedule(now + self.rep_delay, self._ev_client_rep, arg)
            return
        req, src, load, final = arg
        delivered, release = self.switch.note_rep(req, src, load, final, now)
        if delivered:
            self._record(req, now + self.rep_delay)
        if release is not None:
            sreq, dst, follow = release
            on_packet = self.servers[dst].on_packet
            for m in (sreq, *follow):
                self._to_server(now, on_packet, m)

    def _ev_client_rep(self, now: float, arg):
        req, src, load, _final = arg
        self.views[req.client].observe(src, load)
        self._record(req, now)

    def _record(self, req, done: float):
        self.completed_total += 1
        if req.measured:
            tag = req.tag
            self.samples[tag].append(done - req.arrival)
            if req.fallback:
                self.fallbacks[tag] += 1
        if self.bucket_us:
            row = self.buckets[req.tag]
            idx = int(done / self.bucket_us)
            while len(row) <= idx:
                row.append(0)
            row[idx] += 1

    # -- timeline / instrumentation -------------------------------------------------

    def _ev_timeline(self, now: float, ev: dict):
        kind = ev["kind"]
        if kind == "switch_fail":
            for req in self.switch.fail():
                self.switch.mark_dropped(req)
            self.sim.schedule(now + ev["duration_us"], self._ev_recover, None)
        elif kind == "add_server":
            sid = ev["server"]
            self.servers[sid].failed = False
            self.switch.set_active(sid, True)
        elif kind == "remove_server":
            sid = ev["server"]
            self.switch.set_active(sid, False)
            if not ev["planned"]:
                for req in self.servers[sid].fail():
                    self.switch.mark_dropped(req)
                self.sim.schedule(now + ev["purge_delay_us"], self._ev_purge, sid)
        elif kind == "set_load":
            self._set_rate(ev["load"] * self.exp.capacity_rps)
            self._gen_token += 1
            arg_token = self._gen_token
            if self._rate_pc > 0.0:
                for c in range(self.spec.clients):
                    self.sim.schedule(now + self.d_cs + self._next_gap(c),
                                      self._ev_send, (c, arg_token))
        else:  # set_mix
            self.factory.set_weights(ev["weights"], now)

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
        spec, exp = self.spec, self.exp
        if self._rate_pc > 0.0:
            for c in range(spec.clients):
                self.sim.schedule(self.d_cs + self._next_gap(c),
                                  self._ev_send, (c, 0))
        for ev in exp.timeline:
            self.sim.schedule(ev["at_us"], self._ev_timeline, ev)
        if exp.census_interval_us is not None:
            self._rnd_census = self.streams.get("census")
            first = self.w0 - log(1.0 - self._rnd_census.random()) * exp.census_interval_us
            if first < self.w1:
                self.sim.schedule(first, self._ev_census, None)
        if self.switch is not None and exp.rt_ttl_us:
            self._maint_period = exp.rt_ttl_us / 2.0
            self.sim.schedule(self._maint_period, self._ev_maint, None)

        self.sim.run_until(self.hard_end)

        rec = MetricsRecord(
            class_tags=[c.tag for c in spec.classes],
            window=(self.w0, self.w1),
            samples=self.samples,
            arrivals=self.arrivals,
            completions=[len(s) for s in self.samples],
            fallbacks=self.fallbacks,
            injected=self.factory.created,
            completed=self.completed_total,
            dropped=(self.switch.dropped_requests if self.switch is not None
                     else self.client_dropped),
            dispatch_hist=(list(self.switch.dispatch_hist)
                           if self.switch is not None else list(self.dispatch_hist)),
            fallback_inserts=self.switch.fallback_insert if self.switch else 0,
            fallback_reads=self.switch.fallback_read if self.switch else 0,
            census_system=self.census_system,
            census_waiting=self.census_waiting,
            buckets=self.buckets,
            bucket_us=self.bucket_us or 0.0,
        )
        rec.wall_s = time.perf_counter() - t0
        return rec


def run_point(exp: ExperimentConfig, variant: str, load: float, seed: int,
              trace_affinity: bool = False) -> MetricsRecord:
    spec = exp.build_runspec(variant, load, seed)
    return RackRun(spec, trace_affinity=trace_affinity).run()


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
    raw, variant, load, seed = args
    exp = ExperimentConfig.from_dict(raw)
    rec = run_point(exp, variant, load, seed)
    rows = [((load, i, seed), _format_row(load, seed, i, rec))
            for i in range(len(rec.class_tags))]
    counts = (sum(rec.completions), rec.injected, rec.completed, rec.dropped)
    return variant, load, seed, rows, counts, rec.wall_s


def run_experiment(exp: ExperimentConfig, out_dir: str, parallel: int = 1,
                   log=None) -> list:
    """Run the full sweep and write one CSV per variant plus a manifest.
    Returns the written file paths."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(exp.raw, v, load, seed) for v, load, seed in exp.points()]
    if parallel > 1:
        with multiprocessing.Pool(parallel) as pool:
            results = pool.map(_point_job, jobs)
    else:
        results = []
        for job in jobs:
            res = _point_job(job)
            if log is not None:
                v, load, seed = res[0], res[1], res[2]
                log(f"{exp.name} {v} load={load:g} seed={seed} "
                    f"wall={res[5]:.2f}s")
            results.append(res)

    by_variant = {v: [] for v in exp.variants}
    manifest_pts = []
    for variant, load, seed, rows, counts, wall in results:
        by_variant[variant].extend(rows)
        measured, injected, completed, dropped = counts
        manifest_pts.append(
            f"point variant={variant} load={load:g} seed={seed} "
            f"measured={measured} injected={injected} completed={completed} "
            f"dropped={dropped} wall_s={wall:.3f}")

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
