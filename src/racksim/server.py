"""Server model: W workers draining per-server queues under a preemptive
intra-server discipline.

`DISCIPLINES` names each discipline by the request attribute that picks its
queue and by whether a quantum is capped at the optional preemption
threshold (run to completion) or at the slice (sharing). Without an
attribute there is one FIFO (cfcfs, ps); `tag` gives per-class queues served
by earliest head arrival (mq-cfcfs, mq-ps); `priority` gives per-level
queues served highest first, an arrival preempting lower-priority work
(priority); `client` gives per-client queues served weighted round-robin in
quanta (wfq). Every discipline hands a freed worker the pick if anything is
queued and otherwise idles it; an arrival that finds a worker idle starts at
once, under WFQ as a fresh turn of its client.

Push (enqueue at the tail), pick (take the next request to serve), cap and
coalescing are bound once, at construction; no discipline is compared per
event. The server owns its timers, one `_on_worker` per worker, at a slice
end, a run end or the end of a preemption's switch latency (when the worker
holds no request); cancellation is by per-worker tokens (a stale token means
the worker was reassigned and the event is void). A token is the event's
only argument: tokens of worker `wid` are congruent to `wid` modulo the
worker count, so the token also names its worker. A reply goes out through
the server-to-switch push and handler the server is given at construction,
as `reply(now, on_reply, (req, sid, load, final))`, and each request a
failure loses, or a packet that reaches a failed server, goes to the drop
sink it is given with them, so the server never needs to know about network
delays or the switch.
No server holds a multi-packet request before its last packet: the request
records `(server, epoch)` for each server its packets reach, and at the last
one goes to the drop sink if any of them has failed (`epoch`) since.

One timer per uninterrupted run. A sliced request whose worker finds nothing
else queued at a slice end is handed straight back to the same worker, so
while the server's queues stay empty its slices run back to back. With no
queue attribute or `tag` and a cap, `_assign` then schedules a single
timer for the end of the whole run instead of one per slice. The end time
is summed slice by slice, exactly as the per-slice timers would have
advanced the clock, so every float is the same. When a request queues
behind busy workers, `_cut_runs` puts each such run back on per-slice
timers from the slice in progress, and the run-end event goes stale. int3
load reports, strict priority and WFQ read each slice's state, so they keep
one timer per slice.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

from .engine import SimulationError
from .switchsim import INT3

# name -> (request attribute that picks the queue, or None for one queue;
#          True if a quantum is capped at the preemption threshold, False if
#          at the slice)
DISCIPLINES = {
    "cfcfs": (None, True),
    "ps": (None, False),
    "mq-cfcfs": ("tag", True),
    "mq-ps": ("tag", False),
    "priority": ("priority", True),
    "wfq": ("client", False),
}


class Server:
    def __init__(self, sid: int, n_workers: int, intra: str, sim, reply,
                 on_reply, drop_sink, n_classes: int = 1, slice_us: float = 25.0,
                 preempt_threshold_us: float | None = None,
                 ctx_switch_us: float = 0.0, preempt_latency_us: float = 5.0,
                 tracking: str = "int1", wfq_weights: list[float] | None = None,
                 priorities: list[int] | None = None):
        if intra not in DISCIPLINES:
            raise SimulationError(f"unknown intra-server policy {intra!r}")
        key, to_threshold = DISCIPLINES[intra]
        if key == "client" and not wfq_weights:
            raise SimulationError("wfq requires per-client weights")
        self.sid = sid
        self.n_workers = n_workers
        self.sim = sim
        self.reply = reply          # push(now, fn, arg) toward the switch
        self.on_reply = on_reply    # the handler each reply fires there
        self.drop_sink = drop_sink  # takes each request lost to a failure
        self.n_classes = n_classes
        self.cap = preempt_threshold_us if to_threshold else slice_us
        self.ctx_us = ctx_switch_us
        self.preempt_lat_us = preempt_latency_us
        self.int3 = tracking == INT3
        self._coalesce = (self.cap is not None and not self.int3
                          and key in (None, "tag"))
        # a busy arrival preempts running lower-priority work
        self._preempts = key == "priority"
        # An idle worker implies empty queues, so an arrival that finds one
        # is the only candidate and starts at once. Under WFQ it also starts
        # its client's turn with zero credit: the queues emptied since the
        # worker went idle, and that forfeited what the last turn left.
        self._credit = key == "client"

        self.on_packet, self._timer = self.on_packet, self._on_worker  # bound once
        self.w_start = [0.0] * n_workers
        # quantum of the running slice; above the cap, a coalesced run, whose
        # quantum is the request's whole remaining service
        self.w_q = [0.0] * n_workers
        self.w_token = list(range(n_workers))    # token % n_workers == wid
        self.w_last: list = [None] * n_workers

        # key value -> queue, in the order a pick scans them
        if key is None:
            q: deque = deque()
            self._queues = {0: q}
            self._push = q.append
            self._pick = q.popleft
        else:
            if key == "priority":
                levels = sorted(set(priorities or [0]), reverse=True)
                self._pick = self._pick_highest_priority
            elif key == "client":
                self.weights = [int(w) for w in wfq_weights]
                levels = range(len(self.weights))
                self.wfq_idx = 0
                self.wfq_credit = 0
                self._pick = self._pick_weighted
            else:
                levels = range(n_classes)
                self._pick = self._pick_earliest_head
            self._queues = {v: deque() for v in levels}
            self._key = attrgetter(key)
            self._push = self._push_keyed

        self._empty()
        self.failed = False
        self.epoch = 0      # failures so far

    def _empty(self) -> None:
        """No request queued or running."""
        for q in self._queues.values():
            q.clear()
        self.w_req: list = [None] * self.n_workers
        self.idle = list(range(self.n_workers - 1, -1, -1))
        self.busy = 0
        self.in_system = 0                          # queued + running
        self.outstanding = [0] * self.n_classes     # queued + running, per class
        self.rem_sum = [0.0] * self.n_classes       # remaining service, per class (int3)
        self._runs = 0          # coalesced runs started since the last cut

    # -- packet arrival --------------------------------------------------------

    def on_packet(self, now: float, req) -> None:
        """One request packet delivered (event-handler signature); the request
        enters the queue once all its packets are here."""
        if self.failed:
            self.drop_sink(req)
            return
        if req.packets > 1:
            if req.dropped:     # lost with a failed server or at the switch
                return
            left = req.pkts_pending - 1
            req.pkts_pending = left
            if left == req.packets - 1:
                req.reached = [(self, self.epoch)]
            elif req.reached[-1][0] is not self:    # split across servers
                req.reached.append((self, self.epoch))
            if left > 0:
                return
            for srv, epoch in req.reached:
                if srv.epoch != epoch:      # failed since a packet landed
                    self.drop_sink(req)
                    return
        tag = req.tag
        self.outstanding[tag] += 1
        if self.int3:
            self.rem_sum[tag] += req.remaining
        self.in_system += 1
        idle = self.idle
        if idle:
            if self._credit:
                self.wfq_credit = 0
                self._push(req)
                req = self._pick()
            self._assign(idle.pop(), req, now)
            return
        self._push(req)
        if self._preempts:
            self._maybe_preempt(req.priority, now)
        elif self._runs:
            self._cut_runs(now)

    # -- queue disciplines: push at the tail, pick the next to serve -------------
    # A pick is only made while something is queued (in_system > busy, as
    # in_system counts queued plus running and busy counts running).

    def _push_keyed(self, req) -> None:
        self._queues[self._key(req)].append(req)

    def _pick_earliest_head(self):
        best = None
        bt = 0.0
        for q in self._queues.values():
            if q:
                t = q[0].arrival
                if best is None or t < bt:
                    bt = t
                    best = q
        return best.popleft()

    def _pick_highest_priority(self):
        for q in self._queues.values():
            if q:
                return q.popleft()

    def _pick_weighted(self):
        """Weighted round-robin over clients in slice quanta."""
        order = self.weights
        n = len(order)
        for _ in range(n):
            q = self._queues[self.wfq_idx]
            if q:
                if self.wfq_credit <= 0:
                    self.wfq_credit = order[self.wfq_idx]
                self.wfq_credit -= 1
                req = q.popleft()
                if self.wfq_credit <= 0:
                    self.wfq_idx = (self.wfq_idx + 1) % n
                return req
            self.wfq_idx = (self.wfq_idx + 1) % n
            self.wfq_credit = 0

    # -- dispatch / timers -----------------------------------------------------

    def _assign(self, wid: int, req, now: float) -> None:
        rem = req.remaining
        cap = self.cap
        start = now
        if self.ctx_us > 0.0 and self.w_last[wid] is not req:
            start = now + self.ctx_us
        self.w_req[wid] = req
        self.w_start[wid] = start
        self.busy += 1
        token = self.w_token[wid] + self.n_workers
        self.w_token[wid] = token
        if cap is None or rem <= cap:
            end = start + rem
            self.w_q[wid] = rem
        elif self._coalesce and self.in_system == self.busy:
            # nothing else queued: one timer for the whole run, its end
            # summed slice by slice; `remaining -= rem` at the end leaves
            # 0.0, as the last slice's `r - r` does
            end = start
            while rem > cap:
                end += cap
                rem -= cap
            end += rem
            self.w_q[wid] = req.remaining
            self._runs += 1
        else:
            end = start + cap
            self.w_q[wid] = cap
        self.sim.schedule(end, self._timer, token)

    def _cut_runs(self, now: float) -> None:
        """A request queued behind busy workers: every coalesced run goes
        back to per-slice timers from the slice in progress, with the state
        the per-slice path would hold. A slice boundary at `now` has passed:
        its timer, scheduled a whole slice before, fires ahead of an arrival
        forwarded a network hop before."""
        cap = self.cap
        w_q = self.w_q
        for wid in range(self.n_workers):
            rem = w_q[wid]
            if rem <= cap:
                continue
            start = self.w_start[wid]
            while rem > cap and start + cap <= now:
                start += cap
                rem -= cap
            self.w_req[wid].remaining = rem
            self.w_start[wid] = start
            if rem > cap:
                w_q[wid] = cap
                token = self.w_token[wid] + self.n_workers
                self.w_token[wid] = token
                self.sim.schedule(start + cap, self._timer, token)
            else:
                w_q[wid] = rem      # the last slice: the run-end timer stands
        self._runs = 0

    def _on_worker(self, now: float, token: int) -> None:
        wid = token % self.n_workers
        if self.w_token[wid] != token:
            return
        req = self.w_req[wid]
        if req is not None:     # None: a preemption's switch latency ended
            q = self.w_q[wid]
            req.remaining -= q
            tag = req.tag
            if self.int3:
                self.rem_sum[tag] -= q
            self.w_req[wid] = None
            self.w_last[wid] = req
            self.busy -= 1
            if req.remaining <= 0.0:
                self.outstanding[tag] -= 1
                self.in_system -= 1
                group = req.group
                if group is None:
                    final = True
                else:
                    group.done += 1
                    final = group.done >= group.size
                load = (self.current_load(tag, now) if self.int3
                        else self.outstanding[tag])
                self.reply(now, self.on_reply, (req, self.sid, load, final))
            else:
                self._push(req)
        if self.in_system > self.busy:
            self._assign(wid, self._pick(), now)
        else:
            self.idle.append(wid)

    def current_load(self, tag: int, now: float) -> float:
        """INT3's piggybacked load: remaining service microseconds of the
        class, excluding any request that just left. Under the other
        tracking kinds a reply carries `outstanding[tag]`."""
        rem = self.rem_sum[tag]
        w_req = self.w_req
        w_start = self.w_start
        for wid in range(self.n_workers):
            r = w_req[wid]
            if r is not None and r.tag == tag:
                elapsed = now - w_start[wid]
                if elapsed > 0.0:
                    rem -= elapsed
        return rem if rem > 0.0 else 0.0

    # -- strict-priority preemption ---------------------------------------------

    def _maybe_preempt(self, incoming_prio: int, now: float) -> None:
        victim_wid = -1
        victim_prio = incoming_prio
        for wid in range(self.n_workers):
            r = self.w_req[wid]
            if r is not None and r.priority < victim_prio:
                victim_prio = r.priority
                victim_wid = wid
        if victim_wid < 0:
            return
        req = self.w_req[victim_wid]
        elapsed = now - self.w_start[victim_wid]
        if elapsed > 0.0:
            req.remaining -= elapsed
            if self.int3:
                self.rem_sum[req.tag] -= elapsed
        token = self.w_token[victim_wid] + self.n_workers
        self.w_token[victim_wid] = token
        self.w_req[victim_wid] = None
        self.w_last[victim_wid] = req
        self.busy -= 1
        # victim was in service: it resumes from the head of its own queue
        self._queues[self._key(req)].appendleft(req)
        self.sim.schedule(now + self.preempt_lat_us, self._timer, token)

    # -- faults ------------------------------------------------------------------

    def fail(self) -> None:
        """Unplanned removal: every queued and running request is lost to the
        drop sink, and every pending timer goes stale. A request with only
        some packets here is dropped at its last, by the epoch check."""
        for held in (*self._queues.values(), self.w_req):
            for req in held:
                if req is not None:
                    self.drop_sink(req)
        self.w_token = [t + self.n_workers for t in self.w_token]
        self._empty()
        self.epoch += 1
        self.failed = True
