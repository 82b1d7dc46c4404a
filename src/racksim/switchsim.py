"""Top-of-rack switch model: per-request scheduling over a LoadTable, a
multi-stage request-affinity table, pluggable inter-server policies, load
tracking mechanisms, a pipeline stage-budget model, and fault hooks.

First packets (REQF, `route_reqf`) pick a server and record the mapping;
subsequent packets (REQR, `route_reqr`) follow the mapping; final replies
(REP, `note_rep`) clear it and update tracked load.
A REQR whose mapping is missing (table overflow, post-failure) falls back to
hash routing over the *physical* membership of the request's locality set so
that every packet of a request still reaches one server.

Per-stage hashes use CPython's built-in tuple hashing (ints are not salted by
PYTHONHASHSEED, so placement is reproducible across runs on one platform).
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass

from .baselines import dispatch_random, hash_pick, least_of_k
from .engine import SimulationError

# load tracking mechanisms
INT1, INT2, INT3, PROACTIVE = "int1", "int2", "int3", "proactive"
TRACKING_KINDS = (INT1, INT2, INT3, PROACTIVE)


@dataclass(frozen=True)
class PipelineBudget:
    max_stages: int = 12
    comparisons_per_stage: int = 4
    reads_per_stage: int = 4


def stage_cost(policy_kind: str, n_servers: int, budget: PipelineBudget,
               k: int = 0) -> int:
    """Pipeline stages a policy consumes.

    A min-tree over s candidates costs sum over layers of
    ceil(layer_width / comparisons_per_stage), with layer widths halving.
    Sampling(k) prepends ceil(k / reads_per_stage) stages to read the
    sampled counters.
    """
    def tree(s: int) -> int:
        stages = 0
        while s > 1:
            width = s // 2
            stages += -(-width // budget.comparisons_per_stage)
            s = s - width
        return stages

    if policy_kind in ("hash", "rr", "random"):
        return 1
    if policy_kind in ("shortest", "jbsq"):
        return tree(n_servers)
    if policy_kind == "sampling":
        reads = -(-k // budget.reads_per_stage)
        return reads + tree(k)
    raise ValueError(f"unknown policy kind {policy_kind!r}")


class ReqTable:
    """Multi-stage hash table mapping req_id -> server.

    Insert probes each stage at that stage's hash of req_id and takes the
    first empty slot; a request whose probes are all occupied is not stored
    (the caller falls back to hash routing). Live slots are indexed with
    their insertion times, so TTL purging of stale mappings looks only at
    the few live entries, never at the whole table.

    Stages are laid out back to back in one flat list, so a slot number
    names both the stage and the index. `place` returns the slot it filled;
    a caller that keeps it can read and remove the mapping without hashing
    again. A req_id is placed at most once, so it can only ever sit in that
    slot, and a slot-hinted read or remove gives the same answer as a probe
    of every stage.
    """

    __slots__ = ("stages", "slots_per_stage", "salts", "_req", "_srv",
                 "ttl_us", "_live")

    def __init__(self, stages: int, slots_per_stage: int, salts: list[int],
                 ttl_us: float | None = None):
        if len(salts) != stages:
            raise SimulationError("one hash salt per stage required")
        self.stages = stages
        self.slots_per_stage = slots_per_stage
        self.salts = salts
        self._req = [0] * (stages * slots_per_stage)
        self._srv = [0] * (stages * slots_per_stage)
        self.ttl_us = ttl_us
        self._live: dict[int, float] = {}       # occupied slot -> insert time

    @property
    def occupancy(self) -> int:
        return len(self._live)

    def _find(self, req_id: int) -> int:
        m = self.slots_per_stage
        reqs = self._req
        base = 0
        for salt in self.salts:
            slot = base + hash((req_id, salt)) % m
            if reqs[slot] == req_id:
                return slot
            base += m
        return -1

    def place(self, req_id: int, server: int, now: float) -> int:
        """Store the mapping; returns its slot, or -1 if every probe was
        occupied."""
        m = self.slots_per_stage
        reqs = self._req
        base = 0
        for salt in self.salts:
            slot = base + hash((req_id, salt)) % m
            if reqs[slot] == 0:
                reqs[slot] = req_id
                self._srv[slot] = server
                self._live[slot] = now
                return slot
            base += m
        return -1

    def read(self, req_id: int, slot: int | None = None) -> int:
        """Server mapped to req_id, or -1. `slot` is the hint from place;
        None means unknown, as for the later members of a group, which share
        the first member's req_id and mapping."""
        if slot is None:
            slot = self._find(req_id)
        if slot >= 0 and self._req[slot] == req_id:
            return self._srv[slot]
        return -1

    def remove(self, req_id: int, slot: int | None = None) -> bool:
        if slot is None:
            slot = self._find(req_id)
        if slot >= 0 and self._req[slot] == req_id:
            self._req[slot] = 0
            del self._live[slot]
            return True
        return False

    def _drop(self, slots) -> int:
        reqs, live = self._req, self._live
        for slot in slots:
            reqs[slot] = 0
            del live[slot]
        return len(slots)

    def purge_stale(self, now: float) -> int:
        """Clear entries older than the TTL (lost replies, failed servers)."""
        if self.ttl_us is None:
            return 0
        horizon = now - self.ttl_us
        return self._drop([slot for slot, t in self._live.items()
                           if t <= horizon])

    def purge_server(self, server: int) -> int:
        """Drop every mapping onto one (failed) server."""
        srvs = self._srv
        return self._drop([slot for slot in self._live
                           if srvs[slot] == server])

    def clear(self) -> None:
        self._drop(list(self._live))


# A policy's select(loads, elig, rnd, req) picks a server for `req` from
# `elig`, its eligible servers, given `loads` indexed by server; JBSQ returns
# None when the request must stall.

class RandomPolicy:
    uses_outstanding = False

    def select(self, loads, elig, rnd, req):
        return dispatch_random(elig, rnd)


class HashRandomPolicy:
    uses_outstanding = False

    def __init__(self, salt: int):
        self.salt = salt

    def select(self, loads, elig, rnd, req):
        return hash_pick(req.req_id, elig, self.salt)


class RoundRobinPolicy:
    """Cyclic counter per class over the eligible list."""

    uses_outstanding = False

    def __init__(self, n_classes: int):
        self._next = [0] * n_classes

    def select(self, loads, elig, rnd, req):
        c = req.tag
        i = self._next[c]
        self._next[c] = i + 1
        return elig[i % len(elig)]


class SamplingPolicy:
    """Power-of-k-choices over the eligible set (`least_of_k`)."""

    uses_outstanding = False

    def __init__(self, k: int):
        if k < 1:
            raise SimulationError("sampling k must be >= 1")
        self.k = k

    def select(self, loads, elig, rnd, req):
        return least_of_k(loads, elig, self.k, rnd)


class JBSQPolicy:
    """Bounded shortest queue: least outstanding among servers below the
    bound; None means every eligible server is at the bound and the request
    stalls in the switch-side FIFO until a reply frees a slot."""

    uses_outstanding = True

    def __init__(self, bound: int):
        if bound < 1:
            raise SimulationError("jbsq bound must be >= 1")
        self.bound = bound

    def select(self, loads, elig, rnd, req):
        bound = self.bound
        best = -1
        bl = bound
        for s in elig:
            l = loads[s]
            if l < bl:
                bl = l
                best = s
        return best if best >= 0 else None


def make_policy(kind: str, n_classes: int, salt: int, k: int = 2, bound: int = 3):
    """`shortest` is sampling with every eligible server a candidate: the
    exact minimum, lowest index on ties."""
    if kind == "random":
        return RandomPolicy()
    if kind == "hash":
        return HashRandomPolicy(salt)
    if kind == "rr":
        return RoundRobinPolicy(n_classes)
    if kind == "shortest":
        return SamplingPolicy(sys.maxsize)
    if kind == "sampling":
        return SamplingPolicy(k)
    if kind == "jbsq":
        return JBSQPolicy(bound)
    raise ValueError(f"unknown policy kind {kind!r}")


class Switch:
    """Switch state machine: returns forwarding decisions, never schedules."""

    def __init__(self, n_servers: int, n_classes: int, loc_sets: list[list[int]],
                 active: list[bool], policy, tracking: str, reqtable: ReqTable,
                 rnd_sampling, rnd_loss, fallback_salt: int,
                 rep_loss_prob: float = 0.0, double_count_prob: float = 0.0,
                 trace_affinity: bool = False):
        if tracking not in TRACKING_KINDS:
            raise SimulationError(f"unknown tracking kind {tracking!r}")
        self.n_servers = n_servers
        self.n_classes = n_classes
        self.loc_sets = loc_sets            # physical membership, fixed per run
        self.active = active
        self.policy = policy
        self.reqtable = reqtable
        self.rnd_sampling = rnd_sampling
        self.rnd_loss = rnd_loss
        self.fallback_salt = fallback_salt
        self.rep_loss_prob = rep_loss_prob
        self.double_count_prob = double_count_prob

        if tracking == INT3:
            self.counters = [[0.0] * n_servers for _ in range(n_classes)]
        else:
            self.counters = [[0] * n_servers for _ in range(n_classes)]
        self.int2 = [[0, 0] for _ in range(n_classes)]   # (server, value) per class
        self.outstanding = [0] * n_servers               # jbsq +/- counts
        self.stalled: deque = deque()                    # jbsq FIFO of req_ids
        # req_id -> (first packet's request, [request of each buffered
        # follow-on packet]); a group's members share one req_id
        self._stall_buf: dict = {}
        self.failed = False

        self.elig: list[list[int]] = []
        self._rebuild_eligible()

        # routing specialised to the tracking mode and policy, bound once
        self._select = policy.select
        self._bounded = policy.uses_outstanding
        self._int2 = tracking == INT2
        self._proactive = tracking == PROACTIVE
        if self._int2:
            self.route_reqf = self._route_int2
        elif self._bounded:
            self.route_reqf = self._route_bounded
        else:
            self.route_reqf = self._route_counters

        self.dispatch_hist = [0] * n_servers
        self.fallback_insert = 0
        self.fallback_read = 0
        self.drops = 0
        self.dropped_requests = 0
        self.deliveries: dict | None = {} if trace_affinity else None
        self.affinity_violations = 0
        self.class_dispatch: list | None = (
            [dict() for _ in range(n_classes)] if trace_affinity else None)

    # -- eligibility / faults ------------------------------------------------

    def _rebuild_eligible(self):
        self.elig = [[s for s in members if self.active[s]] for members in self.loc_sets]

    def set_active(self, server: int, flag: bool):
        self.active[server] = flag
        self._rebuild_eligible()

    def fail(self):
        """Switch goes dark: every packet is dropped until recover().
        Returns the requests held in the JBSQ stall buffer, each once."""
        self.failed = True
        stalled = []
        for rid in self.stalled:
            sreq, follow = self._stall_buf.pop(rid)
            for req in (sreq, *follow):
                if req not in stalled:
                    stalled.append(req)
        self.stalled.clear()
        return stalled

    def recover(self):
        """Resume with empty ReqTable and zeroed LoadTable."""
        self.failed = False
        self.reqtable.clear()
        for row in self.counters:
            for s in range(self.n_servers):
                row[s] = 0
        self.int2 = [[0, 0] for _ in range(self.n_classes)]
        self.outstanding = [0] * self.n_servers

    def mark_dropped(self, req) -> None:
        self.drops += 1
        if not req.dropped:
            req.dropped = True
            self.dropped_requests += 1

    # -- affinity instrumentation (tests) -------------------------------------

    def _trace(self, req_id: int, server: int):
        seen = self.deliveries.get(req_id)
        if seen is None:
            self.deliveries[req_id] = server
        elif seen != server:
            self.affinity_violations += 1

    # -- packet handling -----------------------------------------------------

    def _fallback(self, req) -> int:
        members = self.loc_sets[req.locality]
        return hash_pick(req.req_id, members, self.fallback_salt)

    # route_reqf(req, now) picks a server for a first packet. It returns the
    # server id, or None if dropped (switch down), or -1 if stalled (JBSQ at
    # bound). The constructor binds one of the three variants below.

    def _route_counters(self, req, now: float):
        """Policy pick over the tracked load counters of the request's class."""
        if self.failed:
            self.mark_dropped(req)
            return None
        elig = self.elig[req.locality]
        if not elig:
            raise SimulationError("no eligible server for locality class")
        dst = self._select(self.counters[req.tag], elig, self.rnd_sampling, req)
        return self._dispatch(req, dst, now)

    def _route_int2(self, req, now: float):
        """The class's single tracked (server, minimum) pair decides, when
        that server is eligible for the request's locality set."""
        if self.failed:
            self.mark_dropped(req)
            return None
        elig = self.elig[req.locality]
        if not elig:
            raise SimulationError("no eligible server for locality class")
        dst = self.int2[req.tag][0]
        if dst not in elig:
            dst = elig[0]
        return self._dispatch(req, dst, now)

    def _route_bounded(self, req, now: float):
        """Pick over the switch's own outstanding counts; stall at the bound."""
        if self.failed:
            self.mark_dropped(req)
            return None
        elig = self.elig[req.locality]
        if not elig:
            raise SimulationError("no eligible server for locality class")
        dst = self._select(self.outstanding, elig, self.rnd_sampling, req)
        if dst is None:
            self.stalled.append(req.req_id)
            self._stall_buf[req.req_id] = (req, [])
            return -1
        return self._dispatch(req, dst, now)

    def _dispatch(self, req, dst: int, now: float) -> int:
        slot = self.reqtable.place(req.req_id, dst, now)
        req.slot = slot
        if slot < 0:
            self.fallback_insert += 1
            req.fallback = True
            dst = self._fallback(req)
        if self._int2:
            pair = self.int2[req.tag]
            if dst == pair[0]:
                pair[1] += 1  # the tracked minimum just received one more
        elif self._proactive:
            row = self.counters[req.tag]
            if self.double_count_prob > 0.0 and self.rnd_loss.random() < self.double_count_prob:
                row[dst] += 2
            else:
                row[dst] += 1
        if self._bounded:
            self.outstanding[dst] += 1
        self.dispatch_hist[dst] += 1
        if self.deliveries is not None:
            self._trace(req.req_id, dst)
            d = self.class_dispatch[req.tag]
            d[dst] = d.get(dst, 0) + 1
        return dst

    def route_reqr(self, req):
        """Route a follow-on packet via the stored mapping; fall back to the
        locality-stable hash when the mapping is gone."""
        if self.failed:
            self.mark_dropped(req)
            return None
        rid = req.req_id
        buf = self._stall_buf.get(rid)
        if buf is not None:
            buf[1].append(req)
            return -1
        dst = self.reqtable.read(rid, req.slot)
        if dst < 0:
            self.fallback_read += 1
            req.fallback = True
            dst = self._fallback(req)
        if self.deliveries is not None:
            self._trace(rid, dst)
        return dst

    def note_rep(self, req, src: int, load_report: float, final: bool, now: float):
        """Process a reply passing through: clear the mapping, update tracked
        load, release a stalled request if JBSQ. Returns (delivered, release)
        where release is None or (req, dst, follow): `follow` holds, in
        arrival order, the request of each follow-on packet buffered with
        it, its own trailing packets and its group's other members alike."""
        if self.failed:
            self.mark_dropped(req)
            return False, None
        release = None
        if final:
            self.reqtable.remove(req.req_id, req.slot)
            if self.rep_loss_prob > 0.0 and self.rnd_loss.random() < self.rep_loss_prob:
                pass  # reply's tracking effect lost (retransmission cleans up)
            else:
                c = req.tag
                if self._int2:
                    # replace the stored server's value, or the pair if smaller
                    pair = self.int2[c]
                    if src == pair[0]:
                        pair[1] = load_report
                    elif load_report < pair[1]:
                        pair[0] = src
                        pair[1] = load_report
                elif self._proactive:
                    row = self.counters[c]
                    if row[src] > 0:
                        row[src] -= 1
                else:  # INT1, INT3: the report overwrites
                    self.counters[c][src] = load_report
            if self._bounded:
                if self.outstanding[src] > 0:
                    self.outstanding[src] -= 1
                if self.stalled:
                    rid = self.stalled.popleft()
                    sreq, follow = self._stall_buf.pop(rid)
                    elig = self.elig[sreq.locality]
                    dst = self._select(self.outstanding, elig,
                                       self.rnd_sampling, sreq)
                    if dst is None:
                        # released slot raced away; put it back at the head
                        self.stalled.appendleft(rid)
                        self._stall_buf[rid] = (sreq, follow)
                    else:
                        release = (sreq, self._dispatch(sreq, dst, now), follow)
        return True, release
