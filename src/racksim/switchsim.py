"""Top-of-rack switch model: per-request scheduling over a load table, a
multi-stage request-affinity table, pluggable inter-server policies, load
tracking mechanisms, a pipeline stage-budget model, and fault hooks.

First packets (REQF, `route_reqf`) pick a server and record the mapping;
subsequent packets (REQR, `route_reqr`) follow the mapping; final replies
(REP, `note_rep`) clear it and update tracked load.
There is one `route_reqf`: it selects over the request's class row of
`loads`, a per-class load table built at construction. The policy says what
its rows hold: the tracked counters (int1, int3, proactive), the class's
(server, minimum) pair for the `int2` policy, or, for JBSQ, one row of
outstanding counts that every class shares. JBSQ counts that row as
proactive tracking does: one up on dispatch, one down at the final reply.
A request JBSQ cannot place waits in `stalled`, one FIFO map from req_id to
the request and its buffered follow-on packets.
A request whose locality set has no active server is dropped, at its first
packet or, if it is stalled, when the set's last active server goes down.
A REQR whose mapping is missing (table overflow, post-failure) falls back to
hash routing over the *physical* membership of the request's locality set so
that every packet of a request still reaches one server.
Every run counts dispatches per (class, server), and affinity violations:
fallbacks off the server of a purged or cleared mapping (`ReqTable.purged`).
Each policy's `select` is its chooser, called once per dispatch, and
`make_policy` builds every kind. Every request passes through the switch
whatever the policy: client-based dispatch is `ClientPolicy`, whose `select`
returns the server the request's client picked with `SamplingPolicy.select`
over its own view (`baselines.ClientView`).
The request table is keyed by req_id, so a read or remove needs no probe.

Per-stage hashes use CPython's built-in tuple hashing (ints are not salted by
PYTHONHASHSEED, so placement is reproducible across runs on one platform).
"""

from __future__ import annotations

import sys
from collections import OrderedDict

from .baselines import ClientView, hash_pick
from .engine import SimulationError

# load tracking mechanisms; int2's tracked pair is a policy of its own
INT1, INT3, PROACTIVE = "int1", "int3", "proactive"
TRACKING_KINDS = (INT1, INT3, PROACTIVE)

# pipeline budget of the switch: stages, comparisons and reads per stage
MAX_STAGES = 12
COMPARISONS_PER_STAGE = 4
READS_PER_STAGE = 4


def stage_cost(kind: str, n_servers: int, k: int = 0) -> int:
    """Pipeline stages a policy consumes.

    A min-tree over s candidates costs sum over layers of
    ceil(layer_width / COMPARISONS_PER_STAGE), with layer widths halving.
    Sampling(k) prepends ceil(k / READS_PER_STAGE) stages to read the
    sampled counters. Client dispatch picks at the clients, so the switch
    only forwards; int2 reads its one tracked pair.
    """
    def tree(s: int) -> int:
        stages = 0
        while s > 1:
            width = s // 2
            stages += -(-width // COMPARISONS_PER_STAGE)
            s = s - width
        return stages

    if kind in ("hash", "rr", "random", "client", "int2"):
        return 1
    if kind in ("shortest", "jbsq"):
        return tree(n_servers)
    if kind == "sampling":
        reads = -(-k // READS_PER_STAGE)
        return reads + tree(k)
    raise ValueError(f"unknown policy kind {kind!r}")


class ReqTable:
    """Multi-stage hash table mapping req_id -> server, one stage per salt.

    Insert probes each stage at that stage's hash of req_id and takes the
    first empty slot; a request whose probes are all occupied is not stored
    (the caller falls back to hash routing).

    Stages are numbered back to back, so a slot number names both the stage
    and the index. Only live mappings are stored: one dict from req_id to
    (slot, server, insert time) and the set of occupied slots, which `place`
    probes. Set-up and memory follow the requests in flight, not stages x
    slots, and TTL purging looks only at the live entries. The system places
    a req_id at most once while it is live, so reads, removes and purges
    answer by req_id alone, with no probe. `purged` keeps, for the rest of
    the run, one req_id -> server entry per mapping a purge or `clear` drops;
    a final reply's `remove` keeps none, as no packet of its request follows.
    """

    __slots__ = ("slots_per_stage", "salts", "ttl_us", "purged", "_live", "_used")

    def __init__(self, slots_per_stage: int, salts: list[int], ttl_us: float):
        self.slots_per_stage = slots_per_stage
        self.salts = salts
        self.ttl_us = ttl_us
        self.purged: dict[int, int] = {}
        self._live: dict[int, tuple[int, int, float]] = {}
        self._used: set[int] = set()

    @property
    def occupancy(self) -> int:
        return len(self._live)

    def place(self, req_id: int, server: int, now: float) -> int:
        """Store the mapping; returns its slot, or -1 if every probe was
        occupied."""
        m = self.slots_per_stage
        used = self._used
        base = 0
        for salt in self.salts:
            slot = base + hash((req_id, salt)) % m
            if slot not in used:
                used.add(slot)
                self._live[req_id] = (slot, server, now)
                return slot
            base += m
        return -1

    def read(self, req_id: int) -> int:
        """Server mapped to req_id, or -1."""
        entry = self._live.get(req_id)
        return -1 if entry is None else entry[1]

    def remove(self, req_id: int) -> bool:
        entry = self._live.pop(req_id, None)
        if entry is None:
            return False
        self._used.remove(entry[0])
        return True

    def _drop(self, req_ids) -> int:
        for req_id in req_ids:
            slot, self.purged[req_id], _ = self._live.pop(req_id)
            self._used.remove(slot)
        return len(req_ids)

    def purge_stale(self, now: float) -> int:
        """Clear entries older than the TTL (lost replies, failed servers)."""
        horizon = now - self.ttl_us
        return self._drop([rid for rid, e in self._live.items()
                           if e[2] <= horizon])

    def purge_server(self, server: int) -> int:
        """Drop every mapping onto one (failed) server."""
        return self._drop([rid for rid, e in self._live.items()
                           if e[1] == server])

    def clear(self) -> None:
        self._drop(list(self._live))


# A policy's select(loads, elig, rnd, req) picks a server for `req` from
# `elig`, its eligible servers, given `loads`, its class's row of the
# switch's load table; JBSQ returns None when the request must stall.

class Policy:
    """What a policy's load rows hold: by default the tracked counters,
    indexed by server; JBSQ's one shared row of outstanding counts, or
    int2's (server, minimum) pair per class. `views` are the clients' own
    load views, which only client-based dispatch keeps."""

    uses_outstanding = False
    tracks_pair = False
    views = None


class RandomPolicy(Policy):
    """Uniform pick among the eligible servers."""

    def select(self, loads, elig, rnd, req):
        return elig[int(rnd.random() * len(elig))]


class HashRandomPolicy(Policy):
    def __init__(self, salt: int):
        self.salt = salt

    def select(self, loads, elig, rnd, req):
        return hash_pick(req.req_id, elig, self.salt)


class RoundRobinPolicy(Policy):
    """Cyclic counter per class over the eligible list."""

    def __init__(self, n_classes: int):
        self._next = [0] * n_classes

    def select(self, loads, elig, rnd, req):
        c = req.tag
        i = self._next[c]
        self._next[c] = i + 1
        return elig[i % len(elig)]


class SamplingPolicy(Policy):
    """Power-of-k-choices over the eligible set: k distinct eligible servers
    sampled uniformly, least load wins, lowest index on ties (Mitzenmacher,
    IEEE TPDS 2001). With k >= len(elig) every eligible server is a
    candidate, the first minimum in eligible order wins and no random number
    is drawn."""

    def __init__(self, k: int):
        if k < 1:
            raise SimulationError("sampling k must be >= 1")
        self.k = k

    def select(self, loads, elig, rnd, req):
        n = len(elig)
        k = self.k
        if k >= n:
            # an explicit loop: min(elig, key=loads.__getitem__) gives the
            # same answer but measured about twice as slow over 8 servers
            best = elig[0]
            bl = loads[best]
            for s in elig:
                l = loads[s]
                if l < bl:
                    bl = l
                    best = s
            return best
        if k == 2:
            i = int(rnd.random() * n)
            j = int(rnd.random() * (n - 1))
            if j >= i:
                j += 1
            a = elig[i]
            b = elig[j]
            la = loads[a]
            lb = loads[b]
            if lb < la or (lb == la and b < a):
                return b
            return a
        picked = []
        while len(picked) < k:
            s = elig[int(rnd.random() * n)]
            if s not in picked:
                picked.append(s)
        best = picked[0]
        bl = loads[best]
        for s in picked[1:]:
            l = loads[s]
            if l < bl or (l == bl and s < best):
                bl = l
                best = s
        return best


class JBSQPolicy(SamplingPolicy):
    """Bounded shortest queue: least outstanding among servers below the
    bound, by the sampling policy's full scan; None means every eligible
    server is at the bound and the request stalls in the switch-side FIFO
    until a reply frees a slot."""

    uses_outstanding = True

    def __init__(self, bound: int):
        if bound < 1:
            raise SimulationError("jbsq bound must be >= 1")
        super().__init__(sys.maxsize)
        self.bound = bound

    def select(self, loads, elig, rnd, req):
        best = SamplingPolicy.select(self, loads, elig, rnd, req)
        return best if loads[best] < self.bound else None


class Int2Policy(Policy):
    """INT2: each class's row is one tracked (server, minimum) pair. A
    report from the pair's server, or a smaller one from another server,
    replaces it, and each dispatch to the pair's server counts it up. Every
    request of the class goes to the pair's server when that server is
    eligible for its locality set, else to the set's first eligible server,
    so a class herds onto one server until a report moves the pair."""

    tracks_pair = True

    def select(self, pair, elig, rnd, req):
        return pair[0] if pair[0] in elig else elig[0]


class ClientPolicy(Policy):
    """Client-based dispatch: the request's client picks by power-of-k
    sampling over its own view, which the runner hands each reply's load
    report; `loads` go unread."""

    def __init__(self, k: int, n_servers: int, clients: int):
        select = SamplingPolicy(k).select
        self.views = [ClientView(n_servers, select) for _ in range(clients)]

    def select(self, loads, elig, rnd, req):
        return self.views[req.client].choose(elig, rnd)


def make_policy(kind: str, n_classes: int, salt: int, k: int = 2, bound: int = 3,
                n_servers: int = 0, clients: int = 0):
    """Every kind the switch runs. `shortest` is sampling with every
    eligible server a candidate: the exact minimum, lowest index on ties."""
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
    if kind == "int2":
        return Int2Policy()
    if kind == "client":
        return ClientPolicy(k, n_servers, clients)
    raise ValueError(f"unknown policy kind {kind!r}")


class Switch:
    """Switch state machine: returns forwarding decisions, never schedules.
    Every run counts `dispatched[c][s]`, class c's dispatches to server s,
    and `affinity_violations` against the table's purged mappings."""

    def __init__(self, n_servers: int, n_classes: int, loc_sets: list[list[int]],
                 active: list[bool], policy, tracking: str, reqtable: ReqTable,
                 rnd_sampling, rnd_loss, fallback_salt: int,
                 rep_loss_prob: float = 0.0):
        if tracking not in TRACKING_KINDS:
            raise SimulationError(f"unknown tracking kind {tracking!r}")
        self.n_servers = n_servers
        self.loc_sets = loc_sets            # physical membership, fixed per run
        self.active = active
        self.policy = policy
        self.reqtable = reqtable
        self.rnd_sampling = rnd_sampling
        self.rnd_loss = rnd_loss
        self.fallback_salt = fallback_salt
        self.rep_loss_prob = rep_loss_prob
        # req_id -> (first packet's request, [request of each buffered
        # follow-on packet]), in stall order; a group's members share one
        # req_id
        self.stalled: OrderedDict = OrderedDict()
        self.failed = False

        self._rebuild_eligible()            # sets `elig`

        # route_reqf selects over the request's class row of `loads`, both
        # bound once here; recover() zeroes the rows in place to keep them.
        # JBSQ counts outstanding requests as proactive tracking does, over
        # one row every class shares: `outstanding`, all zeros otherwise.
        # An int2 pair takes its reports whatever `tracking` says.
        self.outstanding = [0] * n_servers
        self._int2 = policy.tracks_pair
        self._proactive = not self._int2 and (
            tracking == PROACTIVE or policy.uses_outstanding)
        self._select = policy.select
        if policy.uses_outstanding:
            self.loads = [self.outstanding] * n_classes
        elif self._int2:
            self.loads = [[0, 0] for _ in range(n_classes)]  # (server, value)
        else:
            self.loads = [[0] * n_servers for _ in range(n_classes)]

        self.dispatched = [[0] * n_servers for _ in range(n_classes)]
        self.fallback_insert = 0
        self.fallback_read = 0
        self.dropped_requests = 0
        self.affinity_violations = 0

    @property
    def dispatch_hist(self) -> list:
        return [sum(col) for col in zip(*self.dispatched)]

    @property
    def class_dispatch(self) -> list:
        return [{s: n for s, n in enumerate(row) if n} for row in self.dispatched]

    # -- eligibility / faults ------------------------------------------------

    def _rebuild_eligible(self):
        self.elig = [[s for s in members if self.active[s]] for members in self.loc_sets]

    def set_active(self, server: int, flag: bool, now: float) -> list:
        """Bring a server up or take it down. A stalled request whose set
        this leaves with no active server is dropped. A server that comes up
        can take stalled JBSQ requests: the head of the stall FIFO is
        released for as long as it places, as a final reply releases it.
        Returns the releases, each (req, dst, follow) as in `note_rep`."""
        self.active[server] = flag
        self._rebuild_eligible()
        self._drop_stalled([rid for rid, (sreq, _) in self.stalled.items()
                            if not self.elig[sreq.locality]])
        releases = []
        while flag and self.stalled:
            release = self._release_head(now)
            if release is None:
                break
            releases.append(release)
        return releases

    def fail(self):
        """Switch goes dark: every packet is dropped until recover(), the
        stalled ones included."""
        self.failed = True
        self._drop_stalled(list(self.stalled))

    def _drop_stalled(self, rids) -> None:
        """Drop the stalled requests `rids`, with their buffered packets."""
        for rid in rids:
            sreq, follow = self.stalled.pop(rid)
            for req in (sreq, *follow):
                self.mark_dropped(req)

    def forget_server(self, server: int) -> None:
        """A failed server comes back empty: zero its entry in every row the
        switch counts itself (JBSQ's `outstanding`, the proactive rows), as
        the requests those counts stood for were lost and never reply."""
        if self._proactive:
            for row in self.loads:
                row[server] = 0

    def recover(self):
        """Resume with empty ReqTable and zeroed load table."""
        self.failed = False
        self.reqtable.clear()
        for row in self.loads:
            row[:] = [0] * len(row)

    def mark_dropped(self, req) -> None:
        """Count a lost request once."""
        if not req.dropped:
            req.dropped = True
            self.dropped_requests += 1

    # -- packet handling -----------------------------------------------------

    def _fallback(self, req) -> int:
        members = self.loc_sets[req.locality]
        return hash_pick(req.req_id, members, self.fallback_salt)

    def route_reqf(self, req, now: float):
        """Pick a server for a first packet: the bound `_select` over the
        request's class row of `loads`, within its eligible set. Returns the
        server id, or None if dropped (switch down, or no active server in
        the request's locality set), or -1 if stalled (JBSQ at bound)."""
        elig = self.elig[req.locality]
        if self.failed or not elig:
            self.mark_dropped(req)
            return None
        dst = self._select(self.loads[req.tag], elig, self.rnd_sampling, req)
        if dst is None:
            self.stalled[req.req_id] = (req, [])
            return -1
        return self._dispatch(req, dst, now)

    def _dispatch(self, req, dst: int, now: float) -> int:
        if self.reqtable.place(req.req_id, dst, now) < 0:
            self.fallback_insert += 1
            req.fallback = True
            dst = self._fallback(req)
        if self._int2:
            pair = self.loads[req.tag]
            if dst == pair[0]:
                pair[1] += 1  # the tracked minimum just received one more
        elif self._proactive:
            self.loads[req.tag][dst] += 1
        self.dispatched[req.tag][dst] += 1
        return dst

    def route_reqr(self, req):
        """Route a follow-on packet via the stored mapping; fall back to the
        locality-stable hash when the mapping is gone."""
        if self.failed:
            self.mark_dropped(req)
            return None
        rid = req.req_id
        buf = self.stalled.get(rid)
        if buf is not None:
            buf[1].append(req)
            return -1
        dst = self.reqtable.read(rid)
        if dst < 0:
            self.fallback_read += 1
            req.fallback = True
            dst = self._fallback(req)
            if self.reqtable.purged.get(rid, dst) != dst:
                self.affinity_violations += 1
        return dst

    def note_rep(self, req, src: int, load_report: float, final: bool, now: float):
        """Process a reply passing through: clear the mapping, update tracked
        load, release the head of the stall FIFO if it now places. Returns
        (delivered, release) where release is None or (req, dst, follow):
        `follow` holds, in arrival order, the request of each follow-on
        packet buffered with it, its own trailing packets and its group's
        other members alike."""
        if self.failed:
            self.mark_dropped(req)
            return False, None
        if final:
            if self.rep_loss_prob > 0.0 and self.rnd_loss.random() < self.rep_loss_prob:
                pass  # reply's tracking effect lost (retransmission cleans up)
            elif self._int2:
                # replace the stored server's value, or the pair if smaller
                pair = self.loads[req.tag]
                if src == pair[0]:
                    pair[1] = load_report
                elif load_report < pair[1]:
                    pair[0] = src
                    pair[1] = load_report
            elif self._proactive:
                # count down where `_dispatch` counted up: a request that a
                # lost mapping split may finish on another server
                dst = self.reqtable.read(req.req_id)
                if dst < 0:
                    dst = self.reqtable.purged.get(req.req_id, -1)
                if dst < 0:     # never placed: counted at its fallback
                    dst = self._fallback(req)
                row = self.loads[req.tag]
                if row[dst] > 0:
                    row[dst] -= 1
            else:  # INT1, INT3: the report overwrites
                self.loads[req.tag][src] = load_report
            self.reqtable.remove(req.req_id)
            if self.stalled:
                return True, self._release_head(now)
        return True, None

    def _release_head(self, now: float):
        """Dispatch the head of the non-empty stall FIFO if it now places;
        returns (req, dst, follow) or None."""
        sreq, follow = next(iter(self.stalled.values()))
        dst = self._select(self.loads[sreq.tag], self.elig[sreq.locality],
                           self.rnd_sampling, sreq)
        if dst is None:
            return None
        self.stalled.popitem(last=False)
        return sreq, self._dispatch(sreq, dst, now), follow
