"""Switch semantics: policies, request table, tracking, faults, affinity."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racksim.baselines import ClientView, hash_pick
from racksim.config import GLOBAL_BASELINES, VARIANT_KEYS
from racksim.switchsim import (
    INT1, INT3, PROACTIVE, Policy, ReqTable, Switch, make_policy, stage_cost)
from racksim.workload import Group, Request


class FakeRnd:
    """random()-compatible stub replaying scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_req(rid, tag=0, locality=0, packets=1, service=10.0, arrival=0.0):
    return Request(rid, 0, tag, 0, locality, packets, service, arrival)


def make_switch(policy_kind="shortest", tracking=INT1, n=4, k=2, bound=2,
                stages=2, slots=64, ttl_us=math.inf, n_classes=2,
                loc_sets=None, **kw):
    table = ReqTable(slots, [101 + i for i in range(stages)], ttl_us=ttl_us)
    policy = make_policy(policy_kind, n_classes, 31, k=k, bound=bound)
    return Switch(n, n_classes, loc_sets or [list(range(n))], [True] * n,
                  policy, tracking, table,
                  random.Random(5), random.Random(6), fallback_salt=909, **kw)


# -- pipeline budget -----------------------------------------------------------


class TestStageCost:
    def test_stateless_policies_cost_one_stage(self):
        for kind in ("random", "hash", "rr"):
            assert stage_cost(kind, 8) == 1

    def test_int2_reads_one_tracked_pair(self):
        assert stage_cost("int2", 8) == stage_cost("int2", 64) == 1

    def test_min_tree_over_eight(self):
        assert stage_cost("shortest", 8) == 3

    def test_min_tree_over_two(self):
        assert stage_cost("shortest", 2) == 1

    def test_sampling_read_stages_plus_tree(self):
        # 8 reads at 4 per stage, then a tree over 8 -> 2 + 3
        assert stage_cost("sampling", 64, k=8) == 5

    def test_wide_layers_split(self):
        # 16 candidates, 4 comparisons/stage: layers 8,4,2,1 -> 2+1+1+1
        assert stage_cost("shortest", 16) == 5

    def test_shortest_over_64_exceeds_the_budget(self):
        # layers 32,16,8,4,2,1 -> 8+4+2+1+1+1
        assert stage_cost("shortest", 64) == 17


# -- request table -------------------------------------------------------------


class TestReqTable:
    def test_insert_read_roundtrip(self):
        t = ReqTable(64, [1, 2, 3, 4], math.inf)
        assert t.place(1234, 6, now=0.0) >= 0
        assert t.read(1234) == 6
        assert t.occupancy == 1

    def test_absent_read(self):
        t = ReqTable(64, [1, 2, 3, 4], math.inf)
        assert t.read(99) == -1

    def test_collision_goes_to_next_stage_then_fallback(self):
        t = ReqTable(1, [7, 8], math.inf)  # every id collides at index 0
        assert t.place(11, 0, now=0.0) >= 0
        assert t.place(22, 1, now=0.0) >= 0
        assert t.place(33, 2, now=0.0) == -1  # both stages occupied
        assert t.read(11) == 0
        assert t.read(22) == 1
        assert t.read(33) == -1  # fallback requests are never stored
        assert t.occupancy == 2

    def test_remove_then_read_absent_and_remove_idempotent(self):
        t = ReqTable(64, [1, 2], math.inf)
        t.place(5, 3, now=0.0)
        assert t.remove(5)
        assert t.read(5) == -1
        assert not t.remove(5)
        assert t.occupancy == 0

    def test_ttl_purges_stale_entries_only(self):
        t = ReqTable(64, [1, 2], ttl_us=100.0)
        t.place(1, 0, now=0.0)
        t.place(2, 1, now=80.0)
        assert t.purge_stale(now=150.0) == 1
        assert t.read(1) == -1
        assert t.read(2) == 1

    def test_purge_server_drops_only_that_server(self):
        t = ReqTable(64, [1, 2], math.inf)
        t.place(1, 0, now=0.0)
        t.place(2, 1, now=0.0)
        t.place(3, 1, now=0.0)
        assert t.purge_server(1) == 2
        assert t.read(1) == 0
        assert t.read(2) == -1
        assert t.occupancy == 1

    def test_clear(self):
        t = ReqTable(64, [1, 2], math.inf)
        for rid in range(1, 20):
            t.place(rid, 0, now=0.0)
        t.clear()
        assert t.occupancy == 0
        assert all(t.read(rid) == -1 for rid in range(1, 20))

    def test_purges_and_clear_remember_the_mapping_remove_does_not(self):
        t = ReqTable(64, [1], ttl_us=100.0)
        for rid, srv, now in ((1, 0, 0.0), (2, 1, 90.0), (3, 2, 90.0),
                              (4, 3, 90.0), (5, 3, 90.0)):
            t.place(rid, srv, now)
        t.remove(5)
        t.purge_stale(now=150.0)
        t.purge_server(1)
        assert t.purged == {1: 0, 2: 1}
        t.clear()
        assert t.purged == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_purged_slot_is_reused(self):
        t = ReqTable(1, [7, 8], ttl_us=100.0)
        a, b = t.place(11, 4, now=0.0), t.place(22, 5, now=50.0)
        assert (a, b) == (0, 1)  # stage 0, then stage 1 of a 1-slot table
        assert t.place(33, 6, now=50.0) == -1
        assert [t.read(r) for r in (11, 22, 33)] == [4, 5, -1]
        assert t.purge_stale(now=120.0) == 1  # clears 11
        assert t.read(11) == -1 and not t.remove(11)
        assert t.place(44, 7, now=120.0) == a  # the slot is reused
        assert t.read(11) == -1 and t.read(44) == 7
        assert t.remove(22) and t.occupancy == 1


class StageModel:
    """Brute-force reference for ReqTable: one list per stage, each entry
    None or (req_id, server, insert time), slots numbered stage by stage."""

    def __init__(self, stages, slots, salts, ttl_us):
        self.m, self.salts, self.ttl_us = slots, salts, ttl_us
        self.stages = [[None] * slots for _ in range(stages)]

    def _at(self, slot):
        stage, index = divmod(slot, self.m)
        return self.stages[stage], index

    def _slot_of(self, req_id):
        for stage, salt in enumerate(self.salts):
            i = hash((req_id, salt)) % self.m
            e = self.stages[stage][i]
            if e is not None and e[0] == req_id:
                return stage * self.m + i
        return -1

    def place(self, req_id, server, now):
        for stage, salt in enumerate(self.salts):
            i = hash((req_id, salt)) % self.m
            if self.stages[stage][i] is None:
                self.stages[stage][i] = (req_id, server, now)
                return stage * self.m + i
        return -1

    def read(self, req_id):
        slot = self._slot_of(req_id)
        if slot < 0:
            return -1
        row, i = self._at(slot)
        return row[i][1]

    def remove(self, req_id):
        slot = self._slot_of(req_id)
        if slot < 0:
            return False
        row, i = self._at(slot)
        row[i] = None
        return True

    def _drop_if(self, pred):
        n = 0
        for row in self.stages:
            for i, e in enumerate(row):
                if e is not None and pred(e):
                    row[i] = None
                    n += 1
        return n

    def purge_stale(self, now):
        return self._drop_if(lambda e: e[2] <= now - self.ttl_us)

    def purge_server(self, server):
        return self._drop_if(lambda e: e[1] == server)

    def clear(self):
        self._drop_if(lambda e: True)

    @property
    def occupancy(self):
        return sum(e is not None for row in self.stages for e in row)


@settings(max_examples=300)
@given(st.data())
def test_reqtable_matches_a_per_stage_reference(data):
    stages = data.draw(st.integers(1, 3), label="stages")
    slots = data.draw(st.integers(1, 4), label="slots")
    ttl = data.draw(st.one_of(st.just(math.inf), st.integers(1, 6)),
                    label="ttl")
    salts = [101 + 7 * i for i in range(stages)]
    table = ReqTable(slots, list(salts), ttl_us=ttl)
    model = StageModel(stages, slots, salts, ttl)
    rids = range(1, 9)
    now = 0
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        now += data.draw(st.integers(0, 2))
        op = data.draw(st.sampled_from(
            ["place", "read", "remove", "purge_stale", "purge_server",
             "clear"]))
        if op == "place":
            # the system places a req_id at most once while it is live
            live = {e[0] for row in model.stages for e in row if e}
            free = [r for r in rids if r not in live]
            if not free:
                continue
            rid = data.draw(st.sampled_from(free))
            srv = data.draw(st.integers(0, 3))
            assert table.place(rid, srv, now) == model.place(rid, srv, now)
        elif op in ("read", "remove"):
            rid = data.draw(st.sampled_from(rids))
            assert getattr(table, op)(rid) == getattr(model, op)(rid)
        elif op == "purge_stale":
            assert table.purge_stale(now) == model.purge_stale(now)
        elif op == "purge_server":
            srv = data.draw(st.integers(0, 3))
            assert table.purge_server(srv) == model.purge_server(srv)
        else:
            table.clear()
            model.clear()
        assert table.occupancy == model.occupancy


def test_reqtable_memory_follows_live_mappings():
    salts = [1, 2, 3, 4]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = ReqTable(1 << 16, salts, math.inf)
        built = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert built < 64 * 1024, f"constructing the table allocated {built} B"
    slots = [t.place(rid, rid % 8, now=float(rid)) for rid in range(1, 1001)]
    assert all(s >= 0 for s in slots) and t.occupancy == 1000
    for rid in range(1, 1001):
        assert t.remove(rid)
    assert t.occupancy == 0


# -- policy decisions ----------------------------------------------------------


class TestPolicies:
    def test_every_switch_kind_builds_a_policy(self):
        # the pooled baselines run `hash` at their one server
        for kind in VARIANT_KEYS:
            if kind not in GLOBAL_BASELINES:
                p = make_policy(kind, 2, 0, n_servers=4, clients=3)
                assert isinstance(p, Policy), kind
                assert (p.views is None) == (kind != "client"), kind

    def test_client_policy_picks_with_its_clients_views(self):
        p = make_policy("client", 1, 0, k=4, n_servers=4, clients=2)
        assert [v.estimates for v in p.views] == [[0] * 4, [0] * 4]
        p.views[1].estimates[:] = [3, 1, 2, 5]
        req = Request(1, 1, 0, 0, 0, 1, 10.0, 0.0)     # from client 1
        assert p.select(None, [0, 1, 2, 3], None, req) == 1
        assert p.views[1].estimates == [3, 2, 2, 5]
        assert p.views[0].estimates == [0] * 4

    def test_shortest_tiebreak_lowest_index(self):
        p = make_policy("shortest", 1, 0)
        assert p.select([3, 1, 4, 1, 5], [0, 1, 2, 3, 4], None, make_req(1)) == 1

    def test_sampling_scripted_pair(self):
        # uniforms 0.1, 0.3 sample servers {0, 2}; loads 3 vs 4 -> server 0
        p = make_policy("sampling", 1, 0, k=2)
        got = p.select([3, 1, 4, 1, 5], [0, 1, 2, 3, 4], FakeRnd([0.1, 0.3]),
                       make_req(1))
        assert got == 0

    def test_full_width_choosers_pick_the_least_loaded(self):
        # shortest, sampling with k = n, and client views scanning every
        # server (k = n and k > n) all take the least load, lowest index on
        # ties; jbsq takes it too, unless it is at the bound
        n = 8
        bound = 3
        rnd = random.Random(8)
        shortest = make_policy("shortest", 1, 0)
        full = make_policy("sampling", 1, 0, k=n)
        jbsq = make_policy("jbsq", 1, 0, bound=bound)
        views = [ClientView(n, full.select), ClientView(n, shortest.select)]
        eligs = [list(range(n)), [2, 3, 6], [5], [0, 7]]
        for _ in range(500):
            loads = [rnd.randrange(6) for _ in range(n)]
            for elig in eligs:
                want = min(elig, key=lambda s: (loads[s], s))
                assert shortest.select(loads, elig, None, make_req(1)) == want
                assert full.select(loads, elig, None, make_req(1)) == want
                assert jbsq.select(loads, elig, None, make_req(1)) == (
                    want if loads[want] < bound else None)
                view = views[rnd.randrange(2)]
                view.estimates[:] = loads
                assert view.choose(elig, None) == want

    def test_client_view_picks_what_the_switch_picks(self):
        # k = 2: from the same scripted draws, a client view running the
        # sampling select picks what the switch's select picks, then bumps
        n = 8
        rnd = random.Random(9)
        sw = make_switch("sampling", n=n, k=2)
        view = ClientView(n, make_policy("sampling", 1, 0, k=2).select)
        eligs = [list(range(n)), [2, 3, 6], [0, 7]]
        for _ in range(300):
            loads = [rnd.randrange(6) for _ in range(n)]
            for elig in eligs:
                draws = [rnd.random(), rnd.random()]
                want = sw._select(loads, elig, FakeRnd(draws), make_req(1))
                view.estimates[:] = loads
                assert view.choose(elig, FakeRnd(draws)) == want
                assert view.estimates[want] == loads[want] + 1

    def test_round_robin_cycles_per_class(self):
        p = make_policy("rr", 2, 0)
        elig = [4, 5, 6]
        first = [p.select([], elig, None, make_req(r, tag=0))
                 for r in range(1, 5)]
        assert first == [4, 5, 6, 4]
        # the other class has its own cursor
        assert p.select([], elig, None, make_req(5, tag=1)) == 4

    def test_jbsq_bound(self):
        p = make_policy("jbsq", 1, 0, bound=2)
        assert p.select([2, 1, 2], [0, 1, 2], None, make_req(1)) == 1
        assert p.select([2, 2, 2], [0, 1, 2], None, make_req(2)) is None


# -- switch routing and tracking -----------------------------------------------


class TestRouting:
    def test_reqf_inserts_mapping_and_reqr_follows_it(self):
        sw = make_switch("shortest")
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        assert sw.reqtable.read(1) == dst
        for _ in range(3):
            assert sw.route_reqr(req) == dst
        assert sw.fallback_read == 0

    def test_reqr_follows_mapping_regardless_of_loads(self):
        sw = make_switch("shortest")
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        for s in range(sw.n_servers):  # make every other server look idle
            sw.loads[0][s] = 0 if s != dst else 99
        assert sw.route_reqr(req) == dst

    def test_final_rep_removes_mapping(self):
        sw = make_switch("shortest")
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        delivered, release = sw.note_rep(req, dst, 3, final=True, now=5.0)
        assert delivered and release is None
        assert sw.reqtable.read(1) == -1

    def test_non_final_rep_keeps_mapping(self):
        sw = make_switch("shortest")
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.note_rep(req, dst, 3, final=False, now=5.0)
        assert sw.reqtable.read(1) == dst

    def test_group_member_follows_first_members_mapping(self):
        sw = make_switch("shortest")
        group = Group(2)
        first, second = (Request(7, 0, 0, 0, 0, 1, 10.0, 0.0, group)
                         for _ in range(2))
        dst = sw.route_reqf(first, 0.0)
        for s in range(sw.n_servers):  # make every other server look idle
            sw.loads[0][s] = 0 if s != dst else 99
        assert sw.route_reqr(second) == dst  # shares the first's req_id
        assert sw.fallback_read == 0
        sw.note_rep(second, dst, 0, final=True, now=1.0)  # last to finish
        assert sw.reqtable.read(7) == -1 and sw.reqtable.occupancy == 0

    def test_missing_mapping_falls_back_deterministically(self):
        sw = make_switch("shortest", stages=1, slots=1)
        blocker = make_req(1)
        sw.route_reqf(blocker, 0.0)
        req = make_req(2)  # collides: single slot already taken
        dst = sw.route_reqf(req, 0.0)
        assert sw.fallback_insert == 1 and req.fallback
        assert sw.reqtable.read(2) == -1
        assert all(sw.route_reqr(req) == dst for _ in range(4))
        assert sw.fallback_read == 4

    def test_fallback_hashes_physical_not_active_set(self):
        sw = make_switch("shortest", stages=1, slots=1, n=4)
        sw.route_reqf(make_req(1), 0.0)
        # find a request whose fallback hash lands on server 2, then fail it
        rid = next(r for r in range(2, 500)
                   if hash_pick(r, [0, 1, 2, 3], sw.fallback_salt) == 2)
        sw.set_active(2, False, 0.0)
        req = make_req(rid)
        assert sw.route_reqf(req, 0.0) == 2  # affinity beats liveness

    def test_locality_restricts_eligible_set(self):
        sw = make_switch("shortest", loc_sets=[[0, 1, 2, 3], [2, 3]])
        sw.loads[0][0] = 0
        sw.loads[0][2] = 5
        sw.loads[0][3] = 7
        req = make_req(1, locality=1)
        assert sw.route_reqf(req, 0.0) == 2  # best within the set, not global

    def test_set_active_excludes_server_from_dispatch(self):
        sw = make_switch("shortest")
        sw.set_active(0, False, 0.0)
        picks = {sw.route_reqf(make_req(r), 0.0) for r in range(1, 40)}
        assert 0 not in picks


class TestTracking:
    def test_int1_report_overwrites(self):
        sw = make_switch("shortest", tracking=INT1)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.loads[0][dst] = 3
        sw.note_rep(req, dst, 7, final=True, now=1.0)
        assert sw.loads[0][dst] == 7

    def test_int1_not_updated_at_dispatch(self):
        sw = make_switch("shortest", tracking=INT1)
        before = [row[:] for row in sw.loads]
        sw.route_reqf(make_req(1), 0.0)
        assert sw.loads == before

    def test_int3_stores_remaining_microseconds(self):
        sw = make_switch("shortest", tracking=INT3)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.note_rep(req, dst, 123.5, final=True, now=1.0)
        assert sw.loads[0][dst] == 123.5

    def test_proactive_counts_in_lockstep(self):
        sw = make_switch("random", tracking=PROACTIVE)
        reqs = [make_req(r) for r in range(1, 30)]
        dsts = [sw.route_reqf(r, 0.0) for r in reqs]
        for r, d in zip(reqs, dsts):
            assert sw.loads[0][d] >= 1
            sw.note_rep(r, d, 0, final=True, now=1.0)
        assert all(v == 0 for v in sw.loads[0])

    def test_proactive_skips_decrement_on_lost_rep(self):
        sw = make_switch("random", tracking=PROACTIVE, rep_loss_prob=1.0)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        delivered, _ = sw.note_rep(req, dst, 0, final=True, now=1.0)
        assert delivered  # the reply still reaches the client
        assert sw.loads[0][dst] == 1  # but the decrement was lost
        assert sw.reqtable.read(1) == -1  # mapping removal is not lossy

    def test_proactive_never_goes_negative(self):
        sw = make_switch("random", tracking=PROACTIVE)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.recover()  # zeroes counters while the request is in flight
        sw.note_rep(req, dst, 0, final=True, now=1.0)
        assert sw.loads[0][dst] == 0

    def test_proactive_counts_down_a_purged_mapping_where_it_counted(self):
        # a lost mapping split request 1 off server 0: its final reply
        # comes from server 1, where request 2 still runs
        sw = make_switch("shortest", tracking=PROACTIVE, n=2)
        r1, r2 = make_req(1), make_req(2)
        assert [sw.route_reqf(r, 0.0) for r in (r1, r2)] == [0, 1]
        sw.reqtable.purge_server(0)
        sw.note_rep(r1, 1, 0, final=True, now=1.0)
        assert sw.loads[0] == [0, 1]

    def test_proactive_counts_down_an_unplaced_request_at_its_fallback(self):
        sw = make_switch("shortest", tracking=PROACTIVE, n=2, stages=1, slots=1)
        r1, r2 = make_req(1), make_req(2)
        assert sw.route_reqf(r1, 0.0) == 0      # takes the one slot
        dst = sw.route_reqf(r2, 0.0)
        assert r2.fallback and dst == hash_pick(2, [0, 1], sw.fallback_salt)
        sw.note_rep(r2, 1 - dst, 0, final=True, now=1.0)
        assert sw.loads[0] == [1, 0]

    def test_int2_tracks_minimum_pair(self):
        sw = make_switch("int2")
        pair = sw.loads[0]
        r1 = make_req(1)
        sw.route_reqf(r1, 0.0)  # forced to pair server, bumps stored value
        assert pair[0] == 0 and pair[1] == 1
        sw.note_rep(r1, 0, 5, final=True, now=1.0)
        assert pair == [0, 5]  # report from the tracked server replaces
        r2 = make_req(2)
        sw.note_rep(r2, 2, 3, final=True, now=2.0)
        assert pair == [2, 3]  # strictly smaller report moves the pair
        sw.note_rep(make_req(3), 1, 9, final=True, now=3.0)
        assert pair == [2, 3]  # larger report from elsewhere is ignored

    def test_int2_dispatches_to_tracked_server(self):
        sw = make_switch("int2")
        sw.loads[0][:] = [3, 0]
        picks = {sw.route_reqf(make_req(r), 0.0) for r in range(1, 20)}
        assert picks == {3}

    def test_int2_stays_inside_the_locality_set(self):
        sw = make_switch("int2", loc_sets=[[0, 1, 2, 3], [2, 3]])
        assert sw.loads[0][0] == 0          # the tracked server is outside set 1
        picks = {sw.route_reqf(make_req(r, locality=1), 0.0)
                 for r in range(1, 20)}
        assert picks == {2}

    def test_rep_loss_keeps_int1_counter_stale(self):
        sw = make_switch("shortest", tracking=INT1, rep_loss_prob=1.0)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.note_rep(req, dst, 50, final=True, now=1.0)
        assert sw.loads[0][dst] == 0


class TestJBSQ:
    def make(self):
        return make_switch("jbsq", bound=1, n=2)

    def test_stall_and_release_in_fifo_order(self):
        sw = self.make()
        r1, r2, r3, r4 = (make_req(r) for r in (1, 2, 3, 4))
        assert sw.route_reqf(r1, 0.0) in (0, 1)
        assert sw.route_reqf(r2, 0.0) in (0, 1)
        assert sw.outstanding == [1, 1]
        assert sw.route_reqf(r3, 0.0) == -1  # at bound everywhere
        assert sw.route_reqf(r4, 0.0) == -1
        assert sw.route_reqr(r3) == -1  # follow-on packets buffer with it

        delivered, release = sw.note_rep(r1, 0, 0, final=True, now=1.0)
        assert delivered
        sreq, dst, follow = release
        assert sreq is r3 and dst == 0 and follow == [r3]
        assert sw.reqtable.read(3) == 0
        _, release = sw.note_rep(r2, 1, 0, final=True, now=2.0)
        assert release[0] is r4

    def test_stalled_group_keeps_each_members_packets(self):
        sw = self.make()
        sw.route_reqf(make_req(1), 0.0)
        sw.route_reqf(make_req(2), 0.0)
        g = Group(2)
        first, second = (Request(3, 0, 0, 0, 0, 2, 10.0, 0.0, g)
                         for _ in range(2))
        assert sw.route_reqf(first, 0.0) == -1
        for req in (first, second, second):
            assert sw.route_reqr(req) == -1
        _, (sreq, _, follow) = sw.note_rep(make_req(1), 0, 0, final=True,
                                           now=1.0)
        assert sreq is first and follow == [first, second, second]

    def test_fail_drops_each_stalled_member_once(self):
        sw = self.make()
        sw.route_reqf(make_req(1), 0.0)
        sw.route_reqf(make_req(2), 0.0)
        g = Group(2)
        first, second = (Request(3, 0, 0, 0, 0, 2, 10.0, 0.0, g)
                         for _ in range(2))
        sw.route_reqf(first, 0.0)
        for req in (first, second, second):
            sw.route_reqr(req)
        sw.fail()
        assert first.dropped and second.dropped
        assert sw.dropped_requests == 2 and not sw.stalled

    def test_every_class_shares_one_row(self):
        sw = self.make()
        assert sw.loads[0] is sw.loads[1] is sw.outstanding
        assert sw.route_reqf(make_req(1, tag=0), 0.0) == 0
        assert sw.route_reqf(make_req(2, tag=0), 0.0) == 1
        # class 1 has sent nothing, yet class 0 has filled both servers
        assert sw.route_reqf(make_req(3, tag=1), 0.0) == -1
        assert list(sw.stalled) == [3]

    def test_stalled_head_blocks_the_requests_behind_it(self):
        sw = make_switch("jbsq", bound=1, n=2, loc_sets=[[0, 1], [1]])
        r1, r2 = make_req(1), make_req(2)
        r3, r4 = make_req(3, locality=1), make_req(4)
        assert [sw.route_reqf(r, 0.0) for r in (r1, r2, r3, r4)] == \
            [0, 1, -1, -1]
        # server 0 frees a slot, but the head may only go to server 1, and
        # request 4 behind it is not considered
        assert sw.note_rep(r1, 0, 0, final=True, now=1.0) == (True, None)
        assert list(sw.stalled) == [3, 4] and sw.outstanding == [0, 1]
        _, release = sw.note_rep(r2, 1, 0, final=True, now=2.0)
        assert release[:2] == (r3, 1) and list(sw.stalled) == [4]

    def test_a_set_left_with_no_active_server_drops_its_requests(self):
        sw = make_switch("jbsq", bound=1, n=2, loc_sets=[[0, 1], [1]])
        r1, r2 = make_req(1), make_req(2)
        r3, r4 = make_req(3, locality=1, packets=2), make_req(4)
        assert [sw.route_reqf(r, 0.0) for r in (r1, r2, r3, r4)] == \
            [0, 1, -1, -1]
        assert sw.route_reqr(r3) == -1
        # request 3's set is server 1 alone; request 4 can still wait for 0
        assert sw.set_active(1, False, 1.0) == []
        assert r3.dropped and not r4.dropped and list(sw.stalled) == [4]
        assert sw.dropped_requests == 1
        r5 = make_req(5, locality=1)
        assert sw.route_reqf(r5, 2.0) is None and r5.dropped
        _, release = sw.note_rep(r1, 0, 0, final=True, now=3.0)
        assert release == (r4, 0, []) and not sw.stalled

    def test_server_coming_up_takes_stalled_requests(self):
        sw = self.make()
        sw.set_active(1, False, 0.0)
        r1, r2, r3 = (make_req(r) for r in (1, 2, 3))
        assert [sw.route_reqf(r, 0.0) for r in (r1, r2, r3)] == [0, -1, -1]
        # the head places on the new server; request 3 finds both at bound
        assert sw.set_active(1, True, 1.0) == [(r2, 1, [])]
        assert sw.outstanding == [1, 1] and list(sw.stalled) == [3]
        assert sw.reqtable.read(2) == 1
        _, release = sw.note_rep(r1, 0, 0, final=True, now=2.0)
        assert release == (r3, 0, []) and not sw.stalled
        assert sw.outstanding == [1, 1]

    def test_server_coming_up_releases_while_the_head_places(self):
        sw = make_switch("jbsq", bound=2, n=2)
        sw.set_active(1, False, 0.0)
        reqs = [make_req(r) for r in range(1, 7)]
        assert [sw.route_reqf(r, 0.0) for r in reqs] == [0, 0, -1, -1, -1, -1]
        released = sw.set_active(1, True, 1.0)
        assert [(r.req_id, dst) for r, dst, _ in released] == [(3, 1), (4, 1)]
        assert sw.outstanding == [2, 2] and list(sw.stalled) == [5, 6]
        assert sw.set_active(0, False, 2.0) == []

    def test_outstanding_never_exceeds_bound(self):
        sw = self.make()
        for r in range(1, 50):
            sw.route_reqf(make_req(r), 0.0)
            assert all(o <= 1 for o in sw.outstanding)


def _int2_moved_to_server_2(sw):
    sw.route_reqf(make_req(1), 0.0)          # pair (0, 1)
    sw.note_rep(make_req(2), 2, 0, final=True, now=1.0)


class TestFaults:
    def test_failed_switch_drops_everything(self):
        sw = make_switch("shortest")
        live = make_req(1)
        sw.route_reqf(live, 0.0)
        sw.fail()
        dead = make_req(2)
        assert sw.route_reqf(dead, 1.0) is None
        assert sw.route_reqr(live) is None
        assert sw.note_rep(live, 0, 1, final=True, now=1.0) == (False, None)
        assert sw.dropped_requests == 2
        assert dead.dropped and live.dropped

    def test_recover_starts_from_empty_state(self):
        sw = make_switch("shortest")
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.loads[0][dst] = 9
        sw.fail()
        sw.recover()
        assert sw.reqtable.occupancy == 0
        assert sw.reqtable.read(1) == -1
        assert all(v == 0 for row in sw.loads for v in row)

    @pytest.mark.parametrize("policy,tracking,n,load", [
        ("shortest", INT1, 4,
         lambda sw: sw.note_rep(make_req(1), 0, 9, final=True, now=1.0)),
        ("shortest", PROACTIVE, 4, lambda sw: sw.route_reqf(make_req(1), 0.0)),
        ("int2", INT1, 4, _int2_moved_to_server_2),
        ("jbsq", INT1, 2, lambda sw: [sw.route_reqf(make_req(r), 0.0)
                                      for r in (1, 2)]),
    ], ids=["int1", "proactive", "int2", "jbsq"])
    def test_routes_as_empty_after_recover(self, policy, tracking, n, load):
        """recover() zeroes in place every load row route_reqf reads; a
        stale row would steer this request off server 0 or stall it."""
        sw = make_switch(policy, tracking=tracking, n=n, bound=1)
        load(sw)
        sw.fail()
        sw.recover()
        assert sw.route_reqf(make_req(10), 2.0) == 0

    def test_fail_flushes_jbsq_stall_buffer(self):
        sw = make_switch("jbsq", bound=1, n=2)
        reqs = [make_req(r) for r in range(1, 4)]
        for req in reqs:
            sw.route_reqf(req, 0.0)
        sw.fail()
        assert [r.req_id for r in reqs if r.dropped] == [3]
        assert sw.dropped_requests == 1 and not sw.stalled


def _ids_by_fallback(sw):
    """Request ids 1..499 grouped by the server, of two, their fallback hash
    picks."""
    by = {0: [], 1: []}
    for r in range(1, 500):
        by[hash_pick(r, [0, 1], sw.fallback_salt)].append(r)
    return by


class TestAffinityTrace:
    def test_consistent_delivery_counts_no_violation(self):
        sw = make_switch("shortest")
        req = make_req(1, packets=3)
        sw.route_reqf(req, 0.0)
        sw.route_reqr(req)
        sw.route_reqr(req)
        assert sw.affinity_violations == 0

    def test_split_delivery_detected(self):
        sw = make_switch("rr", n=2)
        # round-robin sends the first request to server 0; pick an id whose
        # fallback hash lands on server 1, then lose the mapping
        rid = _ids_by_fallback(sw)[1][0]
        req = make_req(rid)
        assert sw.route_reqf(req, 0.0) == 0
        sw.reqtable.purge_server(0)  # the unplanned-removal purge
        assert sw.route_reqr(req) == 1
        assert sw.affinity_violations == 1

    def test_recover_counts_a_follow_on_that_leaves_the_old_server(self):
        # a recovered switch has lost every live mapping; a follow-on whose
        # fallback hash leaves the request's server is one violation, one
        # whose hash lands there is none
        sw = make_switch("rr", n=2)
        stays, leaves = (make_req(rid, packets=3)
                         for rid in _ids_by_fallback(sw)[0][:2])
        assert sw.route_reqf(stays, 0.0) == 0
        assert sw.route_reqf(leaves, 0.0) == 1
        sw.fail()
        sw.recover()
        for _ in range(2):
            assert sw.route_reqr(stays) == 0
        assert sw.affinity_violations == 0
        assert sw.route_reqr(leaves) == 0
        assert sw.affinity_violations == 1

    def test_table_full_fallback_counts_no_violation(self):
        # no slot: the first packet goes to its fallback hash target, and so
        # does every follow-on, whatever the policy picked
        sw = make_switch("rr", n=2, stages=1, slots=1)
        assert sw.route_reqf(make_req(1000), 0.0) == 0    # takes the slot
        by = _ids_by_fallback(sw)
        for target, picked in ((0, 1), (1, 0)):  # rr picks 1, then 0
            req = make_req(by[target][0], packets=3)
            assert sw.route_reqf(req, 0.0) == target != picked
            assert req.fallback
            assert [sw.route_reqr(req) for _ in range(2)] == [target] * 2
        assert sw.fallback_insert == 2 and sw.fallback_read == 4
        assert sw.affinity_violations == 0

    def test_dispatch_hist_is_the_column_sums_of_the_class_counts(self):
        sw = make_switch("rr", n=3)
        for r in range(1, 6):
            sw.route_reqf(make_req(r, tag=r % 2), 0.0)
        before = sw.dispatch_hist
        assert before == [sum(d.get(s, 0) for d in sw.class_dispatch)
                          for s in range(3)] == [2, 2, 1]
        sw.route_reqf(make_req(6, tag=1), 0.0)
        assert before == [2, 2, 1] and sw.dispatch_hist == [3, 2, 1]

    def test_class_dispatch_counts(self):
        sw = make_switch("rr")
        for r in range(1, 7):
            sw.route_reqf(make_req(r, tag=r % 2), 0.0)
        assert sum(sw.class_dispatch[0].values()) == 3
        assert sum(sw.class_dispatch[1].values()) == 3
