"""Switch semantics: policies, request table, tracking, faults, affinity."""

import random

import pytest

from racksim.baselines import ClientView
from racksim.switchsim import (
    INT1, INT2, INT3, PROACTIVE, PipelineBudget, ReqTable, Switch,
    make_policy, stage_cost)
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
                stages=2, slots=64, ttl_us=None, n_classes=2,
                loc_sets=None, **kw):
    table = ReqTable(stages, slots, [101 + i for i in range(stages)],
                     ttl_us=ttl_us)
    policy = make_policy(policy_kind, n_classes, 31, k=k, bound=bound)
    return Switch(n, n_classes, loc_sets or [list(range(n))], [True] * n,
                  policy, tracking, table,
                  random.Random(5), random.Random(6), fallback_salt=909, **kw)


# -- pipeline budget -----------------------------------------------------------


class TestStageCost:
    BUDGET = PipelineBudget(12, 4, 4)

    def test_stateless_policies_cost_one_stage(self):
        for kind in ("random", "hash", "rr"):
            assert stage_cost(kind, 8, self.BUDGET) == 1

    def test_min_tree_over_eight(self):
        assert stage_cost("shortest", 8, self.BUDGET) == 3

    def test_min_tree_over_two(self):
        assert stage_cost("shortest", 2, self.BUDGET) == 1

    def test_sampling_read_stages_plus_tree(self):
        tight = PipelineBudget(12, 2, 2)
        assert stage_cost("sampling", 8, tight, k=4) == 4

    def test_wide_layers_split(self):
        # 16 candidates, 4 comparisons/stage: layers 8,4,2,1 -> 2+1+1+1
        assert stage_cost("shortest", 16, self.BUDGET) == 5


# -- request table -------------------------------------------------------------


class TestReqTable:
    def test_insert_read_roundtrip(self):
        t = ReqTable(4, 64, [1, 2, 3, 4])
        assert t.place(1234, 6, now=0.0) >= 0
        assert t.read(1234) == 6
        assert t.occupancy == 1

    def test_absent_read(self):
        t = ReqTable(4, 64, [1, 2, 3, 4])
        assert t.read(99) == -1

    def test_collision_goes_to_next_stage_then_fallback(self):
        t = ReqTable(2, 1, [7, 8])  # every id collides at index 0
        assert t.place(11, 0, now=0.0) >= 0
        assert t.place(22, 1, now=0.0) >= 0
        assert t.place(33, 2, now=0.0) == -1  # both stages occupied
        assert t.read(11) == 0
        assert t.read(22) == 1
        assert t.read(33) == -1  # fallback requests are never stored
        assert t.occupancy == 2

    def test_remove_then_read_absent_and_remove_idempotent(self):
        t = ReqTable(2, 64, [1, 2])
        t.place(5, 3, now=0.0)
        assert t.remove(5)
        assert t.read(5) == -1
        assert not t.remove(5)
        assert t.occupancy == 0

    def test_ttl_purges_stale_entries_only(self):
        t = ReqTable(2, 64, [1, 2], ttl_us=100.0)
        t.place(1, 0, now=0.0)
        t.place(2, 1, now=80.0)
        assert t.purge_stale(now=150.0) == 1
        assert t.read(1) == -1
        assert t.read(2) == 1

    def test_purge_server_drops_only_that_server(self):
        t = ReqTable(2, 64, [1, 2])
        t.place(1, 0, now=0.0)
        t.place(2, 1, now=0.0)
        t.place(3, 1, now=0.0)
        assert t.purge_server(1) == 2
        assert t.read(1) == 0
        assert t.read(2) == -1
        assert t.occupancy == 1

    def test_clear(self):
        t = ReqTable(2, 64, [1, 2])
        for rid in range(1, 20):
            t.place(rid, 0, now=0.0)
        t.clear()
        assert t.occupancy == 0
        assert all(t.read(rid) == -1 for rid in range(1, 20))

    def test_slot_hint_agrees_with_probing(self):
        t = ReqTable(2, 1, [7, 8], ttl_us=100.0)
        a, b = t.place(11, 4, now=0.0), t.place(22, 5, now=50.0)
        assert (a, b) == (0, 1)  # stage 0, then stage 1 of a 1-slot table
        assert t.place(33, 6, now=50.0) == -1
        assert [t.read(r, s) for r, s in ((11, a), (22, b), (33, -1))] == \
            [t.read(r) for r in (11, 22, 33)] == [4, 5, -1]
        assert t.purge_stale(now=120.0) == 1  # clears 11; its hint goes stale
        assert t.read(11, a) == -1 and not t.remove(11, a)
        assert t.place(44, 7, now=120.0) == a  # the slot is reused
        assert t.read(11, a) == -1 and t.read(44, a) == 7
        assert t.remove(22, b) and t.occupancy == 1


# -- policy decisions ----------------------------------------------------------


class TestPolicies:
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
        # shortest, sampling with k = n, and a client view scanning every
        # server all take the least load, lowest index on ties
        n = 8
        rnd = random.Random(8)
        shortest = make_policy("shortest", 1, 0)
        full = make_policy("sampling", 1, 0, k=n)
        view = ClientView(n)
        eligs = [list(range(n)), [2, 3, 6], [5], [0, 7]]
        for _ in range(500):
            loads = [rnd.randrange(6) for _ in range(n)]
            for elig in eligs:
                want = min(elig, key=lambda s: (loads[s], s))
                assert shortest.select(loads, elig, None, make_req(1)) == want
                assert full.select(loads, elig, None, make_req(1)) == want
                view.estimates[:] = loads
                assert view.choose(elig, n + rnd.randrange(2), None) == want

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
            sw.counters[0][s] = 0 if s != dst else 99
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
            sw.counters[0][s] = 0 if s != dst else 99
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
        from racksim.baselines import hash_pick
        rid = next(r for r in range(2, 500)
                   if hash_pick(r, [0, 1, 2, 3], sw.fallback_salt) == 2)
        sw.set_active(2, False)
        req = make_req(rid)
        assert sw.route_reqf(req, 0.0) == 2  # affinity beats liveness

    def test_locality_restricts_eligible_set(self):
        sw = make_switch("shortest", loc_sets=[[0, 1, 2, 3], [2, 3]])
        sw.counters[0][0] = 0
        sw.counters[0][2] = 5
        sw.counters[0][3] = 7
        req = make_req(1, locality=1)
        assert sw.route_reqf(req, 0.0) == 2  # best within the set, not global

    def test_set_active_excludes_server_from_dispatch(self):
        sw = make_switch("shortest")
        sw.set_active(0, False)
        picks = {sw.route_reqf(make_req(r), 0.0) for r in range(1, 40)}
        assert 0 not in picks


class TestTracking:
    def test_int1_report_overwrites(self):
        sw = make_switch("shortest", tracking=INT1)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.counters[0][dst] = 3
        sw.note_rep(req, dst, 7, final=True, now=1.0)
        assert sw.counters[0][dst] == 7

    def test_int1_not_updated_at_dispatch(self):
        sw = make_switch("shortest", tracking=INT1)
        before = [row[:] for row in sw.counters]
        sw.route_reqf(make_req(1), 0.0)
        assert sw.counters == before

    def test_int3_stores_remaining_microseconds(self):
        sw = make_switch("shortest", tracking=INT3)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.note_rep(req, dst, 123.5, final=True, now=1.0)
        assert sw.counters[0][dst] == 123.5

    def test_proactive_counts_in_lockstep(self):
        sw = make_switch("random", tracking=PROACTIVE)
        reqs = [make_req(r) for r in range(1, 30)]
        dsts = [sw.route_reqf(r, 0.0) for r in reqs]
        for r, d in zip(reqs, dsts):
            assert sw.counters[0][d] >= 1
            sw.note_rep(r, d, 0, final=True, now=1.0)
        assert all(v == 0 for v in sw.counters[0])

    def test_proactive_skips_decrement_on_lost_rep(self):
        sw = make_switch("random", tracking=PROACTIVE, rep_loss_prob=1.0)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        delivered, _ = sw.note_rep(req, dst, 0, final=True, now=1.0)
        assert delivered  # the reply still reaches the client
        assert sw.counters[0][dst] == 1  # but the decrement was lost
        assert sw.reqtable.read(1) == -1  # mapping removal is not lossy

    def test_proactive_never_goes_negative(self):
        sw = make_switch("random", tracking=PROACTIVE)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.recover()  # zeroes counters while the request is in flight
        sw.note_rep(req, dst, 0, final=True, now=1.0)
        assert sw.counters[0][dst] == 0

    def test_int2_tracks_minimum_pair(self):
        sw = make_switch("random", tracking=INT2)
        pair = sw.int2[0]
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
        sw = make_switch("random", tracking=INT2)
        sw.int2[0][:] = [3, 0]
        picks = {sw.route_reqf(make_req(r), 0.0) for r in range(1, 20)}
        assert picks == {3}

    def test_int2_stays_inside_the_locality_set(self):
        sw = make_switch("random", tracking=INT2, loc_sets=[[0, 1, 2, 3], [2, 3]])
        assert sw.int2[0][0] == 0          # the tracked server is outside set 1
        picks = {sw.route_reqf(make_req(r, locality=1), 0.0)
                 for r in range(1, 20)}
        assert picks == {2}

    def test_rep_loss_keeps_int1_counter_stale(self):
        sw = make_switch("shortest", tracking=INT1, rep_loss_prob=1.0)
        req = make_req(1)
        dst = sw.route_reqf(req, 0.0)
        sw.note_rep(req, dst, 50, final=True, now=1.0)
        assert sw.counters[0][dst] == 0


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

    def test_fail_returns_each_stalled_member_once(self):
        sw = self.make()
        sw.route_reqf(make_req(1), 0.0)
        sw.route_reqf(make_req(2), 0.0)
        g = Group(2)
        first, second = (Request(3, 0, 0, 0, 0, 2, 10.0, 0.0, g)
                         for _ in range(2))
        sw.route_reqf(first, 0.0)
        for req in (first, second, second):
            sw.route_reqr(req)
        assert sw.fail() == [first, second]

    def test_outstanding_never_exceeds_bound(self):
        sw = self.make()
        for r in range(1, 50):
            sw.route_reqf(make_req(r), 0.0)
            assert all(o <= 1 for o in sw.outstanding)


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
        sw.counters[0][dst] = 9
        sw.fail()
        sw.recover()
        assert sw.reqtable.occupancy == 0
        assert sw.reqtable.read(1) == -1
        assert all(v == 0 for row in sw.counters for v in row)

    def test_fail_flushes_jbsq_stall_buffer(self):
        sw = make_switch("jbsq", bound=1, n=2)
        for r in range(1, 4):
            sw.route_reqf(make_req(r), 0.0)
        stalled = sw.fail()
        assert [r.req_id for r in stalled] == [3]
        assert not sw.stalled and not sw._stall_buf


class TestAffinityTrace:
    def test_consistent_delivery_counts_no_violation(self):
        sw = make_switch("shortest", trace_affinity=True)
        req = make_req(1, packets=3)
        sw.route_reqf(req, 0.0)
        sw.route_reqr(req)
        sw.route_reqr(req)
        assert sw.affinity_violations == 0

    def test_split_delivery_detected(self):
        from racksim.baselines import hash_pick
        sw = make_switch("rr", n=2, trace_affinity=True)
        # round-robin sends the first request to server 0; pick an id whose
        # fallback hash lands on server 1, then lose the mapping
        rid = next(r for r in range(1, 500)
                   if hash_pick(r, [0, 1], sw.fallback_salt) == 1)
        req = make_req(rid)
        assert sw.route_reqf(req, 0.0) == 0
        sw.reqtable.remove(rid)  # simulates TTL purge of a live mapping
        assert sw.route_reqr(req) == 1
        assert sw.affinity_violations == 1

    def test_class_dispatch_counts(self):
        sw = make_switch("rr", trace_affinity=True)
        for r in range(1, 7):
            sw.route_reqf(make_req(r, tag=r % 2), 0.0)
        assert sum(sw.class_dispatch[0].values()) == 3
        assert sum(sw.class_dispatch[1].values()) == 3
