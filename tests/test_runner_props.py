"""End-to-end run properties: conservation, determinism, policy equivalences."""

import pytest

from racksim.config import ExperimentConfig
from racksim.runner import RackRun, run_point

from conftest import run_traced


def make_exp(**over):
    raw = {
        "name": "props",
        "servers": {"count": 4, "workers": 4},
        "workload": {"service": {"kind": "exponential", "mean_us": 30.0}},
        "policy": {"kind": "shortest"},
        "sweep": {"loads": [0.6], "seeds": [1], "requests_per_point": 5000},
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def test_every_request_is_accounted_for():
    rec = run_point(make_exp(), "default", 0.6, 1)
    assert rec.in_flight() == 0
    assert rec.dropped == 0
    assert rec.injected == rec.completed
    assert 0 < sum(rec.completions) < rec.injected  # warmup is excluded


def test_request_table_empty_after_drain():
    exp = make_exp()
    spec = exp.build_runspec("default", 0.6, 1)
    rr = RackRun(spec)
    rr.run()
    assert rr.switch.reqtable.occupancy == 0


def test_same_seed_reproduces_samples_exactly():
    exp = make_exp()
    a = run_point(exp, "default", 0.6, 1)
    b = run_point(exp, "default", 0.6, 1)
    assert a.samples == b.samples
    assert a.dispatch_hist == b.dispatch_hist


def test_different_seeds_differ():
    exp = make_exp(sweep={"loads": [0.6], "seeds": [1, 2],
                          "requests_per_point": 5000})
    a = run_point(exp, "default", 0.6, 1)
    b = run_point(exp, "default", 0.6, 2)
    assert a.samples != b.samples


def test_full_width_sampling_is_exact_shortest():
    raw = {
        "name": "equiv",
        "servers": {"count": 4, "workers": 4},
        "workload": {"service": {"kind": "exponential", "mean_us": 30.0}},
        "policies": {"exact": {"kind": "shortest"},
                     "wide": {"kind": "sampling", "k": 4}},
        "sweep": {"loads": [0.7], "seeds": [5], "requests_per_point": 8000},
    }
    exp = ExperimentConfig.from_dict(raw)
    a = run_point(exp, "exact", 0.7, 5)
    b = run_point(exp, "wide", 0.7, 5)
    assert a.samples == b.samples
    assert a.dispatch_hist == b.dispatch_hist


def test_pooled_global_queue_beats_random_dispatch():
    raw = {
        "name": "pool",
        "servers": {"count": 8, "workers": 8},
        "workload": {"service": {"kind": "exponential", "mean_us": 50.0}},
        "policies": {"pool": {"kind": "global-cfcfs"},
                     "rand": {"kind": "random"}},
        "sweep": {"loads": [0.8], "seeds": [1, 2, 3],
                  "requests_per_point": 30000},
    }
    exp = ExperimentConfig.from_dict(raw)
    for seed in (1, 2, 3):
        pooled = run_point(exp, "pool", 0.8, seed).pooled_p99()
        scattered = run_point(exp, "rand", 0.8, seed).pooled_p99()
        assert pooled < scattered


def test_census_and_buckets_are_recorded():
    exp = make_exp(census_interval_us=47.0, bucket_us=1000.0)
    rec = run_point(exp, "default", 0.6, 1)
    assert sum(rec.census_system.values()) > 0
    assert sum(rec.census_waiting.values()) > 0
    assert sum(rec.buckets[0]) == rec.completed


def test_measurement_window_skips_warmup():
    rec = run_point(make_exp(), "default", 0.6, 1)
    w0, w1 = rec.window
    assert w0 == pytest.approx(0.1 * w1)
    assert sum(rec.arrivals) < rec.injected


def test_client_mode_runs_clean():
    exp = make_exp(policy={"kind": "client", "k": 2, "clients": 16})
    rec = run_point(exp, "default", 0.6, 1)
    assert rec.in_flight() == 0 and rec.completed > 0


def test_multi_packet_requests_stay_on_one_server():
    raw = {
        "name": "affinity",
        "servers": {"count": 4, "workers": 2},
        "workload": {"classes": [
            {"tag": "rpc", "packets": 3,
             "service": {"kind": "exponential", "mean_us": 30.0}}]},
        "policy": {"kind": "sampling", "k": 2},
        "reqtable": {"stages": 1, "slots_per_stage": 64},
        "timeline": [
            {"kind": "remove_server", "at_us": 40000.0, "server": 3,
             "planned": True, "purge_delay_us": 5000.0},
            {"kind": "add_server", "at_us": 80000.0, "server": 3},
        ],
        "sweep": {"loads": [0.6], "seeds": [7], "requests_per_point": 20000},
    }
    exp = ExperimentConfig.from_dict(raw)
    rec, rr = run_traced(exp, "default", 0.6, 7)
    assert rr.switch.affinity_violations == 0
    assert rec.in_flight() == 0
    assert rec.dropped == 0


def test_unplanned_removal_drops_but_conserves():
    exp = make_exp(timeline=[
        {"kind": "remove_server", "at_us": 8000.0, "server": 2,
         "planned": False}])
    rec = run_point(exp, "default", 0.6, 1)
    assert rec.dropped > 0
    assert rec.in_flight() == 0
    assert rec.injected == rec.completed + rec.dropped


def test_switch_outage_drops_everything_in_flight():
    exp = make_exp(timeline=[
        {"kind": "switch_fail", "at_us": 8000.0, "duration_us": 3000.0}])
    rec = run_point(exp, "default", 0.6, 1)
    assert rec.dropped > 0
    assert rec.in_flight() == 0
    assert rec.injected == rec.completed + rec.dropped


def test_int2_dispatches_inside_the_locality_set():
    # every class's tracked (server, minimum) pair starts at server 0,
    # which lies outside this class's set; herding onto one server of the
    # set is int2's own behaviour, landing outside it is not
    raw = {
        "name": "int2-locality",
        "servers": {"count": 8, "workers": 2},
        "locality_sets": {"east": [4, 5, 6, 7]},
        "workload": {"classes": [
            {"tag": "pinned", "locality": "east",
             "service": {"kind": "exponential", "mean_us": 50.0}}]},
        "policy": {"kind": "sampling", "k": 2},
        "tracking": {"kind": "int2"},
        "sweep": {"loads": [0.3], "seeds": [1], "requests_per_point": 20000},
    }
    rec = run_point(ExperimentConfig.from_dict(raw), "default", 0.3, 1)
    assert rec.dispatch_hist[:4] == [0, 0, 0, 0]
    assert sum(rec.dispatch_hist[4:]) == rec.injected
    assert rec.in_flight() == 0


def test_jbsq_release_sends_each_group_member_once():
    raw = {
        "name": "jbsq-groups",
        "servers": {"count": 4, "workers": 2},
        "workload": {"classes": [
            {"tag": "grp", "packets": 2, "group_size": 2,
             "service": {"kind": "exponential", "mean_us": 50.0}}]},
        "policy": {"kind": "jbsq", "bound": 1},
        "sweep": {"loads": [0.7], "seeds": [1], "requests_per_point": 5000},
    }
    spec = ExperimentConfig.from_dict(raw).build_runspec("default", 0.7, 1)
    rr = RackRun(spec)
    served = {}         # id -> [request, completions]; keeps ids unique

    def counting(emit):
        def wrapped(req, sid, load, final, now):
            served.setdefault(id(req), [req, 0])[1] += 1
            emit(req, sid, load, final, now)
        return wrapped

    for srv in rr.servers:
        srv.emit = counting(srv.emit)
    releases = []
    note_rep = rr.switch.note_rep

    def watching(*args):
        out = note_rep(*args)
        if out[1] is not None and out[1][2]:
            releases.append(out[1])
        return out

    rr.switch.note_rep = watching
    rec = rr.run()
    assert releases, "no stalled group was released with buffered packets"
    assert rec.completed == rec.injected
    assert len(served) == rec.injected
    assert all(n == 1 for _, n in served.values())


def test_packets_follow_the_send_schedule():
    # a request's packets leave the client gap_us apart, a group's members
    # one after another; only the group's first packet is a REQF
    gap = 1.5
    raw = {
        "name": "schedule",
        "servers": {"count": 4, "workers": 2},
        "workload": {"inter_packet_gap_us": gap, "classes": [
            {"tag": "rpc", "packets": 3,
             "service": {"kind": "exponential", "mean_us": 30.0}},
            {"tag": "grp", "packets": 2, "group_size": 2,
             "service": {"kind": "exponential", "mean_us": 30.0}}]},
        "policy": {"kind": "sampling", "k": 2},
        "sweep": {"loads": [0.5], "seeds": [3], "requests_per_point": 2000},
    }
    spec = ExperimentConfig.from_dict(raw).build_runspec("default", 0.5, 3)
    rr = RackRun(spec)
    sent = {}           # req_id -> the members of one arrival
    reqf = []
    reqr = {}           # req_id -> requests routed as REQR, in order
    delivered = {}      # req_id -> [(time, server, request)]

    make_request = rr.factory.make_request

    def making(client, now):
        members = make_request(client, now)
        if members:
            sent[members[0].req_id] = members
        return members

    rr.factory.make_request = making
    route_reqf, route_reqr = rr.switch.route_reqf, rr.switch.route_reqr

    def routing_reqf(req, now):
        reqf.append(req)
        return route_reqf(req, now)

    def routing_reqr(req):
        reqr.setdefault(req.req_id, []).append(req)
        return route_reqr(req)

    rr.switch.route_reqf, rr.switch.route_reqr = routing_reqf, routing_reqr
    for srv in rr.servers:
        def arriving(now, req, sid=srv.sid, on_packet=srv.on_packet):
            delivered.setdefault(req.req_id, []).append((now, sid, req))
            on_packet(now, req)
        srv.on_packet = arriving
    rec = rr.run()
    assert rec.dropped == 0 and rec.completed == rec.injected
    assert {len(m) for m in sent.values()} == {1, 2}
    assert {m[0].packets for m in sent.values()} == {2, 3}

    assert reqf == [m[0] for m in sent.values()]
    for rid, members in sent.items():
        first = members[0]
        assert reqr.get(rid, []) == [first] * (first.packets - 1) + [
            r for r in members[1:] for _ in range(r.packets)]
        got = delivered[rid]
        assert [req for _, _, req in got] == [
            r for r in members for _ in range(r.packets)]
        assert len({sid for _, sid, _ in got}) == 1
        times = [t for t, _, _ in got]
        assert [b - a for a, b in zip(times, times[1:])] == \
            pytest.approx([gap] * (len(times) - 1))
