"""End-to-end run properties: conservation, determinism, policy equivalences."""

import gc
import tracemalloc

import pytest

from racksim.baselines import ClientView
from racksim.config import RACK_BASELINES, VARIANT_KEYS, ExperimentConfig
from racksim.engine import EventLoop
from racksim.runner import CSV_COLUMNS, RackRun, _format_row, run_point
from racksim.server import DISCIPLINES
from racksim.switchsim import TRACKING_KINDS

from conftest import held_requests, run_traced


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


def test_a_point_with_a_mix_change_runs_the_same_twice():
    # the classes are the config's one list; a run reweights only its factory
    svc = {"kind": "exponential", "mean_us": 30.0}
    exp = make_exp(
        workload={"classes": [
            {"tag": "a", "service": svc},
            {"tag": "b", "weight": 0.5, "service": svc, "start_us": 2000.0}]},
        timeline=[{"kind": "set_mix", "at_us": 6000.0,
                   "weights": {"a": 0.0, "b": 2.0}}])
    recs = [run_point(exp, "default", 0.6, 1) for _ in range(2)]
    assert [c.weight for c in exp.classes] == [1.0, 0.5]
    a, b = recs
    assert a.samples == b.samples and a.arrivals == b.arrivals
    assert (a.injected, a.completed, a.dispatch_hist) == \
        (b.injected, b.completed, b.dispatch_hist)
    assert all(a.arrivals)


def test_a_latency_sample_costs_about_eight_bytes():
    """Samples are kept unboxed: dropping a record's samples frees 8 B each
    plus the arrays' growth slack, not a list slot and a float object."""
    tracemalloc.start()
    try:
        rr = RackRun(make_exp().build_runspec("default", 0.6, 1))
        rec = rr.run()
        del rr
        gc.collect()
        n = sum(len(s) for s in rec.samples)
        held = tracemalloc.get_traced_memory()[0]
        rec.samples = None
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n > 3000
    assert 8 * n <= held <= 10 * n, f"{held} B hold {n} samples"


def test_different_seeds_differ():
    exp = make_exp(sweep={"loads": [0.6], "seeds": [1, 2],
                          "requests_per_point": 5000})
    a = run_point(exp, "default", 0.6, 1)
    b = run_point(exp, "default", 0.6, 2)
    assert a.samples != b.samples


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


def test_client_views_take_each_reply_when_it_reaches_the_client(monkeypatch):
    # a view learns a reply's load report client_switch_us plus
    # switch_latency_us after the reply passed the switch, not at the switch
    exp = make_exp(policy={"kind": "client", "k": 2, "clients": 16},
                   network={"client_switch_us": 400.0,
                            "switch_latency_us": 3.0},
                   sweep={"loads": [0.6], "seeds": [1],
                          "requests_per_point": 2000})
    rr = RackRun(exp.build_runspec("default", 0.6, 1))
    expected = []
    observed = []
    note_rep = rr.switch.note_rep

    def noting(req, src, load, final, now):
        expected.append((now + (3.0 + 400.0), req.client, src, load))
        return note_rep(req, src, load, final, now)

    observe = ClientView.observe

    def observing(view, server, load):
        client = next(c for c, v in enumerate(rr.views) if v is view)
        observed.append((rr.sim.now, client, server, load))
        observe(view, server, load)

    rr.switch.note_rep = noting
    monkeypatch.setattr(ClientView, "observe", observing)
    rec = rr.run()
    assert rec.completed == rec.injected == len(observed) > 0
    assert sorted(observed) == sorted(expected)


def test_client_dispatch_skips_servers_not_yet_active():
    # the clients pick among the switch's eligible servers, so a server
    # outside `initial_active` gets nothing, as under switch dispatch
    exp = make_exp(policy={"kind": "client", "k": 2},
                   servers={"count": 4, "workers": 4,
                            "initial_active": [0, 1, 2]})
    rec = run_point(exp, "default", 0.6, 1)
    assert rec.dispatch_hist[3] == 0
    assert sum(rec.dispatch_hist) == rec.injected == rec.completed


def test_client_dispatch_takes_the_table_full_fallback():
    # a client's pick that the table cannot place is hashed like any other
    # request, and its trailing packets follow it there
    raw = {
        "name": "client-fallback",
        "servers": {"count": 4, "workers": 2},
        "workload": {"clients": 8, "classes": [
            {"tag": "rpc", "packets": 3,
             "service": {"kind": "exponential", "mean_us": 30.0}}]},
        "policy": {"kind": "client", "k": 2},
        "reqtable": {"stages": 1, "slots_per_stage": 4},
        "sweep": {"loads": [0.7], "seeds": [2], "requests_per_point": 5000},
    }
    rec, rr = run_traced(ExperimentConfig.from_dict(raw), "default", 0.7, 2)
    assert rec.dropped == 0 and rec.completed == rec.injected
    assert rr.switch.affinity_violations == 0
    assert rec.fallback_inserts > 0
    row = _format_row(0.7, 2, 0, rec)
    assert int(row[CSV_COLUMNS.index("fallback_count")]) > 0


@pytest.mark.parametrize("policy,heap", [({"kind": "sampling", "k": 2}, 2),
                                         ({"kind": "client", "k": 2}, 3)])
def test_events_per_single_packet_request(monkeypatch, policy, heap):
    # switch dispatch: the send and the worker timer on the heap, the two
    # hops on lanes; client dispatch adds the reply's arrival at its client
    pushes = {"heap": 0, "lane": 0}
    schedule = EventLoop.schedule

    def scheduling(loop, time, fn, arg=None):
        if getattr(fn, "__func__", None) is not RackRun._ev_maint:
            pushes["heap"] += 1
        schedule(loop, time, fn, arg)

    def laned(push):
        def pushing(now, fn, arg=None):
            pushes["lane"] += 1
            push(now, fn, arg)
        return pushing

    monkeypatch.setattr(EventLoop, "schedule", scheduling)
    exp = make_exp(policy=policy, sweep={"loads": [0.6], "seeds": [1],
                                         "requests_per_point": 2000})
    spec = exp.build_runspec("default", 0.6, 1)
    rr = RackRun(spec)
    rr._to_server = laned(rr._to_server)
    for srv in rr.servers:
        srv.reply = laned(srv.reply)
    rec = rr.run()
    assert rec.dropped == 0 and rec.completed == rec.injected > 0
    # each client's arrival chain also pushes its first send and one that
    # falls past the end of the arrivals
    assert pushes["heap"] - spec.variant.clients == heap * rec.injected
    assert pushes["lane"] == 2 * rec.injected


def _send_times(rr):
    """Wrap the run's request factory; returns the list of (send time, class
    tag) it fills as requests are made."""
    sent = []
    make_request = rr.factory.make_request

    def making(client, now):
        members = make_request(client, now)
        sent.extend((now, m.tag) for m in members)
        return members

    rr.factory.make_request = making
    return sent


def _timeline_run(timeline, classes=None):
    raw = {
        "name": "timeline",
        "servers": {"count": 2, "workers": 2},
        "network": {"client_switch_us": 200.0},
        "workload": {"classes": classes or [
            {"tag": "a", "service": {"kind": "exponential", "mean_us": 20.0}}]},
        "policy": {"kind": "sampling", "k": 2},
        "timeline": timeline,
        "sweep": {"loads": [0.5], "seeds": [1], "duration_us": 40000.0},
    }
    rr = RackRun(ExperimentConfig.from_dict(raw).build_runspec(
        "default", 0.5, 1))
    sent = _send_times(rr)
    rec = rr.run()
    assert rec.dropped == 0 and rec.completed == rec.injected
    return sent


def test_set_load_keeps_the_sends_before_its_time():
    # a load change at 20 ms of send time keeps every request sent before
    # it, the ones still on their way to the switch included
    sent = _timeline_run([{"kind": "set_load", "at_us": 20000.0, "load": 0.5}])
    bins = [0] * 200
    for t, _ in sent:
        bins[int(t // 200.0)] += 1
    assert min(bins) > 0, f"empty 200 us bins at {[i for i, n in enumerate(bins) if not n]}"


def test_set_mix_takes_effect_at_its_send_time():
    svc = {"kind": "exponential", "mean_us": 20.0}
    sent = _timeline_run(
        [{"kind": "set_mix", "at_us": 20000.0, "weights": {"a": 0, "b": 1}}],
        classes=[{"tag": "a", "service": svc},
                 {"tag": "b", "weight": 0, "service": svc}])
    a_times = [t for t, tag in sent if tag == 0]
    b_times = [t for t, tag in sent if tag == 1]
    assert a_times and b_times
    assert max(a_times) < 20000.0 <= min(b_times)


def test_class_window_acts_at_its_send_times():
    # 200 us from client to switch: a window edge scheduled at the switch
    # time of its send time, not at the send time itself
    svc = {"kind": "exponential", "mean_us": 20.0}
    sent = _timeline_run([], classes=[
        {"tag": "a", "service": svc, "stop_us": 20000.0},
        {"tag": "late", "weight": 3, "service": svc, "start_us": 10000.0}])
    a_times = [t for t, tag in sent if tag == 0]
    late_times = [t for t, tag in sent if tag == 1]
    assert max(a_times) < 20000.0 <= max(late_times)
    assert 10000.0 <= min(late_times) < 10100.0
    assert 19800.0 <= max(a_times)


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
             "planned": True},
            {"kind": "add_server", "at_us": 80000.0, "server": 3},
        ],
        "sweep": {"loads": [0.6], "seeds": [7], "requests_per_point": 20000},
    }
    exp = ExperimentConfig.from_dict(raw)
    rec, rr = run_traced(exp, "default", 0.6, 7)
    assert rr.switch.affinity_violations == 0
    assert rec.in_flight() == 0
    assert rec.dropped == 0


def test_server_coming_up_under_jbsq_serves_the_stalled_requests():
    """Server 3 joins while every other server is at the JBSQ bound; the
    requests it takes at once reach it, and every request completes."""
    exp = make_exp(
        policy={"kind": "jbsq", "bound": 1},
        servers={"count": 4, "workers": 1,
                 "initial_active": [0, 1, 2]},
        timeline=[{"kind": "add_server", "at_us": 20000.0, "server": 3}])
    rr = RackRun(exp.build_runspec("default", 0.9, 1))
    sw = rr.switch
    set_active = sw.set_active
    released = []

    def spy(server, flag, now):
        out = set_active(server, flag, now)
        released.extend(out)
        return out

    sw.set_active = spy
    rec = rr.run()
    assert released, "no request was stalled when the server came up"
    assert rec.dispatch_hist[3] > 0
    assert rec.in_flight() == 0 and rec.dropped == 0
    assert rec.injected == rec.completed


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
        "policy": {"kind": "int2"},
        "sweep": {"loads": [0.3], "seeds": [1], "requests_per_point": 20000},
    }
    rec = run_point(ExperimentConfig.from_dict(raw), "default", 0.3, 1)
    assert rec.dispatch_hist[:4] == [0, 0, 0, 0]
    assert sum(rec.dispatch_hist[4:]) == rec.injected
    assert rec.in_flight() == 0


@pytest.mark.parametrize("policy", [
    {"kind": "jbsq", "bound": 2},
    {"kind": "shortest", "tracking": {"kind": "proactive"}},
], ids=["jbsq", "proactive"])
def test_a_failed_server_comes_back_with_no_counts(policy):
    # server 0 fails holding requests the switch counted, which never reply;
    # back in the rack it must take its share again, and every row the
    # switch counts itself drains to zero. Ties go to the lowest index, so
    # a server that comes back empty gets the most dispatches, not the least
    exp = ExperimentConfig.from_dict({
        "name": "count-leak",
        "servers": {"count": 4, "workers": 2},
        "workload": {"service": {"kind": "exponential", "mean_us": 50.0}},
        "policy": policy,
        "timeline": [{"kind": "remove_server", "at_us": 20000.0, "server": 0,
                      "planned": False},
                     {"kind": "add_server", "at_us": 40000.0, "server": 0}],
        "sweep": {"loads": [0.6], "seeds": [1], "requests_per_point": 20000},
    })
    rr = RackRun(exp.build_runspec("default", 0.6, 1))
    at_readd = []
    rr.sim.schedule(40000.0, lambda now, _: at_readd.append(
        list(rr.switch.dispatch_hist)), None)
    rec = rr.run()
    after = [n - m for n, m in zip(rec.dispatch_hist, at_readd[0])]
    assert sum(after) > 15000
    assert after[0] >= min(after[1:])
    assert all(v == 0 for row in rr.switch.loads for v in row)
    assert rec.injected == rec.completed + rec.dropped and rec.dropped > 0


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

    def counting(reply):
        def wrapped(now, fn, arg):
            req = arg[0]
            served.setdefault(id(req), [req, 0])[1] += 1
            reply(now, fn, arg)
        return wrapped

    for srv in rr.servers:
        srv.reply = counting(srv.reply)
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


def test_wrappers_installed_after_construction_see_every_call():
    """The runner looks up the switch's methods, and each server its reply
    push, at call time, so wrappers installed on a constructed run (as the
    benchmark's tracer does) see every call."""
    raw = {
        "name": "wrapped",
        "servers": {"count": 4, "workers": 2},
        "workload": {"classes": [
            {"tag": "rpc", "packets": 3,
             "service": {"kind": "exponential", "mean_us": 30.0}},
            {"tag": "one", "service": {"kind": "exponential", "mean_us": 30.0}},
            {"tag": "grp", "packets": 2, "group_size": 2,
             "service": {"kind": "exponential", "mean_us": 30.0}}]},
        "policy": {"kind": "sampling", "k": 2},
        "sweep": {"loads": [0.6], "seeds": [2], "requests_per_point": 3000},
    }
    spec = ExperimentConfig.from_dict(raw).build_runspec("default", 0.6, 2)
    rr = RackRun(spec)
    calls = {"arrivals": 0, "packets": 0, "route_reqf": 0, "route_reqr": 0,
             "note_rep": 0, "reply": 0, "final": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    make_request = rr.factory.make_request

    def making(client, now):
        members = make_request(client, now)
        if members:
            calls["arrivals"] += 1
            calls["packets"] += sum(m.packets for m in members)
        return members

    rr.factory.make_request = making
    sw = rr.switch
    for name in ("route_reqf", "route_reqr", "note_rep"):
        setattr(sw, name, counted(name, getattr(sw, name)))

    def replying(reply):
        def wrapped(now, fn, arg):
            calls["reply"] += 1
            calls["final"] += arg[3]
            reply(now, fn, arg)
        return wrapped

    for srv in rr.servers:
        srv.reply = replying(srv.reply)
    rec = rr.run()
    assert rec.dropped == 0 and rec.completed == rec.injected
    assert calls["packets"] > 2 * calls["arrivals"] > 0
    # one first packet per arrival, every other packet a follow-on
    assert calls["route_reqf"] == calls["arrivals"]
    assert calls["route_reqr"] == calls["packets"] - calls["arrivals"]
    # one reply per request, each seen at the switch and completed there;
    # a group's last reply is its only final one
    assert calls["reply"] == calls["note_rep"] == rec.injected == rec.completed
    assert calls["final"] == calls["arrivals"] < rec.injected
    assert sw.reqtable.occupancy == 0


def _send_schedule_run(policy, gap):
    """One run with a 3-packet class and a 2-packet group_size 2 class.
    Returns the RackRun, the members of each arrival keyed by req_id, and
    each req_id's packet deliveries as (time, server, request)."""
    raw = {
        "name": "schedule",
        "servers": {"count": 4, "workers": 2},
        "workload": {"inter_packet_gap_us": gap, "classes": [
            {"tag": "rpc", "packets": 3,
             "service": {"kind": "exponential", "mean_us": 30.0}},
            {"tag": "grp", "packets": 2, "group_size": 2,
             "service": {"kind": "exponential", "mean_us": 30.0}}]},
        "policy": policy,
        "sweep": {"loads": [0.5], "seeds": [3], "requests_per_point": 2000},
    }
    spec = ExperimentConfig.from_dict(raw).build_runspec("default", 0.5, 3)
    rr = RackRun(spec)
    sent = {}
    delivered = {}
    make_request = rr.factory.make_request

    def making(client, now):
        members = make_request(client, now)
        if members:
            sent[members[0].req_id] = members
        return members

    rr.factory.make_request = making
    for srv in rr.servers:
        def arriving(now, req, sid=srv.sid, on_packet=srv.on_packet):
            delivered.setdefault(req.req_id, []).append((now, sid, req))
            on_packet(now, req)
        srv.on_packet = arriving
    return rr, sent, delivered


def test_packets_follow_the_send_schedule():
    # a request's packets leave the client gap_us apart, a group's members
    # one after another, under switch and client dispatch alike; at the
    # switch only the group's first packet is a REQF
    gap = 1.5
    for policy in ({"kind": "sampling", "k": 2}, {"kind": "client", "k": 2}):
        rr, sent, delivered = _send_schedule_run(policy, gap)
        reqf = []
        reqr = {}       # req_id -> requests routed as REQR, in order
        route_reqf, route_reqr = rr.switch.route_reqf, rr.switch.route_reqr

        def routing_reqf(req, now, route_reqf=route_reqf):
            reqf.append(req)
            return route_reqf(req, now)

        def routing_reqr(req, route_reqr=route_reqr):
            reqr.setdefault(req.req_id, []).append(req)
            return route_reqr(req)

        rr.switch.route_reqf = routing_reqf
        rr.switch.route_reqr = routing_reqr
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


@pytest.mark.parametrize("intra", sorted(DISCIPLINES))
def test_every_discipline_runs_from_a_config(intra):
    # each discipline, reached through ExperimentConfig and RackRun, loses
    # no request and leaves every server empty and idle; with server 1
    # removed unplanned and added back, it drops some, counts each once,
    # and leaves no request of the 2-packet class at any server
    block = {"kind": intra, "slice_us": 10.0}
    if intra == "wfq":
        block["wfq_weights"] = [2, 1]
    fault = [{"kind": "remove_server", "at_us": 5000.0, "server": 1,
              "planned": False},
             {"kind": "add_server", "at_us": 10000.0, "server": 1}]
    for timeline, packets in (([], 1), (fault, 2)):
        raw = {
            "name": f"wiring-{intra}",
            "servers": {"count": 2, "workers": 2},
            "workload": {"clients": 2, "classes": [
                {"tag": "hi", "priority": 1,
                 "service": {"kind": "exponential", "mean_us": 30.0}},
                {"tag": "lo", "packets": packets,
                 "service": {"kind": "exponential", "mean_us": 30.0}}]},
            "policy": {"kind": "sampling", "k": 2},
            "intra": block,
            "sweep": {"loads": [0.8], "seeds": [1], "requests_per_point": 2000},
            "timeline": timeline,
        }
        rr = RackRun(ExperimentConfig.from_dict(raw).build_runspec("default", 0.8, 1))
        rec = rr.run()
        assert rec.completed > 0 and (rec.dropped > 0) == bool(timeline)
        assert rec.injected == rec.completed + rec.dropped
        for srv in rr.servers:
            assert srv.in_system == srv.busy == 0
        assert held_requests(rr) == []


@pytest.mark.parametrize("policy,tracking", [
    (p, t) for p, reads in VARIANT_KEYS.items() if p not in RACK_BASELINES
    for t in (TRACKING_KINDS if "tracking" in reads else ("int1",))])
def test_every_policy_and_tracking_runs_from_a_config(policy, tracking):
    # each switch policy under each tracking kind it reads, over a pinned
    # class and a 2-packet class, loses no request and leaves the switch
    # and every server empty, and counted load rows back at zero
    service = {"kind": "exponential", "mean_us": 30.0}
    raw = {
        "name": f"wiring-{policy}-{tracking}",
        "servers": {"count": 2, "workers": 2},
        "locality_sets": {"one": [1]},
        "workload": {"clients": 2, "classes": [
            {"tag": "pinned", "locality": "one", "service": service},
            {"tag": "pair", "packets": 2, "service": service}]},
        "policy": {"kind": policy},
        "tracking": {"kind": tracking},
        "sweep": {"loads": [0.5], "seeds": [1], "requests_per_point": 2000},
    }
    rr = RackRun(ExperimentConfig.from_dict(raw).build_runspec("default", 0.5, 1))
    rec = rr.run()
    assert rec.completed > 0
    assert rec.injected == rec.completed + rec.dropped
    for srv in rr.servers:
        assert srv.in_system == srv.busy == 0
    sw = rr.switch
    assert sw.reqtable.occupancy == 0 and not sw.stalled
    if tracking == "proactive" or policy == "jbsq":
        assert all(v == 0 for row in sw.loads for v in row)
