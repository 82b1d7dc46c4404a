"""The switch's affinity and per-class dispatch counters against an
independent observer at the servers, over tiny fuzzed racks with faults.

The observer wraps every server's `on_packet`, as
`test_runner_props._send_schedule_run` does, and records where each packet
lands. It tells a request's first packet (the one the switch dispatches)
from its follow-on packets by where the runner puts it on the
switch-to-server lane: a send forwards only its first packet, and a released
stall forwards its first packet ahead of the buffered ones. That lane is
FIFO, so packets land in the order they were put on it.
"""

from collections import deque

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from racksim.config import ExperimentConfig
from racksim.runner import RackRun

from conftest import held_requests

MEAN_US = 20.0
LOAD = 0.7
POLICIES = st.one_of(
    st.sampled_from([{"kind": "random"}, {"kind": "rr"},
                     {"kind": "sampling", "k": 2},
                     {"kind": "shortest", "tracking": {"kind": "proactive"}}]),
    st.builds(lambda b: {"kind": "jbsq", "bound": b}, st.integers(1, 2)))


@st.composite
def racks(draw):
    """A config of 1-4 servers x 1-3 workers, 1-2 classes of 1-4 packets
    (one optionally on a locality set), a 1-stage table, one policy, 100-400
    requests and a timeline of faults. Removals take servers from the top,
    server 0 too, which every locality set holds, so a set may run out of
    servers until one is re-added."""
    n = draw(st.integers(1, 4))
    workers = draw(st.integers(1, 3))
    requests = draw(st.integers(100, 400))
    horizon = requests / (LOAD * n * workers / MEAN_US) / 0.9
    at = st.floats(0.05, 0.8).map(lambda f: round(f * horizon, 1))
    span = st.floats(0.02, 0.3).map(lambda f: round(f * horizon, 1))

    classes = [{"tag": f"c{i}", "packets": draw(st.integers(1, 4)),
                "group_size": draw(st.integers(1, 2)),
                "service": {"kind": "exponential", "mean_us": MEAN_US}}
               for i in range(draw(st.integers(1, 2)))]
    raw = {"name": "affinity-fuzz",
           "servers": {"count": n, "workers": workers},
           "workload": {"inter_packet_gap_us": draw(st.sampled_from([40.0, 1.0])),
                        "classes": classes},
           # a 0.05 ms TTL purges live mappings under a 40 us packet gap
           "reqtable": {"stages": 1, "slots_per_stage": draw(st.integers(2, 64)),
                        "ttl_ms": draw(st.sampled_from([0.05, 100.0]))},
           "policy": draw(POLICIES),
           "sweep": {"loads": [LOAD], "seeds": [draw(st.integers(1, 50))],
                     "requests_per_point": requests, "drain_us": 50000.0}}
    if n == 1 and raw["policy"]["kind"] == "sampling":
        raw["policy"]["k"] = 1
    if draw(st.booleans()):
        raw["locality_sets"] = {"near": list(range(draw(st.integers(1, n))))}
        classes[-1]["locality"] = "near"

    timeline = []
    if draw(st.booleans()):
        timeline.append({"kind": "switch_fail", "at_us": draw(at),
                         "duration_us": draw(span)})
    for server, planned in zip(range(n - 1, -1, -1),
                               draw(st.lists(st.booleans(), max_size=2))):
        t = draw(at)
        ev = {"kind": "remove_server", "at_us": t, "server": server,
              "planned": planned}
        if not planned:
            ev["purge_delay_us"] = draw(span)
        timeline += [ev, {"kind": "add_server", "server": server,
                          "at_us": round(t + draw(span), 1)}]
    raw["timeline"] = timeline
    return raw


def split_then_fail(n):
    """n servers x 1 worker, 3-packet requests 40 us apart whose live
    mappings a 0.05 ms TTL purges, so that some split across two servers,
    and the top server removed unplanned halfway. Each config once counted
    a request as both completed and dropped: with 2 servers, one that
    completed on server 0 and left a stale reassembly entry on the failed
    server; with 3, one dropped with the failed server whose last packet
    then completed it elsewhere."""
    h = 100 / (LOAD * n / MEAN_US) / 0.9
    cls = {"tag": "c0", "packets": 3, "group_size": 1,
           "service": {"kind": "exponential", "mean_us": MEAN_US}}
    return {"name": "affinity-fuzz", "servers": {"count": n, "workers": 1},
            "workload": {"inter_packet_gap_us": 40.0, "classes": [cls]},
            "reqtable": {"stages": 1, "slots_per_stage": 2, "ttl_ms": 0.05},
            "policy": {"kind": "random"},
            "sweep": {"loads": [LOAD], "seeds": [1], "requests_per_point": 100,
                      "drain_us": 50000.0},
            "timeline": [{"kind": "remove_server", "at_us": round(h / 2, 1),
                          "server": n - 1, "planned": False,
                          "purge_delay_us": round(h / 4, 1)},
                         {"kind": "add_server", "server": n - 1,
                          "at_us": round(3 * h / 4, 1)}]}


def empty_set(policy):
    """A 4x2 rack whose set "one" is server 3 alone, with one class pinned
    to it and one free, and a planned removal of server 3 at 2000 us that is
    never undone: 2000 requests at load 0.5, seed 1 (the counters' test
    runs it at its own load)."""
    svc = {"kind": "exponential", "mean_us": MEAN_US}
    return {"name": "empty-set", "servers": {"count": 4, "workers": 2},
            "locality_sets": {"one": [3]},
            "workload": {"classes": [
                {"tag": "pinned", "locality": "one", "service": svc},
                {"tag": "free", "service": svc}]},
            "policy": policy,
            "sweep": {"loads": [0.5], "seeds": [1], "requests_per_point": 2000},
            "timeline": [{"kind": "remove_server", "at_us": 2000.0,
                          "server": 3}]}


def split_under_jbsq():
    """A 3x1 rack under JBSQ with bound 1: groups of two 2-packet requests
    40 us apart, which a 3-slot table with a 0.05 ms TTL splits across
    servers, and a class pinned to server 0. The count of a split request
    once came off the server of its final reply, not the one it was counted
    on, and the counts left at the bound stalled 82 requests to the end."""
    svc = {"kind": "exponential", "mean_us": MEAN_US}
    return {"name": "affinity-fuzz", "servers": {"count": 3, "workers": 1},
            "locality_sets": {"near": [0]},
            "workload": {"inter_packet_gap_us": 40.0, "classes": [
                {"tag": "c0", "packets": 2, "group_size": 2, "service": svc},
                {"tag": "c1", "locality": "near", "service": svc}]},
            "reqtable": {"stages": 1, "slots_per_stage": 3, "ttl_ms": 0.05},
            "policy": {"kind": "jbsq", "bound": 1},
            "sweep": {"loads": [LOAD], "seeds": [8], "requests_per_point": 100,
                      "drain_us": 50000.0},
            "timeline": []}


def observe(rr):
    """Record each landing as (req_id, class, server, is first packet)."""
    landed = []
    marks = deque()     # per packet on the switch-to-server lane, in order
    head = [False]      # the next packet put on the lane is a first packet
    push, send, forward = rr._to_server, rr._send, rr._forward

    def pushing(now, fn, req):
        marks.append(head[0])
        head[0] = False
        push(now, fn, req)

    def sending(now, arg):
        head[0] = True
        send(now, arg)
        head[0] = False

    def forwarding(now, release):
        head[0] = True
        forward(now, release)

    rr._to_server, rr._send, rr._forward = pushing, sending, forwarding
    for srv in rr.servers:
        def arriving(now, req, sid=srv.sid, on_packet=srv.on_packet):
            landed.append((req.req_id, req.tag, sid, marks.popleft()))
            on_packet(now, req)
        srv.on_packet = arriving
    return landed


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(racks())
@example(split_then_fail(2))
@example(split_then_fail(3))
@example(empty_set({"kind": "jbsq"}))
@example(split_under_jbsq())
def test_switch_counters_match_the_packets_the_servers_saw(raw):
    exp = ExperimentConfig.from_dict(raw)
    rr = RackRun(exp.build_runspec("default", LOAD, raw["sweep"]["seeds"][0]))
    sw = rr.switch
    readds = []         # (dispatch_hist, its column sums) at each re-add
    for ev in raw["timeline"]:
        if ev["kind"] == "add_server":
            rr.sim.schedule(ev["at_us"], lambda now, _: readds.append((
                sw.dispatch_hist,
                [sum(d.get(s, 0) for d in sw.class_dispatch)
                 for s in range(len(sw.active))])), None)
    landed = observe(rr)
    rec = rr.run()
    assert rec.injected == rec.completed + rec.dropped

    first_at = {}
    split = 0
    dispatch = [{} for _ in exp.classes]
    for rid, tag, sid, first in landed:
        split += first_at.setdefault(rid, sid) != sid
        if first:
            dispatch[tag][sid] = dispatch[tag].get(sid, 0) + 1
        assert sid in exp.variants["default"].loc_sets[exp.classes[tag].locality]
    assert sw.affinity_violations == split
    assert sw.class_dispatch == dispatch
    if not sw.reqtable.purged:
        assert split == 0
    assert all(hist == sums for hist, sums in readds)
    assert held_requests(rr) == []


def multi_packet_run(packets, **raw):
    """A 4x2 rack under `random`, 5000 requests of `packets` packets 30 us
    apart at load 0.7, seed 1, with the extra config keys given, run to the
    end."""
    raw.update({"name": "reassembly", "servers": {"count": 4, "workers": 2},
                "workload": {"inter_packet_gap_us": 30.0,
                             "classes": [{"tag": "c0", "packets": packets,
                                          "service": {"kind": "exponential",
                                                      "mean_us": MEAN_US}}]},
                "policy": {"kind": "random"},
                "sweep": {"loads": [LOAD], "seeds": [1],
                          "requests_per_point": 5000}})
    rr = RackRun(ExperimentConfig.from_dict(raw).build_runspec("default", LOAD, 1))
    return rr, rr.run()


def test_no_reassembly_entry_outlives_its_request():
    """Under a 0.05 ms TTL, purges split many requests across two servers,
    and the server that took a request's last packet completes it. Each
    such split once left the request, whole and never cleared, at the
    server that took its first packet."""
    rr, rec = multi_packet_run(3, reqtable={"ttl_ms": 0.05})
    assert rr.switch.affinity_violations > 1000
    assert rec.injected == rec.completed
    assert held_requests(rr) == []


def test_no_reassembly_entry_outlives_its_dropped_request():
    """A 500 us switch failure: a request whose first packets reached a
    server before it and whose later ones it dropped once stayed at that
    server to the end."""
    rr, rec = multi_packet_run(3, timeline=[{"kind": "switch_fail",
                                             "at_us": 3000.0,
                                             "duration_us": 500.0}])
    assert rec.dropped > 0 and rec.injected == rec.completed + rec.dropped
    assert held_requests(rr) == []


def test_no_server_holds_a_split_request_dropped_at_the_switch():
    """4 packets under a 0.05 ms TTL and a 500 us switch failure: a request
    whose packets split across two servers before the switch dropped a later
    one once stayed at the second server to the end (3 packets never split
    before the last)."""
    rr, rec = multi_packet_run(4, reqtable={"ttl_ms": 0.05},
                               timeline=[{"kind": "switch_fail",
                                          "at_us": 3000.0,
                                          "duration_us": 500.0}])
    assert rr.switch.affinity_violations > 0 and rec.dropped > 0
    assert rec.injected == rec.completed + rec.dropped
    assert held_requests(rr) == []


@pytest.mark.parametrize("policy", [{"kind": "random"},
                                    {"kind": "sampling", "k": 2},
                                    {"kind": "jbsq"}])
def test_a_set_with_no_active_server_drops_its_requests(policy):
    """Once server 3 is gone, the pinned class has nowhere to go: each of
    its first packets is dropped at the switch, and so is each request JBSQ
    had stalled for it. The run once raised `SimulationError` at the first,
    and the free class runs on."""
    exp = ExperimentConfig.from_dict(empty_set(policy))
    rr = RackRun(exp.build_runspec("default", 0.5, 1))
    rec = rr.run()
    assert rec.dropped > 0 and rec.completions[1] > 0
    assert rec.injected == rec.completed + rec.dropped
    assert not rr.switch.stalled and held_requests(rr) == []
