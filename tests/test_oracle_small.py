"""Exact-schedule comparison against the independent brute-force executor."""

import math
import random

import pytest

from racksim.engine import EventLoop
from racksim.server import Server
from racksim.switchsim import ReqTable, Switch, make_policy
from racksim.workload import Request

from oracle_small import FWD_US, TieCollision, brute_force


def run_sim(arrivals, services, n_servers, n_workers, intra, slice_us,
            threshold=None, shortest=False, clients=None, weights=None):
    """Scripted arrivals through the real switch and servers; returns the
    server-side completion time per request. The switch runs round robin,
    or with `shortest`, the exact minimum over proactive counts. Request i
    comes from `clients[i]` (client 0 without them); `weights` are wfq's."""
    sim = EventLoop()
    done = {}

    def reply(now, fn, arg):
        fn(now, arg)    # no hop: a reply is collected when it is sent

    def on_reply(now, arg):
        req, src, load, final = arg
        done[req.req_id] = now
        switch.note_rep(req, src, load, final, now)

    table = ReqTable(64, [11, 22], ttl_us=math.inf)
    policy, tracking = ("shortest", "proactive") if shortest else ("rr", "int1")
    switch = Switch(
        n_servers, 1, [list(range(n_servers))], [True] * n_servers,
        make_policy(policy, 1, 0), tracking, table,
        random.Random(1), random.Random(2), fallback_salt=999)
    servers = [
        Server(s, n_workers, intra, sim, reply, on_reply, switch.mark_dropped,
               n_classes=1, slice_us=slice_us, preempt_threshold_us=threshold,
               wfq_weights=weights)
        for s in range(n_servers)
    ]

    def route(now, req):
        dst = switch.route_reqf(req, now)
        sim.schedule(now + FWD_US, servers[dst].on_packet, req)

    for i, (t, svc) in enumerate(zip(arrivals, services)):
        req = Request(i + 1, clients[i] if clients else 0, 0, 0, 0, 1, svc, t)
        sim.schedule(t, route, req)

    sim.run_until(1e9)
    return [done[i + 1] for i in range(len(arrivals))]


WIDE_SEEDS = range(120, 360)


def make_case(seed):
    """Seeds below 120: up to 2 workers and 6 requests, cfcfs or ps. From
    120 on: up to 4 workers and 10 requests, so a queued arrival often
    interrupts several workers' uninterrupted slice runs at once, and a
    third of the cases are cfcfs preempting at a threshold."""
    rnd = random.Random(seed)
    wide = seed >= WIDE_SEEDS.start
    n_servers = rnd.choice([1, 2])
    n_workers = rnd.randint(1, 4) if wide else rnd.choice([1, 2])
    intra = rnd.choice(["cfcfs", "ps"])
    slice_us = rnd.choice([7.5, 25.0])
    threshold = None
    if wide and intra == "cfcfs" and rnd.random() < 2 / 3:
        threshold = rnd.choice([7.5, 25.0])
    n_req = rnd.randint(1, 10 if wide else 6)
    arrivals = []
    t = 0.0
    for _ in range(n_req):
        t += round(rnd.uniform(0.5, 40.0), 1)
        arrivals.append(t)
    services = [round(rnd.uniform(3.0, 120.0), 1) for _ in range(n_req)]
    return arrivals, services, n_servers, n_workers, intra, slice_us, threshold


def expected(seed, shortest=False):
    """The brute-force completion times of a case; raises TieCollision.
    cfcfs with a threshold is the brute-force ps replay sliced at the
    threshold: both requeue an unfinished request at the tail."""
    (arrivals, services, n_servers, n_workers, intra, slice_us,
     threshold) = make_case(seed)
    if threshold is not None:
        discipline, quantum = "ps", threshold
    else:
        discipline, quantum = ("ps" if intra == "ps" else "fcfs"), slice_us
    return brute_force(arrivals, services, n_servers, n_workers, discipline,
                       quantum, shortest)


def compare_case(seed, shortest=False):
    """Returns "skip" on a tie collision, else asserts exact agreement."""
    (arrivals, services, n_servers, n_workers, intra, slice_us,
     threshold) = make_case(seed)
    try:
        expect = expected(seed, shortest)
    except TieCollision:
        return "skip"
    got = run_sim(arrivals, services, n_servers, n_workers, intra, slice_us,
                  threshold, shortest)
    assert got == pytest.approx(expect, abs=1e-9), (
        f"seed {seed}: {list(zip(arrivals, services))} "
        f"servers={n_servers} workers={n_workers} {intra}/{slice_us} "
        f"threshold={threshold} shortest={shortest}")
    return "ok"


def test_exact_completions_match_brute_force():
    results = [compare_case(seed) for seed in range(120)]
    checked = results.count("ok")
    assert checked >= 80, f"too many tie-skipped cases: {results.count('skip')}"


def test_wide_cases_match_brute_force(monkeypatch):
    """More workers and requests, and cfcfs with a threshold; also checks
    that the cases interrupt two or more coalesced runs at one arrival."""
    most = [0]
    cut = Server._cut_runs

    def counting_cut(self, now):
        runs = sum(1 for q in self.w_q if q > self.cap)
        most[0] = max(most[0], runs)
        cut(self, now)

    monkeypatch.setattr(Server, "_cut_runs", counting_cut)
    results = {seed: compare_case(seed) for seed in WIDE_SEEDS}
    ok = [seed for seed, r in results.items() if r == "ok"]
    assert len(ok) >= 2 * len(WIDE_SEEDS) // 3, (
        f"too many tie-skipped cases: {len(results) - len(ok)}")
    assert sum(1 for seed in ok if make_case(seed)[6] is not None) >= 30
    assert sum(1 for seed in ok if make_case(seed)[3] >= 3) >= 60
    assert most[0] >= 2


@pytest.mark.parametrize("seeds,departures", [(range(120), 5),
                                               (WIDE_SEEDS, 15)],
                         ids=["narrow", "wide"])
def test_shortest_over_proactive_counts_matches_brute_force(seeds, departures):
    """Exact shortest over the switch's proactive counts against the
    oracle's own count of requests outstanding per server. On two servers
    it must depart from round robin in some cases (7 of the narrow ones and
    17 of the wide), or the cases would show nothing round robin does not."""
    results = {seed: compare_case(seed, shortest=True) for seed in seeds}
    ok = [seed for seed, r in results.items() if r == "ok"]
    assert len(ok) >= 2 * len(seeds) // 3, (
        f"too many tie-skipped cases: {len(results) - len(ok)}")
    assert {make_case(seed)[4] for seed in ok} == {"cfcfs", "ps"}
    departs = 0
    for seed in ok:
        try:
            departs += expected(seed) != expected(seed, shortest=True)
        except TieCollision:
            pass
    assert departs >= departures


def make_wfq_case(seed):
    """Up to 4 workers on 1-2 servers, 2-3 clients of weights 1-3 and up to
    10 requests, the clients drawn per request."""
    rnd = random.Random(seed)
    n_servers = rnd.choice([1, 2])
    n_workers = rnd.randint(1, 4)
    weights = [rnd.randint(1, 3) for _ in range(rnd.randint(2, 3))]
    slice_us = rnd.choice([7.5, 25.0])
    n_req = rnd.randint(1, 10)
    arrivals = []
    t = 0.0
    for _ in range(n_req):
        t += round(rnd.uniform(0.5, 20.0), 1)
        arrivals.append(t)
    services = [round(rnd.uniform(3.0, 120.0), 1) for _ in range(n_req)]
    clients = [rnd.randrange(len(weights)) for _ in range(n_req)]
    return arrivals, services, n_servers, n_workers, slice_us, clients, weights


def test_wfq_matches_brute_force():
    """WFQ's turns and forfeits against the oracle's own, on multi-worker
    servers too; in some cases the weights must reorder completions against
    processor sharing over one FIFO, or the cases would show nothing ps
    does not."""
    ok = departs = wide = 0
    for seed in range(300):
        (arrivals, services, n_servers, n_workers, slice_us, clients,
         weights) = make_wfq_case(seed)
        try:
            expect = brute_force(arrivals, services, n_servers, n_workers,
                                 "wfq", slice_us, clients=clients,
                                 weights=weights)
            fifo = brute_force(arrivals, services, n_servers, n_workers,
                               "ps", slice_us)
        except TieCollision:
            continue
        got = run_sim(arrivals, services, n_servers, n_workers, "wfq",
                      slice_us, clients=clients, weights=weights)
        assert got == pytest.approx(expect, abs=1e-9), (
            f"seed {seed}: {list(zip(arrivals, services, clients))} "
            f"servers={n_servers} workers={n_workers} slice={slice_us} "
            f"weights={weights}")
        ok += 1
        if expect != pytest.approx(fifo, abs=1e-9):
            departs += 1
            wide += n_workers >= 2
    assert ok >= 200 and departs >= 80 and wide >= 40, (ok, departs, wide)


def test_hand_traced_ps_slice():
    # one worker, slice 25, both jobs two slices long; they interleave:
    # [3,28]A [28,53]B [53,78]A [78,103]B
    arrivals = [1.0, 2.0]
    services = [50.0, 50.0]
    got = run_sim(arrivals, services, 1, 1, "ps", 25.0)
    assert got == [78.0, 103.0]


def test_hand_traced_fcfs_two_workers():
    # both workers take the first two jobs; the third waits for the earliest
    arrivals = [1.0, 2.0, 3.0]
    services = [30.0, 10.0, 5.0]
    got = run_sim(arrivals, services, 1, 2, "cfcfs", 25.0)
    a0, a1, a2 = (t + FWD_US for t in arrivals)
    assert got[0] == a0 + 30.0
    assert got[1] == a1 + 10.0
    assert got[2] == a1 + 10.0 + 5.0  # starts when the 10us job frees a worker


def test_hand_traced_shortest_counts_requests_not_work():
    # counts [1, 0] send the second request to server 1; at 3 us neither
    # has replied, so the tie [1, 1] sends the third to server 0, behind
    # the 100 us request, though server 1 frees first. (On identical
    # servers, ties to the highest index would mirror the whole schedule
    # and give the same times, so no completion time shows the tie rule.)
    arrivals = [1.0, 2.0, 3.0]
    services = [100.0, 10.0, 5.0]
    expect = [103.0, 14.0, 108.0]
    assert brute_force(arrivals, services, 2, 1, "fcfs", shortest=True) == expect
    assert run_sim(arrivals, services, 2, 1, "cfcfs", 25.0,
                   shortest=True) == expect
