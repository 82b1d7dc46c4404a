"""Server disciplines: hand-traced schedules, preemption, load reporting."""

import random

import pytest

from racksim.engine import EventLoop, SimulationError
from racksim.server import Server
from racksim.workload import Group, Request


def make_req(rid, service, arrival=0.0, tag=0, priority=0, client=0,
             packets=1, group=None):
    return Request(rid, client, tag, priority, 0, packets, service, arrival,
                   group=group)


class CountingLoop(EventLoop):
    """An event loop that counts the worker timers it is asked to schedule."""

    __slots__ = ("worker_timers",)

    def __init__(self):
        super().__init__()
        self.worker_timers = 0

    def schedule(self, time, fn, arg=None):
        if getattr(fn, "__func__", None) is Server._on_worker:
            self.worker_timers += 1
        super().schedule(time, fn, arg)


class Harness:
    """One server on its own event loop, completions collected in order."""

    def __init__(self, intra, n_workers=1, **kw):
        self.sim = CountingLoop()
        self.done = []  # (req_id, completion_time, reported_load, final)
        self.dropped = []
        self.server = Server(0, n_workers, intra, self.sim, self._reply,
                             self._on_reply, self.dropped.append, **kw)

    @staticmethod
    def _reply(now, fn, arg):
        fn(now, arg)    # no hop: a reply is collected when it is sent

    def _on_reply(self, now, arg):
        req, _sid, load, final = arg
        self.done.append((req.req_id, now, load, final))

    def send(self, req, at=None):
        self.sim.schedule(req.arrival if at is None else at,
                          self.server.on_packet, req)

    def run(self, until=1e9):
        self.sim.run_until(until)
        return self.done

    def times(self):
        return [(rid, t) for rid, t, _, _ in self.done]


# -- processor sharing -----------------------------------------------------------


def test_ps_two_equal_jobs_share_in_slices():
    h = Harness("ps", slice_us=25.0)
    h.send(make_req(1, 50.0, 0.0))
    h.send(make_req(2, 50.0, 0.0))
    assert h.run() and h.times() == [(1, 75.0), (2, 100.0)]


def test_ps_short_job_finishes_within_first_slice():
    h = Harness("ps", slice_us=25.0)
    h.send(make_req(1, 10.0, 0.0))
    h.send(make_req(2, 50.0, 0.0))
    # job 1 runs [0,10], then job 2 runs its 25-slices uninterrupted
    assert h.run() and h.times() == [(1, 10.0), (2, 60.0)]


def test_mq_ps_slices_alternate_within_a_class():
    h = Harness("mq-ps", slice_us=25.0, n_classes=2)
    h.send(make_req(1, 50.0, 0.0, tag=0))
    h.send(make_req(2, 50.0, 0.0, tag=0))
    assert h.run() and h.times() == [(1, 75.0), (2, 100.0)]


def test_mq_ps_earliest_head_monopolizes_across_classes():
    h = Harness("mq-ps", slice_us=25.0, n_classes=2)
    h.send(make_req(1, 50.0, 0.0, tag=0))
    h.send(make_req(2, 50.0, 0.0, tag=1))
    # heads arbitrate by original arrival, so the requeued earlier head
    # keeps the worker; slicing interleaves only within a class
    assert h.run() and h.times() == [(1, 50.0), (2, 100.0)]


# -- one timer per uninterrupted run ------------------------------------------------


def test_lone_sliced_request_schedules_one_timer():
    h = Harness("ps", slice_us=25.0)
    h.send(make_req(1, 500.0, 0.3))
    end = 0.3
    for _ in range(20):
        end += 25.0
    assert h.run() and h.times() == [(1, end)]
    assert h.sim.worker_timers == 1


def test_arrival_cuts_a_run_at_its_current_slice_boundary():
    # A runs [0,25] and [25,50] alone; B queues at 30, so A yields at 50,
    # B runs [50,60], and A's last two slices end at 110
    h = Harness("ps", slice_us=25.0)
    h.send(make_req(1, 100.0, 0.0))
    h.send(make_req(2, 10.0, 30.0))
    assert h.run() and h.times() == [(2, 60.0), (1, 110.0)]
    # A's run, its cut slice, B, then A's run from 60 to 110
    assert h.sim.worker_timers == 4


def test_cut_on_last_slice_keeps_the_run_end_timer():
    # two arrivals queue during A's last slice [40,50]: the second finds A
    # already on per-slice state and leaves it alone
    h = Harness("cfcfs", preempt_threshold_us=20.0)
    h.send(make_req(1, 50.0, 0.0))
    h.send(make_req(2, 10.0, 45.0))
    h.send(make_req(3, 10.0, 47.0))
    assert h.run() and h.times() == [(1, 50.0), (2, 60.0), (3, 70.0)]
    assert h.sim.worker_timers == 3


def test_later_cut_leaves_a_run_in_its_last_slice_alone():
    # Y queues at 42 and cuts A in its last slice [40,50]; Y then starts a
    # run of its own at 44, and Z's arrival at 46 cuts Y but must keep A's
    # run-end timer at 50
    h = Harness("cfcfs", n_workers=2, preempt_threshold_us=20.0)
    for rid, svc, at in ((1, 50.0, 0.0), (2, 3.0, 41.0), (3, 30.0, 42.0),
                         (4, 5.0, 46.0)):
        h.send(make_req(rid, svc, at))
    assert h.run() and h.times() == [(2, 44.0), (1, 50.0), (4, 55.0),
                                     (3, 74.0)]


@pytest.mark.parametrize("n_workers", [1, 3])
def test_coalesced_runs_give_the_per_slice_floats(n_workers):
    # WFQ over a single client slices exactly as PS does, one timer per
    # slice; its schedule is the reference, compared float for float
    rnd = random.Random(n_workers)
    jobs = []
    t = 0.0
    for rid in range(1, 301):
        t += rnd.expovariate(1.0 / 45.0) / n_workers
        jobs.append((rid, rnd.expovariate(1.0 / 30.0), t))
    runs = {}
    for intra, kw in (("ps", {}), ("wfq", {"wfq_weights": [1]})):
        h = Harness(intra, n_workers=n_workers, slice_us=7.3, **kw)
        for rid, svc, at in jobs:
            h.send(make_req(rid, svc, at))
        runs[intra] = (h.run(), h.sim.worker_timers)
    (ps, ps_timers), (wfq, wfq_timers) = runs["ps"], runs["wfq"]
    assert len(ps) == len(jobs) and ps == wfq
    assert ps_timers < wfq_timers


@pytest.mark.parametrize("intra, kw", [
    ("ps", {"tracking": "int3"}),
    ("priority", {"priorities": [0], "preempt_threshold_us": 25.0}),
    ("wfq", {"wfq_weights": [1]}),
])
def test_per_slice_state_keeps_one_timer_per_slice(intra, kw):
    h = Harness(intra, slice_us=25.0, **kw)
    h.send(make_req(1, 500.0, 0.0))
    assert h.run() and h.times() == [(1, 500.0)]
    assert h.sim.worker_timers == 20


# -- centralized FCFS ------------------------------------------------------------


def test_cfcfs_runs_to_completion_in_arrival_order():
    h = Harness("cfcfs")
    for rid, svc in ((1, 30.0), (2, 10.0), (3, 5.0)):
        h.send(make_req(rid, svc, 0.0))
    assert h.run() and h.times() == [(1, 30.0), (2, 40.0), (3, 45.0)]


def test_cfcfs_threshold_preempts_to_tail():
    h = Harness("cfcfs", preempt_threshold_us=20.0)
    h.send(make_req(1, 50.0, 0.0))
    h.send(make_req(2, 10.0, 5.0))
    # job 1 yields at 20 (30 left), job 2 runs [20,30], job 1 runs 20+10 more
    assert h.run() and h.times() == [(2, 30.0), (1, 60.0)]


def test_two_workers_drain_in_pairs():
    h = Harness("cfcfs", n_workers=2)
    for rid in range(1, 7):
        h.send(make_req(rid, 10.0, 0.0))
    assert h.run()
    assert [t for _, t in h.times()] == [10.0, 10.0, 20.0, 20.0, 30.0, 30.0]


def test_mq_cfcfs_serves_earliest_head_across_classes():
    h = Harness("mq-cfcfs", n_classes=2)
    h.send(make_req(1, 30.0, 0.0, tag=0))
    h.send(make_req(2, 8.0, 5.0, tag=1))   # queued while 1 runs
    h.send(make_req(3, 8.0, 3.0, tag=0))   # earlier head wins at t=30
    assert h.run() and h.times() == [(1, 30.0), (3, 38.0), (2, 46.0)]


# -- strict priority --------------------------------------------------------------


def test_priority_preempts_running_lower_class():
    h = Harness("priority", priorities=[0, 1], preempt_latency_us=5.0)
    h.send(make_req(1, 50.0, 0.0, priority=0))
    h.send(make_req(2, 5.0, 2.0, priority=0))   # waits behind 1
    h.send(make_req(3, 10.0, 10.0, priority=1))
    # preempt at 10 (1 has 40 left), 5us switch, 3 runs [15,25],
    # then 1 resumes from the head of its queue, 2 last
    assert h.run()
    assert h.times() == [(3, 25.0), (1, 65.0), (2, 70.0)]


def test_priority_no_preemption_by_equal_priority():
    h = Harness("priority", priorities=[0, 1], preempt_latency_us=5.0)
    h.send(make_req(1, 20.0, 0.0, priority=1))
    h.send(make_req(2, 20.0, 1.0, priority=1))
    assert h.run() and h.times() == [(1, 20.0), (2, 40.0)]


def test_priority_idle_worker_skips_preemption_path():
    h = Harness("priority", n_workers=2, priorities=[0, 1],
                preempt_latency_us=5.0)
    h.send(make_req(1, 50.0, 0.0, priority=0))
    h.send(make_req(2, 10.0, 1.0, priority=1))  # takes the free worker
    assert h.run() and h.times() == [(2, 11.0), (1, 50.0)]


def int3_priority_harness():
    """One worker under strict priority with int3 tracking: request 1
    (priority 0, 100 us) from 0, preempted at 40 by request 2 (priority 1,
    10 us), which runs after the 5 us switch latency."""
    h = Harness("priority", n_classes=2, tracking="int3", priorities=[0, 1],
                preempt_latency_us=5.0)
    h.send(make_req(1, 100.0, 0.0, tag=0, priority=0))
    h.send(make_req(2, 10.0, 40.0, tag=1, priority=1))
    return h


def test_int3_preemption_takes_the_victims_elapsed_work_off_its_load():
    h = int3_priority_harness()
    h.sim.run_until(50.0)
    # request 1 ran 40 of its 100 us and waits, request 2 runs from 45
    assert h.server.current_load(0, 50.0) == 60.0
    assert h.run() and h.times() == [(2, 55.0), (1, 115.0)]


def test_failure_during_a_switch_latency_voids_its_timer():
    h = int3_priority_harness()
    h.sim.run_until(42.0)
    h.server.fail()
    assert [r.req_id for r in h.dropped] == [2, 1]
    h.server.failed = False
    h.send(make_req(3, 10.0, 50.0))
    # the latency timer at 45 is stale: the worker is idle, not handed twice
    assert h.run() and h.times() == [(3, 60.0)]
    assert h.server.idle == [0]


# -- weighted fair queueing --------------------------------------------------------


def test_wfq_two_to_one_service_pattern():
    h = Harness("wfq", slice_us=10.0, wfq_weights=[2, 1])
    rid = 0
    for client in (0, 1):
        for _ in range(12):
            rid += 1
            h.send(make_req(rid, 10.0, 0.0, client=client))
    h.run()
    first9 = [1 if r > 12 else 0 for r, _ in h.times()[:9]]
    assert first9 == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_wfq_skips_empty_queue_without_stalling():
    h = Harness("wfq", slice_us=10.0, wfq_weights=[2, 1])
    h.send(make_req(1, 10.0, 0.0, client=1))
    assert h.run() and h.times() == [(1, 10.0)]


def test_wfq_idle_server_forfeits_leftover_credit():
    # client 0 (weight 2) uses one of its two slices, then every queue
    # empties; the next round starts from a fresh credit of 2, so both of
    # its later requests run before client 1's
    h = Harness("wfq", slice_us=10.0, wfq_weights=[2, 1])
    h.send(make_req(1, 10.0, 0.0, client=0))
    for rid, client in ((2, 0), (3, 0), (4, 1)):
        h.send(make_req(rid, 10.0, 20.0, client=client))
    assert h.run() and h.times() == [(1, 10.0), (2, 30.0), (3, 40.0),
                                     (4, 50.0)]


def test_wfq_failed_server_comes_back_with_no_credit():
    # client 0 (weight 3) has used two of its three slices when the server
    # fails; back up, its next request starts a fresh turn of three slices,
    # not the one slice the failure cut short
    h = Harness("wfq", slice_us=10.0, wfq_weights=[3, 1])
    h.send(make_req(1, 10.0, 0.0, client=0))
    h.send(make_req(2, 10.0, 0.0, client=0))
    h.sim.run_until(15.0)
    h.server.fail()
    h.server.failed = False
    for rid, client in ((3, 0), (4, 0), (5, 0), (6, 1)):
        h.send(make_req(rid, 10.0, 20.0, client=client))
    h.run()
    assert [r.req_id for r in h.dropped] == [2]
    assert [rid for rid, _ in h.times()] == [1, 3, 4, 5, 6]


def test_wfq_requires_weights():
    with pytest.raises(SimulationError):
        Harness("wfq", slice_us=10.0)


# -- context switching --------------------------------------------------------------


def test_ctx_switch_charged_between_different_requests():
    h = Harness("cfcfs", ctx_switch_us=4.0)
    h.send(make_req(1, 10.0, 0.0))
    h.send(make_req(2, 10.0, 0.0))
    assert h.run() and h.times() == [(1, 14.0), (2, 28.0)]


def test_ctx_switch_free_when_resuming_same_request():
    h = Harness("ps", slice_us=5.0, ctx_switch_us=4.0)
    h.send(make_req(1, 10.0, 0.0))
    # pay once at 0, slice [4,9], immediate resume without a second charge
    assert h.run() and h.times() == [(1, 14.0)]


# -- load reporting -----------------------------------------------------------------


def test_reported_load_counts_outstanding_after_completion():
    h = Harness("cfcfs")
    for rid in (1, 2, 3):
        h.send(make_req(rid, 10.0, 0.0))
    h.run()
    assert [load for _, _, load, _ in h.done] == [2, 1, 0]


def test_int3_load_is_remaining_work_minus_elapsed():
    h = Harness("cfcfs", tracking="int3")
    h.send(make_req(1, 100.0, 0.0))
    h.send(make_req(2, 50.0, 0.0))
    h.sim.run_until(40.0)
    assert h.server.current_load(0, 40.0) == pytest.approx(110.0)


def test_int3_load_floors_at_zero():
    h = Harness("cfcfs", tracking="int3")
    h.send(make_req(1, 100.0, 0.0))
    h.sim.run_until(40.0)
    assert h.server.current_load(0, 100.0) == 0.0


def test_unknown_intra_rejected():
    with pytest.raises(SimulationError):
        Harness("lifo")


# -- multi-packet requests and groups -------------------------------------------------


def test_multi_packet_request_enqueues_after_last_packet():
    h = Harness("cfcfs")
    req = make_req(1, 10.0, 0.0, packets=3)
    for t in (0.0, 1.5, 3.0):
        h.send(req, at=t)
    assert h.run() and h.times() == [(1, 13.0)]


def split_request(fail_first):
    """A 3-packet request whose first packet reaches server 0 and the other
    two server 1, as when the switch loses the mapping between them; server
    0 fails after the first packet if `fail_first`."""
    a = Harness("cfcfs")
    b = Server(1, 1, "cfcfs", a.sim, a._reply, a._on_reply, a.dropped.append)
    req = make_req(1, 10.0, 0.0, packets=3)
    a.send(req, at=0.0)
    if fail_first:
        a.sim.schedule(0.5, lambda now, _: a.server.fail(), None)
    a.sim.schedule(1.0, b.on_packet, req)
    a.sim.schedule(2.0, b.on_packet, req)
    a.run()
    return a


def test_split_request_completes_or_drops_at_its_last_packet():
    h = split_request(fail_first=False)
    assert h.times() == [(1, 12.0)] and h.dropped == []
    h = split_request(fail_first=True)
    assert h.done == [] and [r.req_id for r in h.dropped] == [1]


def test_request_across_a_fail_and_readd_is_dropped():
    # the server fails and comes back between the request's two packets:
    # the first packet was lost with it, so the last cannot complete it
    h = Harness("cfcfs")
    req = make_req(1, 10.0, 0.0, packets=2)
    h.send(req, at=0.0)
    h.sim.run_until(1.0)
    h.server.fail()
    h.server.failed = False
    h.send(req, at=2.0)
    assert h.run() == [] and [r.req_id for r in h.dropped] == [1]
    assert h.server.in_system == 0 and h.server.idle == [0]


def test_group_reply_final_only_on_last_member():
    h = Harness("cfcfs", n_workers=2)
    g = Group(2)
    h.send(make_req(1, 10.0, 0.0, group=g))
    h.send(make_req(1, 25.0, 0.0, group=g))
    h.run()
    assert [(t, final) for _, t, _, final in h.done] == \
        [(10.0, False), (25.0, True)]


# -- failure ---------------------------------------------------------------------------


def test_fail_drops_all_resident_requests():
    h = Harness("cfcfs")
    split = make_req(9, 10.0, 0.0, packets=2)
    h.send(make_req(1, 50.0, 0.0))
    h.send(make_req(2, 10.0, 0.0))
    h.send(split, at=0.0)
    h.sim.run_until(5.0)
    assert h.server.fail() is None
    assert sorted(r.req_id for r in h.dropped) == [1, 2]
    assert h.server.in_system == 0 and h.server.busy == 0

    h.dropped.clear()
    h.server.on_packet(6.0, make_req(3, 5.0, 6.0))
    h.sim.run_until(1e9)
    assert [r.req_id for r in h.dropped] == [3] and h.done == []

    # re-added: request 9's last packet drops it, as its first was lost
    h.server.failed = False
    h.server.on_packet(7.0, split)
    h.sim.run_until(1e9)
    assert [r.req_id for r in h.dropped] == [3, 9] and h.done == []


def test_pending_timers_are_void_after_fail():
    h = Harness("cfcfs")
    h.send(make_req(1, 50.0, 0.0))
    h.sim.run_until(5.0)
    h.server.fail()
    h.sim.run_until(1e9)
    assert h.done == []
