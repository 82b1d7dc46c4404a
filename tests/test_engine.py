"""Event loop ordering, clock discipline, and named random streams."""

import pytest

from racksim.engine import EventLoop, RngStreams, SimulationError


def test_events_fire_in_time_order():
    sim = EventLoop()
    seen = []
    sim.schedule(5.0, lambda now, a: seen.append(a), "late")
    sim.schedule(1.0, lambda now, a: seen.append(a), "early")
    sim.schedule(3.0, lambda now, a: seen.append(a), "mid")
    sim.run_until(10.0)
    assert seen == ["early", "mid", "late"]
    assert sim.now == 10.0


def test_same_instant_is_fifo():
    sim = EventLoop()
    seen = []
    for i in range(50):
        sim.schedule(2.0, lambda now, a: seen.append(a), i)
    sim.run_until(2.0)
    assert seen == list(range(50))
    assert sim.now == 2.0


def test_handler_can_chain_at_current_instant():
    sim = EventLoop()
    seen = []

    def first(now, _):
        seen.append("first")
        sim.schedule(now, lambda n, a: seen.append("chained"), None)

    sim.schedule(4.0, first, None)
    sim.run_until(4.0)
    assert seen == ["first", "chained"]


def test_scheduling_into_the_past_raises():
    sim = EventLoop()
    sim.schedule(3.0, lambda now, a: None, None)
    sim.run_until(3.0)
    with pytest.raises(SimulationError):
        sim.schedule(2.999, lambda now, a: None, None)


def test_run_until_boundary_inclusive():
    sim = EventLoop()
    seen = []
    sim.schedule(7.0, lambda now, a: seen.append(now), None)
    sim.schedule(7.0000001, lambda now, a: seen.append(now), None)
    sim.run_until(7.0)
    assert seen == [7.0]
    sim.run_until(8.0)  # the later event was kept, not dropped
    assert seen == [7.0, 7.0000001]


def test_streams_reproducible_and_independent():
    a1 = RngStreams(42).get("arrivals")
    a2 = RngStreams(42).get("arrivals")
    assert [a1.random() for _ in range(20)] == [a2.random() for _ in range(20)]

    svc = RngStreams(42).get("service")
    arr = RngStreams(42).get("arrivals")
    assert [svc.random() for _ in range(20)] != [arr.random() for _ in range(20)]

    other_seed = RngStreams(43).get("arrivals")
    assert a1.random() != other_seed.random()


def test_stream_draws_do_not_perturb_siblings():
    streams = RngStreams(7)
    before = RngStreams(7).get("b").random()
    streams.get("a").random()  # burn a draw on an unrelated stream
    assert streams.get("b").random() == before


def test_lanes_merge_with_heap_in_time_then_insertion_order():
    sim = EventLoop()
    hop = sim.lane(2.0)
    seen = []
    log = lambda now, a: seen.append((now, a))
    sim.schedule(3.0, log, "heap-3")
    hop(0.0, log, "lane-2")        # fires at 2.0
    hop(1.0, log, "lane-3")        # fires at 3.0, scheduled after heap-3
    sim.schedule(3.0, log, "heap-3b")
    sim.run_until(10.0)
    assert seen == [(2.0, "lane-2"), (3.0, "heap-3"), (3.0, "lane-3"),
                    (3.0, "heap-3b")]


def test_lanes_match_single_heap_order():
    # the same handler chain scheduled through lanes or through the heap
    # only must dispatch identically, ties included
    def trace(use_lanes):
        sim = EventLoop()
        lanes = {d: sim.lane(d) for d in (1.0, 2.0)} if use_lanes else {}
        seen = []

        def push(now, delay, fn, arg):
            if delay in lanes:
                lanes[delay](now, fn, arg)
            else:
                sim.schedule(now + delay, fn, arg)

        def hop(now, n):
            seen.append((now, n))
            if len(seen) < 400:  # two children each, capped in total
                push(now, (1.0, 2.0, 0.5, 0.0)[n % 4], hop, n + 1)
                push(now, (2.0, 1.0, 3.0)[n % 3], hop, n + 7)

        sim.schedule(0.0, hop, 0)
        sim.schedule(1.0, hop, 1)
        sim.run_until(1e9)
        return seen

    assert trace(True) == trace(False)


def test_lane_limits():
    sim = EventLoop()
    with pytest.raises(SimulationError):
        sim.lane(-1.0)
    sim.lane(1.0)
    sim.lane(2.0)
    with pytest.raises(SimulationError):
        sim.lane(3.0)


def test_a_raising_handler_leaves_the_loop_as_a_pop_would():
    # the raising event is gone, the events it scheduled stay, and the next
    # run dispatches the rest once each, in order
    sim = EventLoop()
    seen = []

    def boom(now, a):
        sim.schedule(now + 1.0, lambda n, x: seen.append((n, x)), "child")
        raise ValueError(a)

    sim.schedule(1.0, lambda now, a: seen.append((now, a)), "first")
    sim.schedule(2.0, boom, "boom")
    sim.schedule(2.5, lambda now, a: seen.append((now, a)), "after")
    with pytest.raises(ValueError):
        sim.run_until(10.0)
    assert seen == [(1.0, "first")]
    sim.run_until(10.0)
    assert seen == [(1.0, "first"), (2.5, "after"), (3.0, "child")]
    assert sim.now == 10.0
    sim.run_until(20.0)     # no end marker of the first run is left behind
    assert len(seen) == 3 and sim.now == 20.0


def test_run_until_an_earlier_time_keeps_the_clock():
    sim = EventLoop()
    seen = []
    sim.schedule(5.0, lambda now, a: seen.append(now), None)
    sim.run_until(6.0)
    sim.schedule(8.0, lambda now, a: seen.append(now), None)
    sim.run_until(4.0)
    assert sim.now == 6.0 and seen == [5.0]
    sim.run_until(8.0)
    assert seen == [5.0, 8.0]


def test_a_handler_that_raises_before_scheduling_is_not_run_again():
    sim = EventLoop()
    calls = []

    def boom(now, a):
        calls.append(now)
        raise ValueError(a)

    sim.schedule(2.0, boom, "boom")
    with pytest.raises(ValueError):
        sim.run_until(10.0)
    sim.run_until(10.0)
    assert calls == [2.0]
