"""Simulation clock, event queue, and named random streams.

The event loop is a binary heap keyed on (time, insertion sequence), so two
events scheduled for the same instant dispatch in insertion order. Times are
floats in microseconds. Handlers are callables taking (now, arg); they are
stored in the heap entry but never compared (the sequence number is unique),
which keeps heap operations cheap.

Events that always fire a constant delay after the current time (a fixed
network hop) can go to a FIFO lane instead of the heap: the current time
never decreases, so such a lane is already sorted by (time, sequence). The
loop merges the lane heads with the heap top by (time, sequence), so the
dispatch order is exactly the one a single heap would give, while a lane
event costs an O(1) append and pop instead of two O(log n) sifts of tuple
comparisons. This is the monotone-bucket idea of calendar and ladder queues
(Brown, CACM 1988; Tang et al., ACM TOMACS 2005). The merge is unrolled for
two lanes, which is what one request path needs (switch to server and back).
It compares times as floats and sequence numbers only on a tie, and an end
marker on the heap stops a run, so the loop never tests for an empty heap.

Random streams are derived from (seed, stream name) via SHA-256, so stream
draws are reproducible across runs and platforms and adding draws to one
stream never perturbs another.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count


class SimulationError(Exception):
    """Contract violation inside a run (e.g. scheduling into the past)."""


class RngStreams:
    """Lazily-created named random.Random streams for one run."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        rnd = self._streams.get(name)
        if rnd is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rnd = random.Random(int.from_bytes(digest[:16], "big"))
            self._streams[name] = rnd
        return rnd


class EventLoop:
    """Deterministic discrete-event loop over a microsecond clock."""

    __slots__ = ("now", "_heap", "_next_seq", "_lanes", "_n_lanes")

    def __init__(self):
        self.now = 0.0
        self._heap: list = []
        self._next_seq = count().__next__
        self._lanes = (deque(), deque())
        self._n_lanes = 0

    def schedule(self, time: float, fn, arg=None) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heappush(self._heap, (time, self._next_seq(), fn, arg))

    def lane(self, delay: float):
        """Open a FIFO lane (at most two) for events firing `delay` after
        the current time. Returns `push(now, fn, arg)`, which schedules
        fn(now + delay, arg); `now` must be the current time, as it is
        inside any handler."""
        if delay < 0.0:
            raise SimulationError(f"lane delay must be >= 0, got {delay}")
        if self._n_lanes == len(self._lanes):
            raise SimulationError(f"at most {len(self._lanes)} lanes")
        fifo = self._lanes[self._n_lanes]
        self._n_lanes += 1
        append = fifo.append
        next_seq = self._next_seq

        def push(now: float, fn, arg=None) -> None:
            append((now + delay, next_seq(), fn, arg))

        return push

    def run_until(self, end: float) -> None:
        """Dispatch every event with time <= end; an empty queue before end
        is normal termination."""
        heap = self._heap
        la, lb = self._lanes
        # after every event at `end` (an infinite sequence number)
        marker = (end, float("inf"), None, None)
        heappush(heap, marker)
        try:
            while True:
                # the earliest of the heap top and the lane heads
                ev = heap[0]
                t = ev[0]
                if la:
                    a = la[0]
                    ta = a[0]
                    if ta <= t and (ta < t or a[1] < ev[1]):
                        if lb:
                            b = lb[0]
                            tb = b[0]
                            if tb <= ta and (tb < ta or b[1] < a[1]):
                                lb.popleft()
                                self.now = tb
                                b[2](tb, b[3])
                                continue
                        la.popleft()
                        self.now = ta
                        a[2](ta, a[3])
                        continue
                if lb:
                    b = lb[0]
                    tb = b[0]
                    if tb <= t and (tb < t or b[1] < ev[1]):
                        lb.popleft()
                        self.now = tb
                        b[2](tb, b[3])
                        continue
                if ev is marker:
                    break
                heappop(heap)
                self.now = t
                ev[2](t, ev[3])
        finally:
            heap.remove(marker)
            heapify(heap)
        if end > self.now:
            self.now = end
