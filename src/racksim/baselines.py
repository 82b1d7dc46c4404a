"""Dispatch choosers shared by the switch and the client-based baseline:
uniform and hash-random picks, the power-of-k least-loaded chooser, and the
per-client stale view that runs that chooser at the clients.
"""

from __future__ import annotations

from random import Random


def dispatch_random(eligible: list[int], rnd: Random) -> int:
    """Uniform pick among eligible servers."""
    return eligible[int(rnd.random() * len(eligible))]


def hash_pick(req_id: int, eligible: list[int], salt: int) -> int:
    """Deterministic hash pick; all packets of a request map to one server as
    long as the eligible list is unchanged (fallback routing therefore uses
    the fixed physical set, not the active subset)."""
    return eligible[hash((req_id, salt)) % len(eligible)]


def least_of_k(loads, eligible: list[int], k: int, rnd: Random) -> int:
    """Power-of-k-choices: k distinct eligible servers sampled uniformly,
    least load wins, lowest index on ties. With k >= len(eligible) every
    eligible server is a candidate and no random number is drawn."""
    n = len(eligible)
    if k >= n:
        best = eligible[0]
        bl = loads[best]
        for s in eligible:
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
        a = eligible[i]
        b = eligible[j]
        la = loads[a]
        lb = loads[b]
        if lb < la or (lb == la and b < a):
            return b
        return a
    picked = []
    while len(picked) < k:
        s = eligible[int(rnd.random() * n)]
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


class ClientView:
    """One client's private load estimates.

    The view is updated only by this client's own replies and is optimistically
    incremented when the client dispatches (the client knows its own request
    adds load; without the increment consecutive sends herd onto one server).
    No client reads another client's view or true server state.
    """

    __slots__ = ("estimates",)

    def __init__(self, n_servers: int):
        self.estimates = [0] * n_servers

    def choose(self, eligible: list[int], k: int, rnd: Random) -> int:
        best = least_of_k(self.estimates, eligible, k, rnd)
        self.estimates[best] += 1
        return best

    def observe(self, server: int, load_report: int) -> None:
        """A reply to this client carried the server's piggybacked load."""
        self.estimates[server] = load_report
