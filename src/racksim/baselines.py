"""Dispatch helpers shared by the switch and the client-based baseline: the
hash pick, and `ClientView`, the per-client stale view that runs a sampling
policy's `select` at the clients. `switchsim.ClientPolicy` holds one view
per client: the switch forwards each first packet to the server its client
picked, and routes and tracks it like any other request.
"""

from __future__ import annotations

from random import Random


def hash_pick(req_id: int, eligible: list[int], salt: int) -> int:
    """Deterministic hash pick; all packets of a request map to one server as
    long as the eligible list is unchanged (fallback routing therefore uses
    the fixed physical set, not the active subset)."""
    return eligible[hash((req_id, salt)) % len(eligible)]


class ClientView:
    """One client's private load estimates.

    The view is updated only by this client's own replies and is optimistically
    incremented when the client dispatches (the client knows its own request
    adds load; without the increment consecutive sends herd onto one server).
    No client reads another client's view or true server state. `select` is
    a sampling policy's, the power-of-k chooser the switch runs.
    """

    __slots__ = ("estimates", "select")

    def __init__(self, n_servers: int, select):
        self.estimates = [0] * n_servers
        self.select = select

    def choose(self, eligible: list[int], rnd: Random) -> int:
        estimates = self.estimates
        best = self.select(estimates, eligible, rnd, None)
        estimates[best] += 1
        return best

    def observe(self, server: int, load_report: int) -> None:
        """A reply to this client carried the server's piggybacked load."""
        self.estimates[server] = load_report

