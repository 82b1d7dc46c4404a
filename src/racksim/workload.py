"""Service-time distributions and open-loop request generation.

Requests carry everything the schedulers are allowed to see (class tag,
priority, locality class, packet count) plus the hidden true service time.
Service times are drawn at creation so that two runs differing only in
scheduling policy see identical workloads (policies draw from their own
stream). The class mix is a factory's own state, so the classes themselves
are shared, unchanged, by every run of a config.
"""

from __future__ import annotations

from itertools import accumulate
from math import log
from random import Random


class ServiceDistribution:
    """A service-time law: exponential, deterministic, or a point mixture
    (bimodal/trimodal)."""

    __slots__ = ("kind", "mean_us", "_cum")

    def __init__(self, kind: str, mean_us: float, points=None):
        self.kind = kind
        self._cum = None        # (cumulative probability, value) per point
        if points is not None:
            probs, values = zip(*points)
            self._cum = list(zip(accumulate(probs), values))
            mean_us = sum(p * v for p, v in points)
        self.mean_us = mean_us

    def sample(self, rnd: Random) -> float:
        if self._cum is None:
            if self.kind == "deterministic":
                return self.mean_us
            # exponential; 1 - u avoids log(0)
            return -log(1.0 - rnd.random()) * self.mean_us
        u = rnd.random()
        for acc, value in self._cum:
            if u < acc:
                return value
        return self._cum[-1][1]


class Group:
    """Shared state for a dependency group: members share one req_id, and only
    the reply of the last member to finish counts as final (clearing the
    switch mapping and updating tracked load once per group)."""

    __slots__ = ("size", "done")

    def __init__(self, size: int):
        self.size = size
        self.done = 0


class Request:
    __slots__ = (
        "req_id",
        "client",
        "tag",
        "priority",
        "locality",
        "packets",
        "arrival",
        "remaining",
        "pkts_pending",
        "group",
        "measured",
        "dropped",
        "fallback",
        "reached",      # multi-packet only: (server, epoch) per server reached
    )

    def __init__(self, req_id, client, tag, priority, locality, packets, service, arrival, group=None):
        self.req_id = req_id
        self.client = client
        self.tag = tag
        self.priority = priority
        self.locality = locality
        self.packets = packets
        self.arrival = arrival
        self.remaining = service
        self.pkts_pending = packets
        self.group = group
        self.measured = False
        self.dropped = False
        self.fallback = False

    def __repr__(self):
        return f"Request({self.req_id:#x} tag={self.tag} t={self.arrival:.1f} remaining={self.remaining:.1f})"


class ClassSpec:
    """One request class as the config parsed it: mix weight, service law,
    and scheduling attributes. Every run of a config shares it."""

    __slots__ = ("tag", "index", "weight", "dist", "priority", "locality", "packets", "group_size", "start_us", "stop_us")

    def __init__(self, tag, index, weight, dist, priority=0, locality=0, packets=1, group_size=1, start_us=None, stop_us=None):
        self.tag = tag
        self.index = index
        self.weight = weight
        self.dist = dist
        self.priority = priority
        self.locality = locality
        self.packets = packets
        self.group_size = group_size
        self.start_us = start_us
        self.stop_us = stop_us


class RequestFactory:
    """Draws requests per the configured class mix.

    Class choice comes from the "classes" stream and service times from the
    "service" stream so that reweighting the mix does not perturb the service
    sequence of the classes themselves. The mix is this factory's own state
    and changes only through `set_weights`, which the runner calls at each
    `set_mix` event and at each edge of a class's start/stop window.
    """

    def __init__(self, classes: list[ClassSpec], rnd_classes: Random, rnd_service: Random):
        self.classes = classes
        self._rnd_classes = rnd_classes
        self._rnd_service = rnd_service
        self._seq = 0
        self.created = 0
        self._weights = {c.tag: c.weight for c in classes}
        self.set_weights({}, 0.0)

    def set_weights(self, weights: dict[str, float], now: float):
        """Reweight the classes named in `weights` and rebuild the mix as it
        stands at send time `now`: a class outside its window draws nothing."""
        self._weights.update(weights)
        cum = []
        acc = 0.0
        for c in self.classes:
            w = self._weights[c.tag]
            if (w <= 0.0 or (c.start_us is not None and now < c.start_us)
                    or (c.stop_us is not None and now >= c.stop_us)):
                continue
            acc += w
            cum.append((acc, c))
        self._cum = cum
        self._total_w = acc
        # the only class, when the draw needs no random number
        self._only = cum[0][1] if len(cum) == 1 else None

    def _pick_class(self) -> ClassSpec:
        cum = self._cum
        if not cum:
            return None
        u = self._rnd_classes.random() * self._total_w
        for acc, c in cum:
            if u < acc:
                return c
        return cum[-1][1]

    def make_request(self, client: int, now: float):
        """Create the request(s) for one arrival; a dependency group of size
        G yields G Requests sharing a single req_id."""
        spec = self._only
        if spec is None:
            spec = self._pick_class()
            if spec is None:
                return []
        self._seq += 1
        req_id = (client << 40) | self._seq
        if spec.group_size == 1:
            service = spec.dist.sample(self._rnd_service)
            self.created += 1
            return [
                Request(req_id, client, spec.index, spec.priority, spec.locality,
                        spec.packets, service, now)
            ]
        group = Group(spec.group_size)
        members = []
        for _ in range(spec.group_size):
            service = spec.dist.sample(self._rnd_service)
            members.append(
                Request(req_id, client, spec.index, spec.priority, spec.locality,
                        spec.packets, service, now, group)
            )
        self.created += len(members)
        return members

