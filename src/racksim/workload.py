"""Service-time distributions and open-loop request generation.

Requests carry everything the schedulers are allowed to see (class tag,
priority, locality class, packet count) plus the hidden true service time.
Service times are drawn at creation so that two runs differing only in
scheduling policy see identical workloads (policies draw from their own
stream).
"""

from __future__ import annotations

from math import log
from random import Random


class ServiceDistribution:
    """A service-time law: exponential, deterministic, or a point mixture
    (bimodal/trimodal)."""

    __slots__ = ("kind", "mean_us", "_points", "_cum")

    def __init__(self, kind: str, mean_us: float, points=None):
        self.kind = kind
        self._points = points
        if points is not None:
            self._cum = []
            acc = 0.0
            for prob, value in points:
                acc += prob
                self._cum.append((acc, value))
            mean_us = sum(p * v for p, v in points)
        else:
            self._cum = None
        self.mean_us = mean_us

    @classmethod
    def from_config(cls, block: dict) -> "ServiceDistribution":
        kind = block["kind"]
        if kind == "exponential":
            return cls("exponential", float(block["mean_us"]))
        if kind == "deterministic":
            return cls("deterministic", float(block["mean_us"]))
        if kind in ("bimodal", "trimodal"):
            modes = [(float(p), float(v)) for p, v in block["modes"]]
            return cls(kind, 0.0, modes)
        raise ValueError(f"unknown service distribution kind {kind!r}")

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
        "service",
        "arrival",
        "remaining",
        "pkts_pending",
        "group",
        "measured",
        "dropped",
        "fallback",
        "slot",
    )

    def __init__(self, req_id, client, tag, priority, locality, packets, service, arrival, group=None):
        self.req_id = req_id
        self.client = client
        self.tag = tag
        self.priority = priority
        self.locality = locality
        self.packets = packets
        self.service = service
        self.arrival = arrival
        self.remaining = service
        self.pkts_pending = packets
        self.group = group
        self.measured = False
        self.dropped = False
        self.fallback = False
        self.slot = None        # its ReqTable slot: None until routed, -1 if none

    def __repr__(self):
        return f"Request({self.req_id:#x} tag={self.tag} t={self.arrival:.1f} s={self.service:.1f})"


class ClassSpec:
    """One request class: mix weight, service law, and scheduling attributes."""

    __slots__ = ("tag", "index", "weight", "dist", "priority", "locality", "packets", "group_size", "start_us", "stop_us")

    def __init__(self, tag, index, weight, dist, priority=0, locality=-1, packets=1, group_size=1, start_us=None, stop_us=None):
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
    sequence of the classes themselves.
    """

    def __init__(self, classes: list[ClassSpec], rnd_classes: Random, rnd_service: Random):
        self.classes = classes
        self._rnd_classes = rnd_classes
        self._rnd_service = rnd_service
        self._seq = 0
        self.created = 0
        self._windowed = any(c.start_us is not None or c.stop_us is not None for c in classes)
        self._rebuild_cum(0.0)

    def _rebuild_cum(self, now: float):
        cum = []
        acc = 0.0
        for c in self.classes:
            if c.start_us is not None and now < c.start_us:
                continue
            if c.stop_us is not None and now >= c.stop_us:
                continue
            if c.weight <= 0.0:
                continue
            acc += c.weight
            cum.append((acc, c))
        self._cum = cum
        self._total_w = acc
        # the only class, when the draw needs no random number or rebuild
        self._only = cum[0][1] if len(cum) == 1 and not self._windowed else None

    def set_weights(self, weights: dict[str, float], now: float):
        for c in self.classes:
            if c.tag in weights:
                c.weight = float(weights[c.tag])
        self._rebuild_cum(now)

    def mix_mean_us(self) -> float:
        total = sum(c.weight for c in self.classes)
        return sum(c.weight * c.dist.mean_us for c in self.classes) / total

    def _pick_class(self, now: float) -> ClassSpec:
        if self._windowed:
            self._rebuild_cum(now)
        cum = self._cum
        if not cum:
            return None
        if len(cum) == 1:
            return cum[0][1]
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
            spec = self._pick_class(now)
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

