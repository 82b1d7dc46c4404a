"""Experiment configuration: strict JSON validation, and resolution of each
sweep point into the run specification the simulator consumes.

Unknown keys are rejected (with the offending dotted path) rather than
ignored, so a typo in a sweep file fails loudly instead of silently running
defaults, and a malformed value fails with its path too, never with a bare
exception. Request classes and their service laws are parsed once, straight
into the `ClassSpec` list that every point shares. A config may name several
policy variants; each is parsed once into a `Variant`, the rack it runs on
and the policy the switch runs there, which every point of the variant
shares. `VARIANT_KEYS` names the keys each policy kind reads: a variant may
set no other, and a tracking field its kind does not read must keep its
default, so a variant runs what it says. Each (variant, load, seed) triple
resolves to one RunSpec: the config, the variant, the seed and the offered
rate. No run changes any of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from sys import float_info

from .server import DISCIPLINES
from .switchsim import (INT1, MAX_STAGES, PROACTIVE, TRACKING_KINDS,
                        stage_cost)
from .workload import ClassSpec, ServiceDistribution

# rack-level baselines: dispatch at the clients, or one pooled server
GLOBAL_BASELINES = ("global-cfcfs", "global-ps")
RACK_BASELINES = ("client", *GLOBAL_BASELINES)
# The variant keys each policy kind reads; reading `tracking` reads both of
# its fields. A variant key its kind does not read is rejected, and so is a
# tracking field away from its default (int1, no reply loss).
VARIANT_KEYS = {
    "random": (),
    "hash": (),
    "rr": (),
    "shortest": ("tracking",),
    "sampling": ("k", "tracking"),
    "int2": ("tracking.rep_loss_prob",),
    "jbsq": ("bound",),
    "client": ("k", "clients", "tracking.kind"),
    "global-cfcfs": (),
    "global-ps": (),
}
POLICY_KINDS = tuple(VARIANT_KEYS)
TIMELINE_KINDS = ("switch_fail", "add_server", "remove_server", "set_load", "set_mix")


class ConfigError(Exception):
    """Invalid configuration; the message carries the dotted key path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _check_keys(block: dict, allowed, path: str):
    if not isinstance(block, dict):
        _fail(path, f"expected an object, got {type(block).__name__}")
    for key in block:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _value(v, path: str, lo=None, hi=None, integer: bool = False):
    """`v` as a finite number within [lo, hi]: an int if `integer`, else a
    float. JSON reads NaN, Infinity and integers of any size; none passes."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {v!r}")
    if not abs(v) <= float_info.max:    # NaN fails every comparison
        _fail(path, f"must be a finite number, got {v!r}")
    if integer and int(v) != v:
        _fail(path, f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        _fail(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return int(v) if integer else float(v)


def _num(block: dict, key: str, path: str, default, lo=None, hi=None,
         integer: bool = False, allow_none: bool = False):
    """`block[key]`, or `default`, as `_value` checks it."""
    v = block.get(key, default)
    if v is None:
        if allow_none:
            return None
        _fail(f"{path}.{key}", "required value missing")
    return _value(v, f"{path}.{key}", lo, hi, integer)


def _choice(block: dict, key: str, path: str, choices, default=None):
    v = block.get(key, default)
    if not isinstance(v, str) or v not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _server_id(x, n_servers: int) -> bool:
    """Whether `x` names one of `n_servers` servers; JSON booleans do not."""
    return (isinstance(x, int) and not isinstance(x, bool)
            and 0 <= x < n_servers)


def _reads(kind: str, key: str) -> bool:
    """Whether policy kind `kind` reads variant key `key`, such as `k` or
    `tracking.kind`."""
    reads = VARIANT_KEYS[kind]
    return key in reads or key.split(".")[0] in reads


def _only_for(key: str) -> str:
    return "only valid for kind(s) " + ", ".join(
        kind for kind in POLICY_KINDS if _reads(kind, key))


def _parse_tracking(block: dict, path: str):
    """A tracking block, top-level or per variant: (kind, rep_loss_prob)."""
    _check_keys(block, {"kind", "rep_loss_prob"}, path)
    if block.get("kind") == "int2":
        _fail(f"{path}.kind", 'int2 is a policy kind: give the variant '
                              '{"kind": "int2"}')
    return (_choice(block, "kind", path, TRACKING_KINDS, "int1"),
            _num(block, "rep_loss_prob", path, 0.0, lo=0.0, hi=1.0))


def _parse_dist(block: dict, path: str) -> ServiceDistribution:
    _check_keys(block, {"kind", "mean_us", "modes"}, path)
    kind = _choice(block, "kind", path,
                   ("exponential", "deterministic", "bimodal", "trimodal"))
    if kind in ("exponential", "deterministic"):
        mean_us = _num(block, "mean_us", path, None, lo=1e-9)
        if "modes" in block:
            _fail(f"{path}.modes", f"not valid for kind {kind!r}")
        return ServiceDistribution(kind, mean_us)
    modes = block.get("modes")
    want = 2 if kind == "bimodal" else 3
    if not isinstance(modes, list) or len(modes) != want:
        _fail(f"{path}.modes", f"{kind} needs exactly {want} [prob, value_us] pairs")
    pairs = []
    for i, pair in enumerate(modes):
        mpath = f"{path}.modes[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(mpath, "expected a [prob, value_us] pair")
        p, v = (_value(x, mpath) for x in pair)
        if not 0.0 < p <= 1.0:
            _fail(mpath, f"probability must be in (0, 1], got {p!r}")
        if v <= 0.0:
            _fail(mpath, f"value_us must be > 0, got {v!r}")
        pairs.append((p, v))
    total = sum(p for p, _ in pairs)
    if abs(total - 1.0) > 1e-9:
        _fail(f"{path}.modes", f"probabilities must sum to 1, got {total}")
    if "mean_us" in block:
        _fail(f"{path}.mean_us", "not valid for mixture kinds (mean is implied)")
    return ServiceDistribution(kind, 0.0, pairs)


@dataclass(frozen=True, slots=True)
class Variant:
    """One policy variant as parsed: the rack it runs on and the policy the
    switch runs there. A global-queue variant is collapsed to one pooled
    server, holding every initially active worker, under `hash` dispatch.
    The rack's lists are the config's own, shared and never changed."""

    n_servers: int
    workers: list
    active0: list
    loc_sets: list
    intra_kind: str
    policy: str                 # as the switch runs it
    k: int
    bound: int
    clients: int
    tracking: str
    rep_loss_prob: float
    cost: int                   # pipeline stages, from `stage_cost`


@dataclass(slots=True)
class RunSpec:
    """What one (variant, load, seed) point resolves to. Every other setting
    (network delays, classes, intra-server and ReqTable parameters, sweep
    window, timeline, instrumentation) is read from `exp`, the validated
    config; `variant` is shared by every point of its variant."""

    exp: ExperimentConfig
    variant: Variant
    seed: int
    rate_rps: float


class ExperimentConfig:
    """A validated experiment: shared rack/workload blocks plus named policy
    variants and a load x seed sweep."""

    def __init__(self, raw: dict):
        self.raw = raw
        top = {
            "name", "servers", "network", "workload", "locality_sets",
            "policy", "policies", "tracking", "intra", "reqtable", "sweep",
            "timeline", "census_interval_us", "bucket_us",
        }
        _check_keys(raw, top, "config")
        self.name = raw.get("name", "experiment")
        if not isinstance(self.name, str) or not self.name:
            _fail("config.name", "must be a non-empty string")

        self._parse_servers(raw.get("servers", {}))
        self._parse_network(raw.get("network", {}))
        self._parse_locality(raw.get("locality_sets", {}))
        self._parse_workload(raw.get("workload", {}))
        self.tracking, self.rep_loss_prob = _parse_tracking(
            raw.get("tracking", {}), "tracking")
        self._parse_intra(raw.get("intra", {}))
        self._parse_reqtable(raw.get("reqtable", {}))
        self._parse_sweep(raw.get("sweep", {}))
        self._parse_timeline(raw.get("timeline", []))
        self._parse_variants(raw)

        self.census_interval_us = _num(raw, "census_interval_us", "config", None,
                                       lo=1e-9, allow_none=True)
        self.bucket_us = _num(raw, "bucket_us", "config", None, lo=1e-9,
                              allow_none=True)

        self.capacity_rps = self._capacity_rps()
        canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        self.config_sha256 = hashlib.sha256(canon.encode()).hexdigest()

    # -- section parsers -------------------------------------------------------

    def _parse_servers(self, block: dict):
        _check_keys(block, {"count", "workers", "initial_active"}, "servers")
        self.n_servers = _num(block, "count", "servers", 8, lo=1, integer=True)
        w = block.get("workers", 8)
        if isinstance(w, list):
            if len(w) != self.n_servers:
                _fail("servers.workers", f"need {self.n_servers} entries, got {len(w)}")
            self.workers = [_value(x, f"servers.workers[{i}]", lo=1, integer=True)
                            for i, x in enumerate(w)]
        else:
            per = _num(block, "workers", "servers", 8, lo=1, integer=True)
            self.workers = [per] * self.n_servers
        act = block.get("initial_active")
        if act is None:
            self.active0 = [True] * self.n_servers
        else:
            if not isinstance(act, list) or not act:
                _fail("servers.initial_active", "must be a non-empty list of server ids")
            ids = set()
            for x in act:
                if not _server_id(x, self.n_servers):
                    _fail("servers.initial_active", f"bad server id {x!r}")
                ids.add(x)
            self.active0 = [i in ids for i in range(self.n_servers)]
        self.active_workers = sum(w for w, a in zip(self.workers, self.active0)
                                  if a)

    def _parse_network(self, block: dict):
        _check_keys(block, {"client_switch_us", "switch_server_us",
                            "switch_latency_us"}, "network")
        self.d_cs = _num(block, "client_switch_us", "network", 1.0, lo=0.0)
        self.d_ss = _num(block, "switch_server_us", "network", 1.0, lo=0.0)
        self.switch_lat = _num(block, "switch_latency_us", "network", 1.0, lo=0.0)

    def _parse_locality(self, block: dict):
        if not isinstance(block, dict):
            _fail("locality_sets", "expected an object of name -> [server ids]")
        self.loc_sets = [list(range(self.n_servers))]
        self.loc_index = {"all": 0}
        for name, members in block.items():
            path = f"locality_sets.{name}"
            if name == "all":
                _fail(path, "'all' is reserved for the implicit full set")
            if not isinstance(members, list) or not members:
                _fail(path, "must be a non-empty list of server ids")
            seen = set()
            for x in members:
                if not _server_id(x, self.n_servers):
                    _fail(path, f"bad server id {x!r}")
                if x in seen:
                    _fail(path, f"duplicate server id {x}")
                seen.add(x)
            self.loc_index[name] = len(self.loc_sets)
            self.loc_sets.append(sorted(members))

    def _parse_workload(self, block: dict):
        _check_keys(block, {"clients", "inter_packet_gap_us", "service",
                            "classes"}, "workload")
        self.clients = _num(block, "clients", "workload", 4, lo=1, integer=True)
        self.gap_us = _num(block, "inter_packet_gap_us", "workload", 1.0, lo=0.0)
        if ("service" in block) == ("classes" in block):
            _fail("workload", "give exactly one of 'service' or 'classes'")
        shorthand = "service" in block
        # the service shorthand is the one class "all", with every default
        classes = ([{"tag": "all", "service": block["service"]}] if shorthand
                   else block["classes"])
        if not isinstance(classes, list) or not classes:
            _fail("workload.classes", "must be a non-empty list")
        self.classes = []
        tags = set()
        for i, cb in enumerate(classes):
            path = "workload" if shorthand else f"workload.classes[{i}]"
            _check_keys(cb, {"tag", "weight", "service", "priority", "locality",
                             "packets", "group_size", "start_us", "stop_us"}, path)
            tag = cb.get("tag")
            if not isinstance(tag, str) or not tag:
                _fail(f"{path}.tag", "must be a non-empty string")
            if tag in tags:
                _fail(f"{path}.tag", f"duplicate class tag {tag!r}")
            tags.add(tag)
            if "service" not in cb:
                _fail(f"{path}.service", "required value missing")
            dist = _parse_dist(cb["service"], f"{path}.service")
            loc = cb.get("locality")
            if loc is None:
                loc_idx = 0
            else:
                loc_idx = (self.loc_index.get(loc) if isinstance(loc, str)
                           else None)
                if loc_idx is None:
                    _fail(f"{path}.locality", f"unknown locality set {loc!r}")
            self.classes.append(ClassSpec(
                tag, i, _num(cb, "weight", path, 1.0, lo=0.0), dist,
                priority=_num(cb, "priority", path, 0, lo=0, integer=True),
                locality=loc_idx,
                packets=_num(cb, "packets", path, 1, lo=1, integer=True),
                group_size=_num(cb, "group_size", path, 1, lo=1, integer=True),
                start_us=_num(cb, "start_us", path, None, lo=0.0, allow_none=True),
                stop_us=_num(cb, "stop_us", path, None, lo=0.0, allow_none=True),
            ))
        if not any(c.weight > 0.0 for c in self.classes):
            _fail("workload.classes", "at least one class needs weight > 0")

    def _parse_variants(self, raw: dict):
        """The policy variants, each checked against the rest of the config,
        so they are parsed after the workload, intra and timeline blocks."""
        if ("policy" in raw) == ("policies" in raw):
            _fail("config", "give exactly one of 'policy' or 'policies'")
        blocks = (raw["policies"] if "policies" in raw
                  else {"default": raw["policy"]})
        if not isinstance(blocks, dict) or not blocks:
            _fail("policies", "must be a non-empty object of name -> policy")
        uses_locality = any(c.locality != 0 for c in self.classes)
        # the one pooled server of a global baseline has no server ids
        faults = [ev["kind"] for ev in self.timeline
                  if ev["kind"] in ("switch_fail", "add_server", "remove_server")]
        self.variants = {}
        for vname, pb in blocks.items():
            path = f"policies.{vname}" if "policies" in raw else "policy"
            if not isinstance(vname, str) or not vname:
                _fail("policies", "variant names must be non-empty strings")
            _check_keys(pb, {"kind", "k", "bound", "clients", "tracking"}, path)
            kind = _choice(pb, "kind", path, POLICY_KINDS)
            for key in ("k", "bound", "clients"):
                if key in pb and not _reads(kind, key):
                    _fail(f"{path}.{key}", _only_for(key))
            k = _num(pb, "k", path, 2, lo=1, integer=True)
            if _reads(kind, "k") and k > self.n_servers:
                _fail(f"{path}.k", f"cannot exceed server count {self.n_servers}")
            bound = _num(pb, "bound", path, 3, lo=1, integer=True)
            clients = _num(pb, "clients", path, None, lo=1, integer=True,
                           allow_none=True)
            # tracking may be overridden per variant (ablation sweeps); a
            # field the kind does not read fails at the block that set it
            if "tracking" in pb:
                tpath = f"{path}.tracking"
                track = _parse_tracking(pb["tracking"], tpath)
            else:
                tpath, track = "tracking", (self.tracking, self.rep_loss_prob)
            if track[0] != INT1 and not _reads(kind, "tracking.kind"):
                _fail(f"{tpath}.kind", f"{kind} reads no tracking kind; "
                      + _only_for("tracking.kind"))
            if track[1] > 0.0 and not _reads(kind, "tracking.rep_loss_prob"):
                _fail(f"{tpath}.rep_loss_prob", f"reply loss has no effect "
                      f"under {kind}; " + _only_for("tracking.rep_loss_prob"))
            if kind == "client" and track[0] == PROACTIVE:
                _fail(f"{tpath}.kind", "client views read the servers' "
                                       "reports: int1 or int3")
            if kind in GLOBAL_BASELINES:
                rack = dict(n_servers=1, workers=[self.active_workers],
                            active0=[True], loc_sets=[[0]],
                            intra_kind="cfcfs" if kind == "global-cfcfs" else "ps")
                policy = "hash"
            else:
                rack = dict(n_servers=self.n_servers, workers=self.workers,
                            active0=self.active0, loc_sets=self.loc_sets,
                            intra_kind=self.intra_kind)
                policy = kind
            cost = stage_cost(policy, self.n_servers, k=k)
            if cost > MAX_STAGES:
                _fail(path, f"policy needs {cost} pipeline stages, budget is "
                      f"{MAX_STAGES}")
            if kind in RACK_BASELINES and uses_locality:
                _fail("workload.classes",
                      f"locality sets are not meaningful under the {kind!r} baseline")
            if kind in GLOBAL_BASELINES and faults:
                _fail("timeline", f"{faults[0]} events need switch-based "
                      f"dispatch, not {kind!r}")
            if (clients is not None and self.wfq_weights is not None
                    and clients != self.clients):
                _fail(f"{path}.clients",
                      "cannot override the client count when wfq weights are "
                      "per client")
            self.variants[vname] = Variant(
                **rack, policy=policy, k=k, bound=bound,
                clients=self.clients if clients is None else clients,
                tracking=track[0], rep_loss_prob=track[1], cost=cost)

    def _parse_intra(self, block: dict):
        _check_keys(block, {"kind", "slice_us", "preempt_threshold_us",
                            "ctx_switch_us", "preempt_latency_us",
                            "wfq_weights"}, "intra")
        self.intra_kind = _choice(block, "kind", "intra", DISCIPLINES, "cfcfs")
        self.slice_us = _num(block, "slice_us", "intra", 25.0, lo=1e-9)
        self.preempt_threshold_us = _num(block, "preempt_threshold_us", "intra",
                                         None, lo=1e-9, allow_none=True)
        self.ctx_switch_us = _num(block, "ctx_switch_us", "intra", 0.0, lo=0.0)
        self.preempt_latency_us = _num(block, "preempt_latency_us", "intra",
                                       5.0, lo=0.0)
        ws = block.get("wfq_weights")
        if self.intra_kind == "wfq":
            if not isinstance(ws, list) or len(ws) != self.clients:
                _fail("intra.wfq_weights",
                      f"wfq needs one positive integer weight per client ({self.clients})")
            self.wfq_weights = [_value(w, f"intra.wfq_weights[{i}]", lo=1,
                                       integer=True) for i, w in enumerate(ws)]
        else:
            if ws is not None:
                _fail("intra.wfq_weights", "only valid with kind 'wfq'")
            self.wfq_weights = None

    def _parse_reqtable(self, block: dict):
        _check_keys(block, {"stages", "slots_per_stage", "ttl_ms"}, "reqtable")
        self.rt_stages = _num(block, "stages", "reqtable", 4, lo=1, integer=True)
        self.rt_slots = _num(block, "slots_per_stage", "reqtable", 16384, lo=1,
                             integer=True)
        self.rt_ttl_us = _num(block, "ttl_ms", "reqtable", 100.0, lo=1e-9) * 1000.0

    def _parse_sweep(self, block: dict):
        _check_keys(block, {"loads", "seeds", "requests_per_point", "duration_us",
                            "warmup_fraction", "drain_us"}, "sweep")
        loads = block.get("loads", [0.5])
        if not isinstance(loads, list) or not loads:
            _fail("sweep.loads", "must be a non-empty list")
        self.loads = [_value(x, f"sweep.loads[{i}]", lo=1e-9)
                      for i, x in enumerate(loads)]
        seeds = block.get("seeds", [1])
        if not isinstance(seeds, list) or not seeds:
            _fail("sweep.seeds", "must be a non-empty list")
        self.seeds = []
        for i, s in enumerate(seeds):
            if not isinstance(s, int) or isinstance(s, bool):
                _fail(f"sweep.seeds[{i}]", f"must be an integer, got {s!r}")
            self.seeds.append(s)
        self.requests_per_point = _num(block, "requests_per_point", "sweep",
                                       100000, lo=1, integer=True)
        self.duration_us = _num(block, "duration_us", "sweep", None, lo=1e-9,
                                allow_none=True)
        self.warmup_fraction = _num(block, "warmup_fraction", "sweep", 0.1,
                                    lo=0.0, hi=0.95)
        self.drain_us = _num(block, "drain_us", "sweep", 5_000_000.0, lo=0.0)

    def _parse_timeline(self, events):
        if not isinstance(events, list):
            _fail("timeline", "must be a list of events")
        tags = {c.tag for c in self.classes}
        self.timeline = []
        for i, ev in enumerate(events):
            path = f"timeline[{i}]"
            if not isinstance(ev, dict):
                _fail(path, "expected an object")
            kind = _choice(ev, "kind", path, TIMELINE_KINDS)
            at = _num(ev, "at_us", path, None, lo=0.0)
            out = {"kind": kind, "at_us": at}
            if kind == "switch_fail":
                _check_keys(ev, {"kind", "at_us", "duration_us"}, path)
                out["duration_us"] = _num(ev, "duration_us", path, None, lo=1e-9)
            elif kind == "add_server":
                _check_keys(ev, {"kind", "at_us", "server"}, path)
                out["server"] = _num(ev, "server", path, None, lo=0,
                                     hi=self.n_servers - 1, integer=True)
            elif kind == "remove_server":
                _check_keys(ev, {"kind", "at_us", "server", "planned",
                                 "purge_delay_us"}, path)
                out["server"] = _num(ev, "server", path, None, lo=0,
                                     hi=self.n_servers - 1, integer=True)
                planned = ev.get("planned", True)
                if not isinstance(planned, bool):
                    _fail(f"{path}.planned", f"must be a boolean, got {planned!r}")
                out["planned"] = planned
                # a planned removal drains, so its mappings need no purge
                if planned and "purge_delay_us" in ev:
                    _fail(f"{path}.purge_delay_us",
                          "only valid for an unplanned removal")
                out["purge_delay_us"] = _num(ev, "purge_delay_us", path, 1000.0,
                                             lo=0.0)
            elif kind == "set_load":
                _check_keys(ev, {"kind", "at_us", "load"}, path)
                out["load"] = _num(ev, "load", path, None, lo=0.0)
            else:  # set_mix
                _check_keys(ev, {"kind", "at_us", "weights"}, path)
                ws = ev.get("weights")
                if not isinstance(ws, dict) or not ws:
                    _fail(f"{path}.weights", "must be a non-empty object of tag -> weight")
                out["weights"] = {}
                for tag, w in ws.items():
                    if tag not in tags:
                        _fail(f"{path}.weights", f"unknown class tag {tag!r}")
                    out["weights"][tag] = _value(w, f"{path}.weights.{tag}",
                                                 lo=0.0)
            # `_num` takes 1.0 for 1, but a server id is a JSON integer
            if "server" in out and not _server_id(ev["server"], self.n_servers):
                _fail(f"{path}.server", f"bad server id {ev['server']!r}")
            self.timeline.append(out)
        self.timeline.sort(key=lambda e: e["at_us"])

    def _capacity_rps(self) -> float:
        wsum = sum(c.weight for c in self.classes)
        mean_us = sum(c.weight * c.dist.mean_us for c in self.classes) / wsum
        return self.active_workers / mean_us * 1e6

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return cls(raw)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls(raw)

    def points(self):
        """Every (variant, load, seed) triple in deterministic order."""
        return product(self.variants, self.loads, self.seeds)

    def build_runspec(self, variant: str, load: float, seed: int) -> RunSpec:
        return RunSpec(self, self.variants[variant], seed,
                       load * self.capacity_rps)
