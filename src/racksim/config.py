"""Experiment configuration: strict JSON validation, and resolution of each
sweep point into the run specification the simulator consumes.

Unknown keys are rejected (with the offending dotted path) rather than
ignored, so a typo in a sweep file fails loudly instead of silently running
defaults. A config may name several policy variants; each (variant, load,
seed) triple resolves to one RunSpec, which holds only what differs between
points and refers back to the validated config for every other setting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .switchsim import PipelineBudget, TRACKING_KINDS, stage_cost
from .workload import ClassSpec, ServiceDistribution

POLICY_KINDS = (
    "random", "hash", "rr", "shortest", "sampling", "jbsq",
    "client", "global-cfcfs", "global-ps",
)
INTRA_KINDS = ("cfcfs", "ps", "mq-cfcfs", "mq-ps", "priority", "wfq")
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


def _num(block: dict, key: str, path: str, default, lo=None, hi=None,
         integer: bool = False, allow_none: bool = False):
    v = block.get(key, default)
    if v is None:
        if allow_none:
            return None
        _fail(f"{path}.{key}", "required value missing")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {v!r}")
    if integer and int(v) != v:
        _fail(f"{path}.{key}", f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        _fail(f"{path}.{key}", f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(f"{path}.{key}", f"must be <= {hi}, got {v}")
    return int(v) if integer else float(v)


def _choice(block: dict, key: str, path: str, choices, default=None):
    v = block.get(key, default)
    if v not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _parse_dist(block: dict, path: str) -> ServiceDistribution:
    _check_keys(block, {"kind", "mean_us", "modes"}, path)
    kind = _choice(block, "kind", path,
                   ("exponential", "deterministic", "bimodal", "trimodal"))
    if kind in ("exponential", "deterministic"):
        _num(block, "mean_us", path, None, lo=1e-9)
        if "modes" in block:
            _fail(f"{path}.modes", f"not valid for kind {kind!r}")
    else:
        modes = block.get("modes")
        want = 2 if kind == "bimodal" else 3
        if not isinstance(modes, list) or len(modes) != want:
            _fail(f"{path}.modes", f"{kind} needs exactly {want} [prob, value_us] pairs")
        total = 0.0
        for i, pair in enumerate(modes):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{path}.modes[{i}]", "expected a [prob, value_us] pair")
            p, v = pair
            if not isinstance(p, (int, float)) or not 0.0 < p <= 1.0:
                _fail(f"{path}.modes[{i}]", f"probability must be in (0, 1], got {p!r}")
            if not isinstance(v, (int, float)) or v <= 0.0:
                _fail(f"{path}.modes[{i}]", f"value_us must be > 0, got {v!r}")
            total += p
        if abs(total - 1.0) > 1e-9:
            _fail(f"{path}.modes", f"probabilities must sum to 1, got {total}")
        if "mean_us" in block:
            _fail(f"{path}.mean_us", "not valid for mixture kinds (mean is implied)")
    return ServiceDistribution.from_config(block)


@dataclass(slots=True)
class RunSpec:
    """The values one (variant, load, seed) point resolves to. Every other
    setting (network delays, intra-server and ReqTable parameters, sweep
    window, timeline, instrumentation) is read from `exp`, the validated
    config. Global-queue variants are already collapsed to a single pooled
    server here."""

    exp: ExperimentConfig
    seed: int
    n_servers: int
    workers: list
    active0: list
    loc_sets: list
    classes: list                # ClassSpec, rebuilt per run (mutable weights)
    clients: int
    policy_kind: str
    policy_k: int
    policy_bound: int
    client_mode: bool
    tracking: str
    rep_loss_prob: float
    double_count_prob: float
    intra_kind: str
    rate_rps: float


class ExperimentConfig:
    """A validated experiment: shared rack/workload blocks plus named policy
    variants and a load x seed sweep."""

    def __init__(self, raw: dict):
        self.raw = raw
        top = {
            "name", "servers", "network", "workload", "locality_sets",
            "policy", "policies", "tracking", "intra", "reqtable", "pipeline",
            "sweep", "timeline", "census_interval_us", "bucket_us",
        }
        _check_keys(raw, top, "config")
        self.name = raw.get("name", "experiment")
        if not isinstance(self.name, str) or not self.name:
            _fail("config.name", "must be a non-empty string")

        self._parse_servers(raw.get("servers", {}))
        self._parse_network(raw.get("network", {}))
        self._parse_locality(raw.get("locality_sets", {}))
        self._parse_workload(raw.get("workload", {}))
        self._parse_tracking(raw.get("tracking", {}))
        self._parse_variants(raw)
        self._parse_intra(raw.get("intra", {}))
        self._parse_reqtable(raw.get("reqtable", {}))
        self._parse_pipeline(raw.get("pipeline", {}))
        self._parse_sweep(raw.get("sweep", {}))
        self._parse_timeline(raw.get("timeline", []))

        self.census_interval_us = _num(raw, "census_interval_us", "config", None,
                                       lo=1e-9, allow_none=True)
        self.bucket_us = _num(raw, "bucket_us", "config", None, lo=1e-9,
                              allow_none=True)

        self._check_variants()
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
            self.workers = [_num({"w": x}, "w", f"servers.workers[{i}]", None,
                                 lo=1, integer=True) for i, x in enumerate(w)]
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
                if not isinstance(x, int) or not 0 <= x < self.n_servers:
                    _fail("servers.initial_active", f"bad server id {x!r}")
                ids.add(x)
            self.active0 = [i in ids for i in range(self.n_servers)]

    def _parse_network(self, block: dict):
        _check_keys(block, {"client_switch_us", "switch_server_us",
                            "switch_latency_us"}, "network")
        self.d_cs = _num(block, "client_switch_us", "network", 1.0, lo=0.0)
        self.d_ss = _num(block, "switch_server_us", "network", 1.0, lo=0.0)
        self.switch_lat = _num(block, "switch_latency_us", "network", 1.0, lo=0.0)

    def _parse_locality(self, block: dict):
        if not isinstance(block, dict):
            _fail("locality_sets", "expected an object of name -> [server ids]")
        self.loc_names = ["all"]
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
                if not isinstance(x, int) or not 0 <= x < self.n_servers:
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
        self.class_blocks = []
        if "service" in block:
            dist = _parse_dist(block["service"], "workload.service")
            self.class_blocks.append({
                "tag": "all", "weight": 1.0, "dist": dist, "priority": 0,
                "locality": 0, "packets": 1, "group_size": 1,
                "start_us": None, "stop_us": None,
            })
            return
        classes = block["classes"]
        if not isinstance(classes, list) or not classes:
            _fail("workload.classes", "must be a non-empty list")
        tags = set()
        for i, cb in enumerate(classes):
            path = f"workload.classes[{i}]"
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
                loc_idx = self.loc_index.get(loc)
                if loc_idx is None:
                    _fail(f"{path}.locality", f"unknown locality set {loc!r}")
            self.class_blocks.append({
                "tag": tag,
                "weight": _num(cb, "weight", path, 1.0, lo=0.0),
                "dist": dist,
                "priority": _num(cb, "priority", path, 0, lo=0, integer=True),
                "locality": loc_idx,
                "packets": _num(cb, "packets", path, 1, lo=1, integer=True),
                "group_size": _num(cb, "group_size", path, 1, lo=1, integer=True),
                "start_us": _num(cb, "start_us", path, None, lo=0.0, allow_none=True),
                "stop_us": _num(cb, "stop_us", path, None, lo=0.0, allow_none=True),
            })
        if not any(cb["weight"] > 0.0 for cb in self.class_blocks):
            _fail("workload.classes", "at least one class needs weight > 0")

    def _parse_variants(self, raw: dict):
        if ("policy" in raw) == ("policies" in raw):
            _fail("config", "give exactly one of 'policy' or 'policies'")
        blocks = raw.get("policies") or {"default": raw["policy"]}
        if not isinstance(blocks, dict) or not blocks:
            _fail("policies", "must be a non-empty object of name -> policy")
        self.variants = {}
        for vname, pb in blocks.items():
            path = f"policies.{vname}" if "policies" in raw else "policy"
            if not isinstance(vname, str) or not vname:
                _fail("policies", "variant names must be non-empty strings")
            _check_keys(pb, {"kind", "k", "bound", "clients", "tracking"}, path)
            kind = _choice(pb, "kind", path, POLICY_KINDS)
            k = _num(pb, "k", path, 2, lo=1, integer=True)
            if kind in ("sampling", "client") and k > self.n_servers:
                _fail(f"{path}.k", f"cannot exceed server count {self.n_servers}")
            bound = _num(pb, "bound", path, 3, lo=1, integer=True)
            clients = _num(pb, "clients", path, None, lo=1, integer=True,
                           allow_none=True)
            if clients is not None and kind != "client":
                _fail(f"{path}.clients", "client count override is only valid "
                                         "for kind 'client'")
            # tracking may be overridden per variant (ablation sweeps)
            tb = pb.get("tracking")
            if tb is None:
                track = (self.tracking, self.rep_loss_prob, self.double_count_prob)
            else:
                tpath = f"{path}.tracking"
                _check_keys(tb, {"kind", "rep_loss_prob", "double_count_prob"},
                            tpath)
                track = (
                    _choice(tb, "kind", tpath, TRACKING_KINDS, "int1"),
                    _num(tb, "rep_loss_prob", tpath, 0.0, lo=0.0, hi=1.0),
                    _num(tb, "double_count_prob", tpath, 0.0, lo=0.0, hi=1.0),
                )
            self.variants[vname] = {"kind": kind, "k": k, "bound": bound,
                                    "clients": clients, "tracking": track}

    def _parse_tracking(self, block: dict):
        _check_keys(block, {"kind", "rep_loss_prob", "double_count_prob"}, "tracking")
        self.tracking = _choice(block, "kind", "tracking", TRACKING_KINDS, "int1")
        self.rep_loss_prob = _num(block, "rep_loss_prob", "tracking", 0.0,
                                  lo=0.0, hi=1.0)
        self.double_count_prob = _num(block, "double_count_prob", "tracking", 0.0,
                                      lo=0.0, hi=1.0)

    def _parse_intra(self, block: dict):
        _check_keys(block, {"kind", "slice_us", "preempt_threshold_us",
                            "ctx_switch_us", "preempt_latency_us",
                            "wfq_weights"}, "intra")
        self.intra_kind = _choice(block, "kind", "intra", INTRA_KINDS, "cfcfs")
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
            for i, w in enumerate(ws):
                if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                    _fail(f"intra.wfq_weights[{i}]", f"must be an integer >= 1, got {w!r}")
            self.wfq_weights = list(ws)
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

    def _parse_pipeline(self, block: dict):
        _check_keys(block, {"max_stages", "comparisons_per_stage",
                            "reads_per_stage"}, "pipeline")
        self.budget = PipelineBudget(
            max_stages=_num(block, "max_stages", "pipeline", 12, lo=1, integer=True),
            comparisons_per_stage=_num(block, "comparisons_per_stage", "pipeline",
                                       4, lo=1, integer=True),
            reads_per_stage=_num(block, "reads_per_stage", "pipeline", 4, lo=1,
                                 integer=True),
        )

    def _parse_sweep(self, block: dict):
        _check_keys(block, {"loads", "seeds", "requests_per_point", "duration_us",
                            "warmup_fraction", "drain_us"}, "sweep")
        loads = block.get("loads", [0.5])
        if not isinstance(loads, list) or not loads:
            _fail("sweep.loads", "must be a non-empty list")
        self.loads = [_num({"l": x}, "l", f"sweep.loads[{i}]", None, lo=1e-9)
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
        tags = {cb["tag"] for cb in self.class_blocks}
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
                for tag, w in ws.items():
                    if tag not in tags:
                        _fail(f"{path}.weights", f"unknown class tag {tag!r}")
                    if isinstance(w, bool) or not isinstance(w, (int, float)) or w < 0:
                        _fail(f"{path}.weights.{tag}", f"must be a number >= 0, got {w!r}")
                out["weights"] = {t: float(w) for t, w in ws.items()}
            self.timeline.append(out)
        self.timeline.sort(key=lambda e: e["at_us"])

    # -- cross checks ----------------------------------------------------------

    def _check_variants(self):
        uses_locality = any(cb["locality"] != 0 for cb in self.class_blocks)
        for vname, v in self.variants.items():
            kind = v["kind"]
            cost = self.variant_stage_cost(vname)
            if cost > self.budget.max_stages:
                _fail(f"policies.{vname}" if len(self.variants) > 1 or "policies" in self.raw
                      else "policy",
                      f"policy needs {cost} pipeline stages, budget is "
                      f"{self.budget.max_stages}")
            if kind in ("client", "global-cfcfs", "global-ps") and uses_locality:
                _fail("workload.classes",
                      f"locality sets are not meaningful under the {kind!r} baseline")
            if kind in ("client", "global-cfcfs", "global-ps") and self.timeline:
                for ev in self.timeline:
                    if ev["kind"] in ("switch_fail", "add_server", "remove_server"):
                        _fail("timeline",
                              f"{ev['kind']} events need switch-based dispatch, "
                              f"not {kind!r}")
            if (v["clients"] is not None and self.wfq_weights is not None
                    and v["clients"] != self.clients):
                _fail(f"policies.{vname}.clients",
                      "cannot override the client count when wfq weights are "
                      "per client")
            if kind == "jbsq" and v["tracking"][0] != "int1":
                # bounded dispatch keeps its own outstanding counts; piggyback
                # variants would be dead config, so reject the combination
                _fail("tracking.kind", "jbsq tracks outstanding replies itself; "
                                       "use int1 with jbsq")

    def variant_stage_cost(self, vname: str) -> int:
        v = self.variants[vname]
        kind = v["kind"]
        if kind in ("client", "global-cfcfs", "global-ps"):
            return 1  # pass-through forwarding only
        return stage_cost(kind, self.n_servers, self.budget, k=v["k"])

    def _capacity_rps(self) -> float:
        total_workers = sum(w for w, a in zip(self.workers, self.active0) if a)
        wsum = sum(cb["weight"] for cb in self.class_blocks)
        mean_us = sum(cb["weight"] * cb["dist"].mean_us
                      for cb in self.class_blocks) / wsum
        return total_workers / mean_us * 1e6

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
        for vname in self.variants:
            for load in self.loads:
                for seed in self.seeds:
                    yield vname, load, seed

    def build_runspec(self, variant: str, load: float, seed: int) -> RunSpec:
        v = self.variants[variant]
        kind = v["kind"]
        global_mode = kind in ("global-cfcfs", "global-ps")
        client_mode = kind == "client"

        if global_mode:
            n_servers = 1
            workers = [sum(w for w, a in zip(self.workers, self.active0) if a)]
            active0 = [True]
            loc_sets = [[0]]
            policy_kind = "hash"
            intra_kind = "cfcfs" if kind == "global-cfcfs" else "ps"
        else:
            n_servers = self.n_servers
            workers = list(self.workers)
            active0 = list(self.active0)
            loc_sets = [list(s) for s in self.loc_sets]
            policy_kind = "sampling" if client_mode else kind
            intra_kind = self.intra_kind

        classes = []
        for i, cb in enumerate(self.class_blocks):
            classes.append(ClassSpec(
                tag=cb["tag"], index=i, weight=cb["weight"], dist=cb["dist"],
                priority=cb["priority"],
                locality=0 if global_mode else cb["locality"],
                packets=cb["packets"], group_size=cb["group_size"],
                start_us=cb["start_us"], stop_us=cb["stop_us"],
            ))

        return RunSpec(
            exp=self,
            seed=seed,
            n_servers=n_servers,
            workers=workers,
            active0=active0,
            loc_sets=loc_sets,
            classes=classes,
            clients=v["clients"] if v["clients"] is not None else self.clients,
            policy_kind=policy_kind,
            policy_k=v["k"],
            policy_bound=v["bound"],
            client_mode=client_mode,
            tracking=v["tracking"][0],
            rep_loss_prob=v["tracking"][1],
            double_count_prob=v["tracking"][2],
            intra_kind=intra_kind,
            rate_rps=load * self.capacity_rps,
        )
