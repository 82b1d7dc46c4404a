"""Output checks of the benchmark's workloads.

Each check returns a list of failure messages (empty when it passes). The
references are the closed forms in `reference.py` or properties any correct
run has; none comes from `racksim.analysis`. Queue parameters are read from
the workload's raw JSON, not from racksim's parsed config.

Tolerances are about four standard deviations of the seed-to-seed spread
measured over 13 seeds at 100k requests per point, load 0.8:

- FCFS random dispatch: the mean spread 1.5% and the p99 2.5% (worst
  +6.8%) around the M/M/8 closed forms.
- PS random dispatch: the mean spread 2.2% around the M/M/8 mean, with a
  bias of about -1% from slicing at 25 us rather than sharing exactly.
- Pooled queues, 13 seeds: `global-cfcfs` has standard deviations of 0.3%
  (mean, worst -0.5%) and 0.5% (p99, worst +1.7%) around M/M/64, and
  `global-ps` 0.45% (mean, worst -0.8%) around the M/M/64 mean. The pooled
  checks allow 2% on the mean and 4% on the p99.

A check at these tolerances still separates the policies: sampling k=2 sits
16% below the M/M/8 FCFS mean and 9% below its p99, and 4.6-6.2% above the
M/M/64 FCFS mean.
"""

from __future__ import annotations

from reference import sojourn_mean, sojourn_quantile

FCFS_MEAN_TOL = 0.07
FCFS_P99_TOL = 0.12
PS_MEAN_TOL = 0.10
POOLED_MEAN_TOL = 0.02
POOLED_P99_TOL = 0.04
POOL_FLOOR_TOL = 0.02     # no mean may fall this far below the pooled mean
RATE_TOL = 0.02           # achieved vs offered rate; Poisson noise is 0.3%


def mean_service_us(raw: dict) -> float:
    """Mean of the single service law of a workload's raw config."""
    svc = raw["workload"]["service"]
    if "modes" in svc:
        return sum(p * v for p, v in svc["modes"])
    return svc["mean_us"]


def queue_params(raw: dict, load: float, pooled: bool):
    """(workers, arrival rate, service rate) per us of one server under
    uniform random dispatch, or of the pooled rack. Splitting Poisson
    arrivals uniformly at random thins them into independent Poisson
    streams, so each server is an M/G/c queue at 1/n of the offered rate."""
    n = raw["servers"]["count"]
    c = raw["servers"]["workers"]
    mu = 1.0 / mean_service_us(raw)
    lam = load * n * c * mu
    if pooled:
        return n * c, lam, mu
    return c, lam / n, mu


def path_us(raw: dict) -> float:
    """Fixed network time of a request: client -> switch -> server and back."""
    net = raw["network"]
    return 2.0 * (net["client_switch_us"] + net["switch_latency_us"]
                  + net["switch_server_us"])


def within(what: str, sim: float, ref: float, tol: float) -> list:
    gap = sim / ref - 1.0
    if abs(gap) <= tol:
        return []
    return [f"{what} {sim:.2f} vs reference {ref:.2f} ({gap:+.1%}, "
            f"tolerance {tol:.0%})"]


def conservation(name: str, rec) -> list:
    """Every injected request completed once, none dropped, and every
    measured arrival completed."""
    out = []
    if rec.completed != rec.injected:
        out.append(f"{name}: completed {rec.completed} of {rec.injected} "
                   "injected")
    if rec.dropped:
        out.append(f"{name}: {rec.dropped} requests dropped")
    if list(rec.completions) != list(rec.arrivals):
        out.append(f"{name}: measured completions {rec.completions} differ "
                   f"from measured arrivals {rec.arrivals}")
    return out


def rate_matches(name: str, rec, raw: dict, load: float) -> list:
    _, lam, _ = queue_params(raw, load, pooled=True)
    achieved = sum(rec.achieved_rps(i) for i in range(len(rec.class_tags)))
    return within(f"{name}: achieved rate (req/s)", achieved, lam * 1e6,
                  RATE_TOL)


def fcfs_closed_form(name: str, summary, raw: dict, load: float,
                     pooled: bool) -> list:
    """Mean and p99 sojourn against M/M/c FCFS plus the fixed path."""
    q = queue_params(raw, load, pooled)
    d = path_us(raw)
    label = f"M/M/{q[0]}"
    mean_tol, p99_tol = ((POOLED_MEAN_TOL, POOLED_P99_TOL) if pooled
                         else (FCFS_MEAN_TOL, FCFS_P99_TOL))
    return (within(f"{name}: mean us ({label})", summary.mean_us,
                   sojourn_mean(*q) + d, mean_tol)
            + within(f"{name}: p99 us ({label})", summary.p99_us,
                     sojourn_quantile(*q, 0.99) + d, p99_tol))


def ps_closed_form(name: str, summary, raw: dict, load: float,
                   pooled: bool) -> list:
    """Mean sojourn against M/M/c by M/G/c-PS insensitivity."""
    q = queue_params(raw, load, pooled)
    return within(f"{name}: mean us (M/G/{q[0]}-PS)", summary.mean_us,
                  sojourn_mean(*q) + path_us(raw),
                  POOLED_MEAN_TOL if pooled else PS_MEAN_TOL)


def at_least_pooled(name: str, summary, raw: dict, load: float) -> list:
    """With exponential service, one pooled queue maximises the departure
    rate in every state, so no dispatch policy has a lower mean."""
    floor = sojourn_mean(*queue_params(raw, load, pooled=True)) + path_us(raw)
    if summary.mean_us >= floor * (1.0 - POOL_FLOOR_TOL):
        return []
    return [f"{name}: mean {summary.mean_us:.2f} us below the pooled M/M/64 "
            f"mean {floor:.2f} us"]


def drained(name: str, drain: dict) -> list:
    """After the drain the switch holds no mapping, outstanding count or
    stalled request."""
    return [f"{name}: {what} is {n} after the drain"
            for what, n in drain.items() if n]


def workload_checks(workload: str, raw: dict, load: float, points) -> list:
    """All output checks of one round. `points` are (variant, policy kind,
    record, class summaries, drain counts or None)."""
    out = []
    for variant, kind, rec, summaries, drain in points:
        name = f"{workload}/{variant}"
        out += conservation(name, rec)
        if drain is not None:
            out += drained(name, drain)
        if workload == "multipacket-jbsq":
            continue
        out += rate_matches(name, rec, raw, load)
        s = summaries[0]
        if workload == "fcfs-exp":
            out += at_least_pooled(name, s, raw, load)
            if kind in ("random", "global-cfcfs"):
                out += fcfs_closed_form(name, s, raw, load,
                                        pooled=kind == "global-cfcfs")
        elif kind in ("random", "global-ps"):
            out += ps_closed_form(name, s, raw, load, pooled=kind == "global-ps")
    return out


def affinity(name: str, switch, raw: dict) -> list:
    """Traced-run checks: the packets of a request reach one server, and a
    class with a locality set reaches only servers of that set."""
    out = []
    if switch.affinity_violations:
        out.append(f"{name}: {switch.affinity_violations} affinity violations")
    for i, cb in enumerate(raw["workload"].get("classes", [])):
        if "locality" in cb:
            allowed = set(raw["locality_sets"][cb["locality"]])
            stray = sorted(set(switch.class_dispatch[i]) - allowed)
            if stray:
                out.append(f"{name}: class {cb['tag']} dispatched to servers "
                           f"{stray}, outside its locality set")
    return out
