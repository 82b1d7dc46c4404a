"""Service-law insensitivity probe: the same join-shortest-queue rack run
under two service distributions of equal mean, compared by the total
variation distance of their queue-length histograms. It runs the simulator,
so it lives with the tests rather than in `racksim.analysis`, whose closed
forms stay independent of the simulator.
"""

from racksim.analysis import tv_distance
from racksim.config import ExperimentConfig
from racksim.runner import run_point


def insensitivity_check(workers_per_server: int, rho: float, dist_a: dict,
                        dist_b: dict, seeds, n_servers: int = 8,
                        intra: str = "ps", slice_us: float = 5.0,
                        requests_per_seed: int = 200000,
                        census_interval_us: float = 47.0) -> float:
    """Run join-shortest-queue racks under two service distributions of equal
    mean and return the total variation distance between their per-server
    queue-length histograms (sampled at Poisson epochs, pooled over seeds).

    Dispatch uses proactive outstanding counts (exact at the dispatcher), so
    the runs realize the idealized JSQ discipline rather than the
    reply-delayed telemetry variants, whose staleness artifacts depend on the
    service law and would confound the comparison.
    """
    exps = [ExperimentConfig.from_dict({
        "name": "insensitivity",
        "servers": {"count": n_servers, "workers": workers_per_server},
        "workload": {"service": dist},
        "policy": {"kind": "shortest"},
        "tracking": {"kind": "proactive"},
        "intra": {"kind": intra, "slice_us": slice_us},
        "sweep": {"loads": [rho], "seeds": list(seeds),
                  "requests_per_point": requests_per_seed},
        "census_interval_us": census_interval_us,
    }) for dist in (dist_a, dist_b)]
    mean_a, mean_b = (exp.classes[0].dist.mean_us for exp in exps)
    if abs(mean_a - mean_b) > 1e-6 * mean_a:
        raise ValueError(f"distributions must share a mean, got {mean_a} "
                         f"and {mean_b}")
    hists = []
    for exp in exps:
        census: dict = {}
        for seed in seeds:
            rec = run_point(exp, "default", rho, seed)
            for k, c in rec.census_system.items():
                census[k] = census.get(k, 0) + c
        hists.append(census)
    return tv_distance(hists[0], hists[1])
