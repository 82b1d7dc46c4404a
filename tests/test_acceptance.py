"""Acceptance gate: eleven headline behaviors, one test and one printed
verdict line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the checklist; the
whole module takes a few minutes because several criteria time or sweep
full experiment grids.
"""

import csv
import json
import time

from racksim.analysis import jsq_equilibrium, mm1_sojourn_mean, \
    mmc_sojourn_mean, mmc_sojourn_quantile, sign_test_p
from racksim.config import ExperimentConfig
from racksim.runner import run_experiment, run_point

from conftest import load_config, load_raw, run_traced
from insensitivity import insensitivity_check
from test_oracle_small import compare_case


def report(num: int, clauses) -> None:
    """Print one `[criterion NN] PASS/FAIL detail` line, then assert."""
    ok = all(c for c, _ in clauses)
    detail = "; ".join(text for _, text in clauses)
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def read_variant_p99(path: str) -> dict:
    """{load_fraction: p99_us} from a single-class, single-seed variant CSV."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[float(row["load_fraction"])] = float(row["p99_us"])
    return out


# -- 1: random dispatch tracks M/M/c; switch-level balancing tracks the pool -------


def random_dispatch_queue(exp: ExperimentConfig, load: float):
    """(workers, arrival rate, service rate) per us of one server under
    uniform random dispatch. Splitting Poisson arrivals uniformly at random
    thins them into independent Poisson streams, so each of the n servers is
    an M/G/c queue fed at 1/n of the offered rate."""
    mean_us = exp.classes[0].dist.mean_us
    lam = load * exp.capacity_rps / 1e6 / exp.n_servers
    return exp.workers[0], lam, 1.0 / mean_us


def path_delay_us(exp: ExperimentConfig) -> float:
    """Fixed network time of one request: client -> switch -> server and back."""
    return 2.0 * (exp.d_cs + exp.switch_lat + exp.d_ss)


def gap_text(sim: dict, ref: dict) -> str:
    """`load sim/ref us (gap)` for every load, simulated first."""
    return ", ".join(f"{ld:g} {sim[ld]:.1f}/{ref[ld]:.1f}us "
                     f"({sim[ld] / ref[ld] - 1.0:+.1%})" for ld in sim)


def test_c01_exponential_sweep_shape_and_runtime(tmp_path):
    exp = load_config("fig2a")
    t0 = time.perf_counter()
    paths = run_experiment(exp, str(tmp_path / "fig2a"))
    wall = time.perf_counter() - t0

    p99 = {p.rsplit("/", 1)[1][:-4]: read_variant_p99(p)
           for p in paths if p.endswith(".csv")}
    sim = p99["per-cfcfs"]
    ref = {ld: mmc_sojourn_quantile(*random_dispatch_queue(exp, ld), 0.99)
           + path_delay_us(exp) for ld in exp.loads}
    lo, hi = min(exp.loads), max(exp.loads)
    rise, rise_ref = sim[hi] / sim[lo], ref[hi] / ref[lo]
    worst = {v: max(p99[v][ld] / p99["global-cfcfs"][ld] for ld in exp.loads)
             for v in ("jsq-cfcfs", "jsq-exact")}
    report(1, [
        (wall < 120.0, f"full sweep wall {wall:.0f}s (budget 120s)"),
        (all(abs(sim[ld] / ref[ld] - 1.0) <= 0.02 for ld in exp.loads),
         "random-dispatch FCFS p99 within 2% of the M/M/"
         f"{exp.workers[0]} closed form (sim/ref: {gap_text(sim, ref)})"),
        (abs(rise / rise_ref - 1.0) <= 0.02,
         f"its p99 rises {rise:.3f}x from load {lo:g} to {hi:g} vs "
         f"{rise_ref:.3f}x closed form ({rise / rise_ref - 1.0:+.1%})"),
        (all(w < 2.0 for w in worst.values()),
         "switch balancing within 2x of pooled queue at every load "
         f"(worst sampled {worst['jsq-cfcfs']:.2f}x, exact "
         f"{worst['jsq-exact']:.2f}x)"),
    ])


# -- 2: trimodal processor sharing -------------------------------------------------


def test_c02_trimodal_sweep_shape(cached_point):
    exp = load_config("fig2b")
    rec = lambda v, ld: cached_point(exp, v, ld, 1)
    mean = {ld: rec("per-ps", ld).pooled_mean() for ld in exp.loads}
    ref = {ld: mmc_sojourn_mean(*random_dispatch_queue(exp, ld))
           + path_delay_us(exp) for ld in exp.loads}
    tail = [rec("per-ps", ld).pooled_p99() for ld in exp.loads]
    upper = [ld for ld in exp.loads if ld >= 0.5]
    above = {ld: (rec("per-ps", ld).pooled_p99(), rec("jsq-ps", ld).pooled_p99())
             for ld in upper}
    worst = max(rec("jsq-ps", ld).pooled_p99() / rec("global-ps", ld).pooled_p99()
                for ld in exp.loads)
    report(2, [
        (all(abs(mean[ld] / ref[ld] - 1.0) <= 0.02 for ld in exp.loads),
         "random-dispatch PS mean within 2% of the M/G/"
         f"{exp.workers[0]}-PS closed form (sim/ref: {gap_text(mean, ref)})"),
        (all(a < b for a, b in zip(tail, tail[1:])),
         "its p99 rises strictly over the sweep ("
         + " -> ".join(f"{x:.0f}" for x in tail) + "us)"),
        (all(r > s for r, s in above.values()),
         "its p99 above sampled balancing at loads >= 0.5 (random/sampled: "
         + ", ".join(f"{ld:g} {r:.0f}/{s:.0f}us" for ld, (r, s) in above.items())
         + ")"),
        (worst < 2.0,
         f"sampled balancing within 2x of pooled PS up to load 0.8 "
         f"(worst {worst:.2f}x)"),
    ])


# -- 3: switch beats client-side balancing beats random ---------------------------


def test_c03_client_baseline_ordering(cached_point):
    exp = ExperimentConfig.from_dict({
        "name": "client-ordering",
        "servers": {"count": 8, "workers": 8},
        "workload": {"service": {"kind": "exponential", "mean_us": 50.0}},
        "policies": {
            "switch-2": {"kind": "sampling", "k": 2},
            "client-100": {"kind": "client", "k": 2, "clients": 100},
            "random": {"kind": "random"},
        },
        "sweep": {"loads": [0.7, 0.8], "seeds": list(range(1, 11)),
                  "requests_per_point": 300000},
    })
    clauses = []
    for load in (0.7, 0.8):
        p = {v: [cached_point(exp, v, load, s).pooled_p99()
                 for s in range(1, 11)]
             for v in ("switch-2", "client-100", "random")}
        w_sc = sum(a < b for a, b in zip(p["switch-2"], p["client-100"]))
        w_cr = sum(a < b for a, b in zip(p["client-100"], p["random"]))
        p_sc = sign_test_p(w_sc, 10)
        p_cr = sign_test_p(w_cr, 10)
        clauses.append((p_sc < 0.05 and p_cr < 0.05,
                        f"load {load}: switch<client {w_sc}/10 (p={p_sc:.4f}),"
                        f" client<random {w_cr}/10 (p={p_cr:.4f})"))
    report(3, clauses)


# -- 4: near-linear scale-out of sustainable throughput ----------------------------


def test_c04_scale_out_is_near_linear(cached_point):
    grids = {n: load_config(f"fig9-{n}") for n in (1, 2, 4, 8)}
    ref = cached_point(grids[1], "scaled", 0.5, 1).pooled_p99()
    sustained = {}
    for n, exp in grids.items():
        ok_loads = [ld for ld in exp.loads
                    if cached_point(exp, "scaled", ld, 1).pooled_p99()
                    <= 3.0 * ref]
        sustained[n] = max(ok_loads) if ok_loads else 0.0
    ratios = {n: sustained[n] / sustained[1] for n in (2, 4, 8)}
    report(4, [
        (sustained[1] > 0.0,
         f"single-server baseline sustains load {sustained[1]:g} at p99 "
         f"<= 3x its low-load value ({ref:.0f}us)"),
        (all(0.85 <= r <= 1.0 for r in ratios.values()),
         "scaled racks sustain "
         + ", ".join(f"{sustained[n]:g} ({ratios[n]:.2f}x) at {n} servers"
                     for n in (2, 4, 8))
         + " of the single-server load fraction (need 0.85-1.0x)"),
    ])


# -- 5: policy ablation: exact-minimum herding, sampling widths, round robin -------


def test_c05_policy_ablation_ordering(cached_point):
    exp = load_config("fig11")
    p99 = lambda v, ld: cached_point(exp, v, ld, 1).pooled_p99()
    herd, close = [], []
    for load in (0.6, 0.7, 0.8):
        s, s2, s4 = (p99(v, load)
                     for v in ("shortest", "sampling-2", "sampling-4"))
        herd.append(s > s2)
        close.append(max(s2, s4) / min(s2, s4) - 1.0)
    rr_gap = [p99("round-robin", ld) > p99("sampling-2", ld)
              for ld in (0.8, 0.85)]
    report(5, [
        (all(herd), "stale exact-minimum herds above sampling-2 at loads "
                    "0.6/0.7/0.8"),
        (max(close) <= 0.15,
         f"sampling-2 vs sampling-4 within 15% (max gap {max(close):.0%})"),
        (all(rr_gap), "round-robin above sampling-2 at loads >= 0.8"),
    ])


# -- 6: load-tracking ablation under reply loss ------------------------------------


def test_c06_tracking_ablation_under_reply_loss(cached_point):
    exp = load_config("fig12")
    p99 = lambda v, ld: cached_point(exp, v, ld, 1).pooled_p99()
    pro = [p99("proactive", ld) > p99("counter", ld) for ld in (0.7, 0.8)]
    int2 = [p99("paired-min", ld) > p99("counter", ld) for ld in (0.7, 0.8)]
    drift = [abs(p99("remaining-work", ld) / p99("counter", ld) - 1.0)
             for ld in (0.7, 0.8)]
    report(6, [
        (all(pro), "lossy proactive counting drifts above reply-carried "
                   "counts at loads 0.7/0.8"),
        (all(int2), "single tracked-minimum pair herds above full counters"),
        (max(drift) <= 0.25,
         f"remaining-work within 25% of counter tracking "
         f"(max gap {max(drift):.0%})"),
    ])


# -- 7: closed-form oracles vs simulation -------------------------------------------


def test_c07_analytical_oracles():
    clauses = []
    mm1 = ExperimentConfig.from_dict({
        "name": "mm1",
        "servers": {"count": 1, "workers": 1},
        "network": {"client_switch_us": 0.0, "switch_server_us": 0.0,
                    "switch_latency_us": 0.0},
        "workload": {"service": {"kind": "exponential", "mean_us": 50.0}},
        "policy": {"kind": "shortest"},
        "sweep": {"loads": [0.5, 0.7], "seeds": [1],
                  "requests_per_point": 1000000},
    })
    for rho in (0.5, 0.7):
        want = mm1_sojourn_mean(rho / 50.0, 1.0 / 50.0)
        got = run_point(mm1, "default", rho, 1).pooled_mean()
        err = abs(got / want - 1.0)
        clauses.append((err < 0.05,
                        f"M/M/1 mean {got:.1f}us vs {want:.1f}us at rho "
                        f"{rho} ({err:.1%})"))

    spots = (jsq_equilibrium(0.5, 8, 1)[1] == 0.00390625
             and jsq_equilibrium(0.9, 2, 2)[2] == 0.6561)
    clauses.append((spots, "equilibrium tail spot values exact"))

    # exact outstanding counts realize the idealized discipline the
    # equilibrium tail describes; reply-delayed counters would herd
    census = ExperimentConfig.from_dict({
        "name": "jsq-tail",
        "servers": {"count": 8, "workers": 8},
        "workload": {"service": {"kind": "exponential", "mean_us": 50.0}},
        "policy": {"kind": "shortest"},
        "tracking": {"kind": "proactive"},
        "census_interval_us": 25.0,
        "sweep": {"loads": [0.5], "seeds": [1],
                  "requests_per_point": 200000},
    })
    frac = run_point(census, "default", 0.5, 1).waiting_tail_fractions(3)
    bounds = [3.0 * 0.5 ** (8 * n) for n in range(4)]
    tail_ok = all(frac[n] <= bounds[n] for n in (1, 2, 3))
    clauses.append((tail_ok,
                    f"empirical P(>=1 waiting) {frac[1]:.5f} <= "
                    f"{bounds[1]:.5f} under full-width balancing"))
    report(7, clauses)


# -- 8: processor sharing is insensitive to the service law -------------------------


def test_c08_queue_lengths_insensitive_under_ps():
    exp_dist = {"kind": "exponential", "mean_us": 50.0}
    v = 50.0 / 37.063
    tri_dist = {"kind": "trimodal",
                "modes": [[0.333, v], [0.333, 10 * v], [0.334, 100 * v]]}
    ps_tv = insensitivity_check(1, 0.7, exp_dist, tri_dist, seeds=(1, 2),
                                requests_per_seed=100000)
    fcfs_tv = insensitivity_check(1, 0.7, exp_dist, tri_dist, seeds=(1, 2),
                                  intra="cfcfs", requests_per_seed=100000)
    report(8, [
        (ps_tv < 0.05,
         f"PS queue-length histograms at TV distance {ps_tv:.3f} (< 0.05) "
         f"across equal-mean laws"),
        (fcfs_tv > ps_tv,
         f"FCFS pair is distribution-sensitive (TV {fcfs_tv:.3f})"),
    ])


# -- 9: affinity under pressure, faults, and recovery -------------------------------


def test_c09_affinity_fuzz_and_outage_recovery():
    exp = ExperimentConfig.from_dict({
        "name": "affinity-fuzz",
        "servers": {"count": 8, "workers": 8},
        "workload": {"classes": [
            {"tag": "rpc", "packets": 3,
             "service": {"kind": "exponential", "mean_us": 50.0}}]},
        "policy": {"kind": "sampling", "k": 2},
        "reqtable": {"stages": 1, "slots_per_stage": 64},
        "bucket_us": 10000.0,
        "timeline": [
            {"kind": "switch_fail", "at_us": 40000.0, "duration_us": 20000.0},
            {"kind": "remove_server", "at_us": 70000.0, "server": 7,
             "planned": True},
            {"kind": "add_server", "at_us": 85000.0, "server": 7},
        ],
        "sweep": {"loads": [0.7], "seeds": [11],
                  "requests_per_point": 100000},
    })
    rec, rr = run_traced(exp, "default", 0.7, 11)
    row = rec.buckets[0]
    pre = sum(row[1:4]) / 3.0
    outage = row[5] if len(row) > 5 else 0
    post = sum(row[7:10]) / 3.0
    report(9, [
        (rr.switch.affinity_violations == 0,
         f"0 split requests across {rec.injected} multi-packet injections"),
        (rec.fallback_inserts > 0,
         f"table pressure exercised ({rec.fallback_inserts} fallback "
         f"dispatches)"),
        (rec.in_flight() == 0 and rec.dropped > 0
         and rec.injected == rec.completed + rec.dropped,
         f"conservation holds through outage ({rec.dropped} dropped)"),
        (rr.switch.reqtable.occupancy == 0,
         "request table empty after recovery and drain"),
        (outage < 0.05 * pre and post >= 0.85 * pre,
         f"throughput {pre:.0f}/bucket before, {outage:.0f} during outage, "
         f"{post:.0f} after recovery"),
    ])


# -- 10: locality, strict priority, and mixed applications --------------------------


def test_c10_scenario_suites(cached_point):
    clauses = []

    loc = load_config("appendixB-locality")
    _, rr = run_traced(loc, "scaled", 0.8, 1)
    outside = {dst: n for dst, n in rr.switch.class_dispatch[0].items()
               if dst not in (0, 1, 2, 3)}
    clauses.append((not outside,
                    "pinned class never dispatched outside its 4-server set"))
    beats = []
    for load in (0.7, 0.8):
        s = cached_point(loc, "scaled", load, 1)
        r = cached_point(loc, "random", load, 1)
        beats.extend(s.class_summary(i).p99_us < r.class_summary(i).p99_us
                     for i in (0, 1))
    clauses.append((all(beats),
                    "both classes' p99 beat random dispatch at loads 0.7/0.8"))

    pri = load_config("appendixB-priority")
    rec = cached_point(pri, "scaled", 0.4, 1)
    seg = rec.buckets[0][55:95]
    bg_rps = sum(seg) / (40 * 10000.0) * 1e6
    solo_raw = load_raw("appendixB-priority")
    solo_raw["name"] = "priority-solo"
    solo_raw["workload"]["classes"] = [
        c for c in solo_raw["workload"]["classes"]
        if c["tag"] == "interactive"]
    solo_raw["timeline"] = [{"kind": "set_load", "at_us": 500000.0,
                             "load": 1.26}]
    solo = ExperimentConfig.from_dict(solo_raw)
    hi = rec.class_summary(1).p99_us
    hi_solo = cached_point(solo, "scaled", 0.4, 1).class_summary(0).p99_us
    clauses.append((bg_rps < 0.05 * pri.capacity_rps,
                    f"starved background at {bg_rps:.0f} req/s "
                    f"(< 5% of {pri.capacity_rps:.0f})"))
    clauses.append((hi <= 2.0 * hi_solo,
                    f"high-priority p99 {hi:.0f}us vs {hi_solo:.0f}us solo "
                    f"(within 2x)"))

    app = load_config("appendixB-multiapp")
    fair = []
    for load in (0.7, 0.8):
        s = cached_point(app, "scaled", load, 1)
        r = cached_point(app, "random", load, 1)
        fair.extend(s.class_summary(i).p99_us <= r.class_summary(i).p99_us
                    for i in (0, 1))
    clauses.append((all(fair),
                    "both applications' p99 <= random dispatch at 0.7/0.8"))
    report(10, clauses)


# -- 11: exact match against a brute-force executor ---------------------------------


def test_c11_small_instances_match_brute_force():
    checked = sum(1 for seed in range(120) if compare_case(seed) != "skip")
    report(11, [
        (checked >= 80,
         f"{checked}/120 randomized small instances conclusive, "
         f"all completion times exact"),
    ])
