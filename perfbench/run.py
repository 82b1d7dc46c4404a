"""racksim benchmark: host time per simulated request on three traffic mixes.

    python3 perfbench/run.py --workload fcfs-exp --seed 1 --seconds 30 --trace 0

runs whole rounds of one workload for about `--seconds` seconds. A round
reads the workload's config from `perfbench/configs/`, runs each of its
policy variants at load 0.8 through racksim's public entry points
(`ExperimentConfig` -> `build_runspec` -> `RackRun.run` -> `MetricsRecord`
summaries) and checks the outputs. Every round of a run simulates the same
inputs, so every round must give the same output digest. The last line of
standard output is one JSON object: with `--trace 0` the end-to-end
metrics (medians over rounds), with `--trace 1` the per-layer metrics of
traced rounds, which alternate with untraced ones to give the tracing
overhead. Without `--workload` every workload runs, one process each.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CONFIG_DIR = HERE / "configs"
OUT_DIR = HERE / "out"
WORKLOADS = ("fcfs-exp", "ps-trimodal", "multipacket-jbsq")
LOAD = 0.8
SETUP_REPEATS = 5
# The JBSQ bound check runs on fixed inputs in every round of this workload,
# apart from the seeded points: the program breaks the bound (see
# `bound_probe`), and a fault is counted in `failed` only on inputs that do
# not depend on --seed.
PROBE_WORKLOAD = "multipacket-jbsq"
PROBE_VARIANT = "jbsq-8"
PROBE_SEED = 0
PROBE_REQUESTS = 5000

# name -> unit; the `better` directions live in BENCHMARK.json
END_TO_END = {
    "host_us_per_request": "us",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.events_per_request": "events/req",
    "engine.heap_events_per_request": "events/req",
    "engine.lane_events_per_request": "events/req",
    "engine.heap_high_water": "events",
    "engine.self_ns_per_event": "ns",
    "workload.make_request_ns": "ns",
    "switchsim.route_reqf_ns": "ns",
    "switchsim.note_rep_ns": "ns",
    "switchsim.route_reqr_ns": "ns",
    "switchsim.route_reqr_per_request": "calls/req",
    "switchsim.place_ok_ratio": "ratio",
    "switchsim.stall_ratio": "ratio",
    "switchsim.stall_high_water": "requests",
    "server.on_packet_ns": "ns",
    "server.timer_ns": "ns",
    "server.quanta_per_request": "quanta/req",
    "baselines.choose_ns": "ns",
    "runner.self_ns_per_request": "ns",
    "analysis.summary_s": "s",
    "config.parse_s": "s",
    "config.runspec_s": "s",
    "runner.construct_s": "s",
    "trace.overhead_us_per_request": "us",
}


def import_racksim() -> None:
    """Import racksim from this checkout's `src/` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import racksim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import racksim from {SRC}: {exc}")
    if Path(racksim.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: racksim was imported from {racksim.__file__}, "
                         f"not from {SRC}")


class Round:
    """What one round measured and found."""

    def __init__(self):
        self.host_s = 0.0
        self.wall_s = 0.0
        self.parse_s = 0.0
        self.runspec_s = 0.0
        self.construct_s = 0.0
        self.setup_s = 0.0
        self.points = 0             # simulation points run, probe included
        self.failed = 0             # points failed by the known JBSQ fault
        self.injected = 0
        self.completed = 0
        self.dropped = 0
        self.dispatches = 0          # switch-routed points only
        self.fallback_inserts = 0
        self.digest = ""
        self.failures: list[str] = []
        self.known: list[str] = []  # what the known JBSQ fault did

    @property
    def host_us_per_request(self) -> float:
        return self.host_s / self.injected * 1e6


def csv_rows(rec, summaries, seed: int) -> list:
    """The rows `racksim run` writes for one point."""
    return [[f"{LOAD:g}", f"{rec.offered_rps(i):.3f}",
             f"{rec.achieved_rps(i):.3f}", s.tag, f"{s.p50_us:.3f}",
             f"{s.p99_us:.3f}", f"{s.p999_us:.3f}", f"{s.mean_us:.3f}",
             str(s.fallbacks), str(seed)]
            for i, s in enumerate(summaries)]


def set_up(workload: str, seed: int, trace_affinity: bool):
    """Parse the config, resolve each variant's run spec and construct its
    RackRun. Returns (config, {variant: run}, (parse, runspec, construct)
    seconds)."""
    from racksim.config import ExperimentConfig
    from racksim.runner import RackRun

    t0 = perf_counter()
    exp = ExperimentConfig.from_file(str(CONFIG_DIR / f"{workload}.json"))
    t1 = perf_counter()
    specs = {v: exp.build_runspec(v, LOAD, seed) for v in exp.variants}
    t2 = perf_counter()
    runs = {v: RackRun(spec, trace_affinity) for v, spec in specs.items()}
    t3 = perf_counter()
    return exp, runs, (t1 - t0, t2 - t1, t3 - t2)


def run_round(workload: str, seed: int, tracer=None) -> Round:
    from racksim.runner import CSV_COLUMNS

    r = Round()
    t_start = perf_counter()
    # set-up takes milliseconds, so it is repeated and its median kept; the
    # runs of the last repeat are the ones simulated
    times = []
    for _ in range(SETUP_REPEATS):
        exp, runs, parts = set_up(workload, seed, tracer is not None)
        times.append(parts)
    r.parse_s, r.runspec_s, r.construct_s = (
        statistics.median(t[i] for t in times) for i in range(3))
    r.setup_s = statistics.median(sum(t) for t in times)
    raw = exp.raw
    digest = hashlib.sha256()
    points = []
    for variant, run in runs.items():
        runs[variant] = None        # so the run is freed once it is summarised
        if tracer is not None:
            tracer.begin_point()
            tracer.attach(run)
        gc.collect()
        t = process_time()
        rec = run.run()
        r.host_s += process_time() - t
        r.points += 1
        r.injected += rec.injected
        r.completed += rec.completed
        r.dropped += rec.dropped
        name = f"{workload}/{variant}"
        drain = None
        sw = run.switch
        if sw is not None:
            drain = drain_counts(sw)
            r.dispatches += sum(rec.dispatch_hist)
            r.fallback_inserts += rec.fallback_inserts
            if tracer is not None:
                r.failures += checks.affinity(name, sw, raw)
                failures, known = jbsq_bound(name, tracer.pc)
                r.failures += failures
                r.known += known
        del run, sw
        summaries = [rec.class_summary(i) for i in range(len(rec.class_tags))]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(csv_rows(rec, summaries, seed))
        digest.update(f"{variant}.csv\n".encode())
        digest.update(buf.getvalue().encode())
        points.append((variant, raw["policies"][variant]["kind"], rec,
                       summaries, drain))
    r.digest = digest.hexdigest()
    r.failures += checks.workload_checks(workload, raw, LOAD, points)
    r.wall_s = perf_counter() - t_start
    return r


def drain_counts(sw) -> dict:
    return {"ReqTable occupancy": sw.reqtable.occupancy,
            "JBSQ outstanding total": sum(sw.outstanding),
            "stalled requests": len(sw.stalled)}


def jbsq_bound(name: str, pc) -> tuple[list, list]:
    """No dispatch may leave a server above the JBSQ bound. Returns
    (failures, known): an overrun by a dispatch that JBSQ chose is a
    failure; one by a dispatch that took the ReqTable-full fallback is the
    known fault of `Switch._dispatch`, which `bound_probe` counts."""
    over = pc.over_bound - pc.over_bound_fallback
    failures = [f"{name}: {over} dispatches chosen by JBSQ left a server "
                f"above the bound {pc.jbsq_bound}"] if over else []
    known = [f"{name}: {pc.over_bound_fallback} fallback dispatches left a "
             f"server above the JBSQ bound {pc.jbsq_bound}, peaking at "
             f"{pc.max_outstanding}"] if pc.over_bound_fallback else []
    return failures, known


def bound_probe(r: Round) -> None:
    """The JBSQ bound check on fixed inputs: the `jbsq-8` point of
    `multipacket-jbsq` at seed PROBE_SEED with PROBE_REQUESTS requests,
    whatever --seed is. `Switch._dispatch` counts a request that took the
    ReqTable-full fallback into `outstanding` whatever the bound, so on
    these inputs servers go above it: the probe is then one failed point of
    the round. Its other checks must pass."""
    from racksim.config import ExperimentConfig
    from racksim.runner import RackRun
    from spans import PointCounts, watch_jbsq_bound

    t = perf_counter()
    raw = json.loads((CONFIG_DIR / f"{PROBE_WORKLOAD}.json").read_text())
    raw["sweep"]["requests_per_point"] = PROBE_REQUESTS
    exp = ExperimentConfig.from_dict(raw)
    run = RackRun(exp.build_runspec(PROBE_VARIANT, LOAD, PROBE_SEED))
    pc = PointCounts()
    watch_jbsq_bound(run.switch, pc)
    rec = run.run()
    name = f"{PROBE_WORKLOAD}/{PROBE_VARIANT} at seed {PROBE_SEED}"
    failures, known = jbsq_bound(name, pc)
    r.points += 1
    r.failed += bool(known)
    r.known += known
    r.failures += (failures + checks.conservation(name, rec)
                   + checks.drained(name, drain_counts(run.switch)))
    r.wall_s += perf_counter() - t


def layer_metrics(r: Round, tracer) -> dict:
    from spans import RUNNER_HANDLERS

    pts = tracer.points
    n = r.injected
    heap = sum(p.heap_pops for p in pts)
    lane = sum(p.lane_pops for p in pts)
    reqf = sum(p.reqf for p in pts)

    def per_call(name: str, which: int = 1) -> float:
        stat = tracer.stat(name)
        return stat[which] / stat[0] if stat[0] else 0.0

    return {
        "engine.events_per_request": (heap + lane) / n,
        "engine.heap_events_per_request": heap / n,
        "engine.lane_events_per_request": lane / n,
        "engine.heap_high_water": max(p.heap_high for p in pts),
        "engine.self_ns_per_event":
            tracer.stat("engine.run_until")[2] / (heap + lane),
        "workload.make_request_ns": per_call("workload.make_request"),
        "switchsim.route_reqf_ns": per_call("switchsim.route_reqf"),
        "switchsim.note_rep_ns": per_call("switchsim.note_rep"),
        "switchsim.route_reqr_ns": per_call("switchsim.route_reqr"),
        "switchsim.route_reqr_per_request":
            tracer.stat("switchsim.route_reqr")[0] / n,
        "switchsim.place_ok_ratio":
            (1.0 - r.fallback_inserts / r.dispatches) if r.dispatches else 0.0,
        "switchsim.stall_ratio":
            sum(p.stalls for p in pts) / reqf if reqf else 0.0,
        "switchsim.stall_high_water": max(p.stall_high for p in pts),
        "server.on_packet_ns": per_call("server.on_packet", 2),
        "server.timer_ns": per_call("server.timer", 2),
        "server.quanta_per_request": tracer.stat("server.timer")[0] / n,
        "baselines.choose_ns": per_call("baselines.choose"),
        "runner.self_ns_per_request":
            sum(tracer.stat(h)[2] for h in RUNNER_HANDLERS) / n,
        "analysis.summary_s": tracer.stat("analysis.class_summary")[1] / 1e9,
        "config.parse_s": r.parse_s,
        "config.runspec_s": r.runspec_s,
        "runner.construct_s": r.construct_s,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from spans import Tracer

    rounds: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    last_tracer = None
    t0 = perf_counter()
    probe = workload == PROBE_WORKLOAD
    while True:
        r = run_round(workload, seed)
        if probe:
            bound_probe(r)
        rounds.append(r)
        print(f"round {len(rounds)} host_us_per_request="
              f"{r.host_us_per_request:.3f} wall_s={r.wall_s:.3f}", flush=True)
        if trace:
            last_tracer = Tracer()
            with last_tracer:
                r = run_round(workload, seed, last_tracer)
            if probe:
                bound_probe(r)
            traced.append((r, layer_metrics(r, last_tracer)))
            print(f"traced round {len(traced)} host_us_per_request="
                  f"{r.host_us_per_request:.3f}", flush=True)
        done = len(rounds)
        elapsed = perf_counter() - t0
        if elapsed * (done + 1) / done > seconds:
            break

    every = rounds + [r for r, _ in traced]
    failures = []
    known = []
    for r in every:
        failures += r.failures
        known += r.known
    digests = sorted({r.digest for r in every})
    if len(digests) > 1:
        failures.append(f"{workload}: rounds of one seed gave {len(digests)} "
                        "different output digests")
    print(f"digest {workload} seed={seed} sha256={digests[0]}")
    print(f"requests injected={sum(r.injected for r in every)} "
          f"completed={sum(r.completed for r in every)} "
          f"dropped={sum(r.dropped for r in every)}")
    for msg in dict.fromkeys(known):
        print(f"KNOWN FAULT {msg}")
    for msg in dict.fromkeys(failures):
        print(f"FAIL {msg}")

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload}.spans.csv"
        kept = last_tracer.write(spans_path)
        print(f"spans {kept} written to {spans_path.relative_to(HERE.parent)}")
        values = {k: statistics.median(m[k] for _, m in traced)
                  for k in traced[0][1]}
        values["trace.overhead_us_per_request"] = (
            statistics.median(r.host_us_per_request for r, _ in traced)
            - statistics.median(r.host_us_per_request for r in rounds))
        units = PER_LAYER
    else:
        values = {
            "host_us_per_request":
                statistics.median(r.host_us_per_request for r in rounds),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(f"rounds {len(rounds)} untraced, {len(traced)} traced")
    result = {
        "correct": not failures,
        "attempted": sum(r.points for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; omitted, run each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measure whole rounds for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        code = 0
        for w in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    import_racksim()
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
