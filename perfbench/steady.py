"""Steadiness check of the benchmark.

    python3 perfbench/steady.py

runs `run.py` untraced once per (set, workload, seed): two sets, every
workload of BENCHMARK.json and seeds 1-10, serially, with the run length of
BENCHMARK.json. It prints for each workload and end-to-end metric the
median and the interquartile spread as a share of the median
(`statistics.quantiles(values, n=4)`), beside the metric's bound, and
compares the second set's median with the first's. It fails when a spread
exceeds its bound, when the two sets' medians differ by more than the
bound in either direction, when the share of failed points differs
between runs, when a run is not correct, or when two runs of one seed print
different output digests. The raw results go to `perfbench/out/steady.json`.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(cmd: list, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    digest = next((ln.split("sha256=")[1] for ln in lines
                   if ln.startswith("digest ")), None)
    result = json.loads(lines[-1]) if lines else {}
    result["digest"] = digest
    result["rounds"] = [float(ln.split("host_us_per_request=")[1].split()[0])
                        for ln in lines if ln.startswith("round ")]
    result["returncode"] = out.returncode
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    runs = []
    for s in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                res = run_once(bench["command"], workload, seed,
                               bench["run_seconds"])
                res.update(set=s, workload=workload, seed=seed)
                runs.append(res)
                vals = " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                    for m in metrics if "metrics" in res)
                print(f"set {s} {workload} seed {seed}: correct="
                      f"{res.get('correct')} failed={res.get('failed')}/"
                      f"{res.get('attempted')} {vals}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(runs, indent=1))

    ok = True
    for res in runs:
        if res["returncode"] != 0 or not res.get("correct"):
            ok = False
            print(f"NOT CORRECT: {res['workload']} seed {res['seed']}")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload and "metrics" in r]
        for seed in SEEDS:
            digests = {r["digest"] for r in mine if r["seed"] == seed}
            if len(digests) != 1:
                ok = False
                print(f"DIGEST: {workload} seed {seed} gave {sorted(digests)}")
        shares = {r["failed"] / r["attempted"] for r in mine}
        if len(shares) > 1:
            ok = False
            print(f"FAILED SHARE: {workload} differs between runs: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in mine
                        if r["set"] == s]
                medians.append(statistics.median(vals))
                sp = spread(vals)
                flag = ""
                if sp > bound:
                    ok = False
                    flag = "  OVER BOUND"
                elif sp > bound / 3:
                    flag = "  over a third of the bound"
                print(f"{workload:18s} set {s} {name:20s} median "
                      f"{medians[-1]:.5g} {m['unit']:3s} spread {sp:6.1%} "
                      f"(bound {bound:.0%}){flag}")
            for s, med in enumerate(medians[1:], start=1):
                change = med / medians[0] - 1.0
                if abs(change) > bound:
                    ok = False
                    print(f"{workload:18s} set {s} {name}: median differs by "
                          f"{change:+.1%} from set 0 (bound {bound:.0%})")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
