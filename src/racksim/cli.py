"""Command-line interface: run sweeps, compare result files, check configs."""

from __future__ import annotations

import argparse
import csv
import sys

from .config import ConfigError, ExperimentConfig
from .runner import run_experiment
from .switchsim import MAX_STAGES


def _load(path: str) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_file(path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def cmd_run(args) -> int:
    exp = _load(args.config)
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    paths = run_experiment(exp, args.out, parallel=args.parallel, log=log)
    for p in paths:
        print(p)
    return 0


def cmd_validate(args) -> int:
    exp = _load(args.config)
    n_points = len(exp.variants) * len(exp.loads) * len(exp.seeds)
    print(f"{args.config}: ok")
    print(f"  name: {exp.name}")
    print(f"  servers: {exp.n_servers} x {exp.workers[0]} workers"
          if len(set(exp.workers)) == 1 else
          f"  servers: {exp.n_servers} (workers {exp.workers})")
    print(f"  capacity: {exp.capacity_rps:.0f} req/s")
    for vname, v in exp.variants.items():
        print(f"  variant {vname}: {v.policy}, {v.cost}/{MAX_STAGES} "
              "pipeline stages")
    print(f"  points: {n_points} ({len(exp.loads)} loads x {len(exp.seeds)} "
          f"seeds x {len(exp.variants)} variants)")
    return 0


def _read_p99(path: str) -> dict:
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"load_fraction", "class_tag", "seed", "p99_us"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            print(f"error: {path} is missing result columns", file=sys.stderr)
            raise SystemExit(2)
        for row in reader:
            key = (row["load_fraction"], row["class_tag"], row["seed"])
            out[key] = float(row["p99_us"])
    return out


def cmd_compare(args) -> int:
    a = _read_p99(args.baseline)
    b = _read_p99(args.candidate)
    if set(a) != set(b):
        print("error: result grids do not match", file=sys.stderr)
        for path, keys in ((args.baseline, set(a) - set(b)),
                           (args.candidate, set(b) - set(a))):
            for key in sorted(keys)[:5]:
                print(f"  only in {path}: {key}", file=sys.stderr)
        return 2
    print(f"{'load':>8} {'class':>10} {'seed':>6} {'base_p99':>12} "
          f"{'cand_p99':>12} {'ratio':>8}")
    ratios = []
    for key in sorted(a, key=lambda k: (float(k[0]), k[1], int(k[2]))):
        load, tag, seed = key
        ra = a[key]
        rb = b[key]
        ratio = rb / ra if ra > 0 else float("inf")
        ratios.append(ratio)
        print(f"{load:>8} {tag:>10} {seed:>6} {ra:>12.3f} {rb:>12.3f} "
              f"{ratio:>8.3f}")
    mean = sum(ratios) / len(ratios) if ratios else float("nan")
    print(f"mean p99 ratio (candidate/baseline): {mean:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="racksim",
        description="Rack-scale request scheduling simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep config, write CSVs")
    p_run.add_argument("config", help="experiment config (JSON)")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--parallel", type=_positive_int, default=1, metavar="N",
                       help="worker processes for sweep points (at most one "
                            "per point)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress on stderr")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="experiment config (JSON)")
    p_val.set_defaults(fn=cmd_validate)

    p_cmp = sub.add_parser("compare", help="compare p99 between two result CSVs")
    p_cmp.add_argument("baseline", help="baseline results CSV")
    p_cmp.add_argument("candidate", help="candidate results CSV")
    p_cmp.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
