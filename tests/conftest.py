"""Shared fixtures: shipped-config loading and a session-wide run cache.

Simulation points are deterministic in (config, variant, load, seed), so any
test may reuse a point another test already ran.
"""

import json
import pathlib
from collections import deque

import pytest

from racksim.config import ExperimentConfig
from racksim.runner import RackRun, run_point
from racksim.workload import Request

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def load_raw(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def load_config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(load_raw(name))


@pytest.fixture(scope="session")
def point_cache():
    return {}


@pytest.fixture(scope="session")
def cached_point(point_cache):
    """Callable fixture: run (or reuse) one simulation point."""

    def run(exp: ExperimentConfig, variant: str, load: float, seed: int):
        key = (exp.config_sha256, variant, load, seed)
        rec = point_cache.get(key)
        if rec is None:
            rec = run_point(exp, variant, load, seed)
            point_cache[key] = rec
        return rec

    return run


def run_traced(exp: ExperimentConfig, variant: str, load: float, seed: int):
    """Run one point; returns (record, RackRun), whose switch holds the
    affinity and per-class dispatch counters."""
    spec = exp.build_runspec(variant, load, seed)
    rr = RackRun(spec)
    rec = rr.run()
    return rec, rr


def held_requests(rr) -> list:
    """Every request some server of `rr` still refers to, however deep in
    its state, but for `w_last`: the last request each worker ran, kept to
    charge a context switch."""
    held = []

    def walk(val):
        if isinstance(val, Request):
            held.append(val)
        elif isinstance(val, dict):
            for v in val.values():
                walk(v)
        elif isinstance(val, (list, tuple, deque)):
            for v in val:
                walk(v)

    for srv in rr.servers:
        for name, val in vars(srv).items():
            if name != "w_last":
                walk(val)
    return held
