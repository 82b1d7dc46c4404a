"""Tests of the benchmark's own checks, references and tracing.

    python3 -m pytest -q perfbench/tests
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from racksim.config import ExperimentConfig  # noqa: E402
from racksim.runner import RackRun, run_experiment  # noqa: E402


def raw_config(workload: str, requests: int | None = None) -> dict:
    raw = json.loads((BENCH / "configs" / f"{workload}.json").read_text())
    if requests is not None:
        raw["sweep"]["requests_per_point"] = requests
    return raw


def run_variant(raw: dict, variant: str, seed: int = 1):
    exp = ExperimentConfig.from_dict(raw)
    return RackRun(exp.build_runspec(variant, run.LOAD, seed)).run()


# -- references -----------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.8, 0.95])
def test_mmc_reduces_to_mm1_at_one_worker(rho):
    mu = 1.0 / 50.0
    lam = rho * mu
    assert reference.erlang_c(1, rho) == pytest.approx(rho, rel=1e-12)
    assert reference.sojourn_mean(1, lam, mu) == pytest.approx(
        1.0 / (mu - lam), rel=1e-12)
    for t in (10.0, 100.0, 1000.0):
        assert reference.sojourn_tail(1, lam, mu, t) == pytest.approx(
            math.exp(-(mu - lam) * t), rel=1e-9)
    assert reference.sojourn_quantile(1, lam, mu, 0.99) == pytest.approx(
        math.log(100.0) / (mu - lam), rel=1e-9)


def test_erlang_c_rejects_unstable_load():
    with pytest.raises(ValueError):
        reference.erlang_c(8, 8.0)


# -- checks that must be able to fail ---------------------------------------------


def test_random_dispatch_check_rejects_sampling():
    """Power-of-two sampling balances load, so its sojourn sits well below
    the M/M/8 closed forms that uniform random dispatch must meet."""
    raw = raw_config("fcfs-exp")
    for variant, ok in (("random", True), ("sampling-2", False)):
        rec = run_variant(raw, variant)
        failures = checks.fcfs_closed_form(variant, rec.class_summary(0), raw,
                                           run.LOAD, pooled=False)
        assert (failures == []) == ok, failures


def test_pooled_check_rejects_sampling():
    """One pooled queue of 64 workers waits less than any dispatch to eight
    queues: sampling k=2 sits about 5% above the M/M/64 mean."""
    raw = raw_config("fcfs-exp")
    for variant, ok in (("global-cfcfs", True), ("sampling-2", False)):
        rec = run_variant(raw, variant)
        failures = checks.fcfs_closed_form(variant, rec.class_summary(0), raw,
                                           run.LOAD, pooled=True)
        assert (failures == []) == ok, failures


def test_conservation_rejects_one_missing_request():
    rec = run_variant(raw_config("fcfs-exp", requests=2000), "random")
    assert checks.conservation("whole", rec) == []
    rec.completed -= 1
    assert checks.conservation("one missing", rec)
    rec.completed += 1
    rec.completions[0] -= 1
    assert checks.conservation("one unmeasured", rec)


def test_bound_check_rejects_a_server_above_the_jbsq_bound():
    from spans import PointCounts

    pc = PointCounts()
    pc.jbsq_bound = 8
    assert run.jbsq_bound("within", pc) == ([], [])
    pc.over_bound = pc.max_outstanding = 9
    failures, known = run.jbsq_bound("chosen by jbsq", pc)
    assert failures and not known
    pc.over_bound_fallback = 9
    failures, known = run.jbsq_bound("fallback", pc)
    assert known and not failures


def test_bound_probe_counts_the_fallback_fault_as_one_failed_point():
    # Switch._dispatch lets a fallback dispatch go above the JBSQ bound; the
    # probe's inputs are fixed, so it fails the same way in every round
    r = run.Round()
    run.bound_probe(r)
    assert (r.points, r.failed, r.failures) == (1, 1, [])
    assert len(r.known) == 1


def test_drain_check_rejects_leftover_state():
    assert checks.drained("clean", {"ReqTable occupancy": 0}) == []
    assert checks.drained("left", {"ReqTable occupancy": 1})


# -- digest rows ---------------------------------------------------------------------


def test_digest_rows_are_the_rows_racksim_run_writes(tmp_path):
    raw = raw_config("multipacket-jbsq", requests=2000)
    raw["sweep"]["seeds"] = [3]
    exp = ExperimentConfig.from_dict(raw)
    run_experiment(exp, str(tmp_path))
    for variant in exp.variants:
        rec = run_variant(raw, variant, seed=3)
        summaries = [rec.class_summary(i) for i in range(len(rec.class_tags))]
        with open(tmp_path / f"{variant}.csv", newline="") as fh:
            written = list(csv.reader(fh))[1:]
        assert written == run.csv_rows(rec, summaries, 3)


# -- rounds, tracing and the metric tables -----------------------------------------------


@pytest.fixture
def small_configs(tmp_path, monkeypatch):
    for workload in run.WORKLOADS:
        raw = raw_config(workload, requests=1500)
        (tmp_path / f"{workload}.json").write_text(json.dumps(raw))
    monkeypatch.setattr(run, "CONFIG_DIR", tmp_path)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(small_configs, tmp_path, workload):
    from spans import Tracer

    plain = run.run_round(workload, 5)
    tracer = Tracer()
    with tracer:
        traced = run.run_round(workload, 5, tracer)
    assert traced.digest == plain.digest
    assert traced.injected == plain.injected
    metrics = run.layer_metrics(traced, tracer)
    assert set(metrics) | {"trace.overhead_us_per_request"} == set(run.PER_LAYER)
    assert metrics["engine.events_per_request"] >= 4.0
    path = tmp_path / "spans.csv"
    kept = tracer.write(path)
    assert kept > 0
    with open(path, newline="") as fh:
        assert sum(1 for _ in fh) == kept + 1


def test_wrappers_are_removed_after_a_traced_round(small_configs):
    from racksim.engine import EventLoop
    from spans import Tracer

    before = EventLoop.schedule
    with Tracer() as tracer:
        run.run_round("fcfs-exp", 1, tracer)
        assert EventLoop.schedule is not before
    assert EventLoop.schedule is before


def test_benchmark_json_matches_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
