"""Config validation, run-spec resolution, and the command-line interface."""

import copy
import dataclasses
import json
import multiprocessing
import re

import pytest

from racksim.cli import main
from racksim.config import (POLICY_KINDS, VARIANT_KEYS, ConfigError,
                            ExperimentConfig, RunSpec, Variant)
from racksim.runner import CSV_COLUMNS, RackRun, run_experiment, run_point

from conftest import CONFIG_DIR, ROOT


def base_raw(**over):
    raw = {
        "workload": {"service": {"kind": "exponential", "mean_us": 50.0}},
        "policy": {"kind": "shortest"},
    }
    raw.update(over)
    return raw


def parse(**over):
    return ExperimentConfig.from_dict(base_raw(**over))


FAULTS = ({"kind": "switch_fail", "at_us": 8000.0, "duration_us": 3000.0},
          {"kind": "remove_server", "at_us": 9000.0, "server": 3,
           "planned": False},
          {"kind": "add_server", "at_us": 12000.0, "server": 3})


class TestDefaults:
    def test_minimal_config_defaults(self):
        exp = parse()
        assert exp.n_servers == 8 and exp.workers == [8] * 8
        assert exp.clients == 4 and exp.gap_us == 1.0
        assert exp.tracking == "int1" and exp.intra_kind == "cfcfs"
        assert (exp.rt_stages, exp.rt_slots, exp.rt_ttl_us) == (4, 16384, 100000.0)
        assert exp.variants["default"].cost == 3  # min-tree over 8
        assert exp.loads == [0.5] and exp.seeds == [1]
        assert exp.warmup_fraction == 0.1

    def test_capacity_is_total_workers_over_mean_service(self):
        exp = parse()
        assert exp.capacity_rps == pytest.approx(64 / 50.0 * 1e6)

    def test_capacity_weights_class_means(self):
        exp = parse(workload={"classes": [
            {"tag": "s", "weight": 1.0,
             "service": {"kind": "deterministic", "mean_us": 20.0}},
            {"tag": "l", "weight": 3.0,
             "service": {"kind": "deterministic", "mean_us": 60.0}},
        ]})
        assert exp.capacity_rps == pytest.approx(64 / 50.0 * 1e6)

    def test_capacity_counts_only_initially_active_servers(self):
        exp = parse(servers={"count": 4, "workers": 8,
                             "initial_active": [0, 2]})
        assert exp.capacity_rps == pytest.approx(16 / 50.0 * 1e6)


class TestFaultsUnderClientDispatch:
    """Client-based dispatch passes through the switch, so switch and
    server faults act on it as on any switch policy."""

    def test_config_accepts_fault_events(self):
        exp = parse(policy={"kind": "client"}, timeline=list(FAULTS))
        assert [ev["kind"] for ev in exp.timeline] == \
            ["switch_fail", "remove_server", "add_server"]

    def test_switch_outage_conserves_requests(self):
        exp = ExperimentConfig.from_dict(base_raw(
            servers={"count": 4, "workers": 4},
            workload={"service": {"kind": "exponential", "mean_us": 30.0}},
            policy={"kind": "client"}, timeline=[FAULTS[0]],
            sweep={"loads": [0.6], "seeds": [1], "requests_per_point": 5000}))
        rec = run_point(exp, "default", 0.6, 1)
        assert rec.dropped > 0
        assert rec.in_flight() == 0
        assert rec.injected == rec.completed + rec.dropped


class TestReadme:
    BLOCKS = ("servers", "network", "tracking", "intra", "reqtable", "sweep")

    def test_config_table_lists_exactly_the_accepted_keys(self, monkeypatch):
        import racksim.config as config
        allowed = {}
        check_keys = config._check_keys

        def recording(block, keys, path):
            allowed[path] = set(keys)
            return check_keys(block, keys, path)

        monkeypatch.setattr(config, "_check_keys", recording)
        parse(servers={"count": 2}, network={}, tracking={"kind": "int1"},
              intra={"kind": "ps"}, reqtable={"stages": 2},
              sweep={"loads": [0.5]})
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        listed = {}
        for line in readme.splitlines():
            m = re.match(r"\| `([a-z_]+)` \| (.*) \|$", line)
            if m:
                # keys are the backticked names outside the (default) notes
                listed[m[1]] = set(re.findall(r"`([a-z_]+)`",
                                              re.sub(r"\([^)]*\)", "", m[2])))
        for block in self.BLOCKS:
            assert listed[block] == allowed[block], block


    def test_policy_row_lists_the_keys_each_kind_reads(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        row = next(line for line in readme.splitlines()
                   if line.startswith("| `policy` / `policies` |"))
        listed = {}
        for part in row.split("`config.VARIANT_KEYS`): ")[1].split(". ")[0] \
                .split("; "):
            kinds, keys = part.split(": ")
            keys = re.findall(r"`([a-z_.]+)`", re.sub(r"\([^)]*\)", "", keys))
            for kind in re.findall(r"`([a-z0-9-]+)`", kinds):
                listed[kind] = tuple(keys)
        assert listed == VARIANT_KEYS


class TestRejection:
    def check(self, match, **over):
        with pytest.raises(ConfigError, match=match):
            parse(**over)

    def test_unknown_key_carries_dotted_path(self):
        self.check(r"workload\.servcie",
                   workload={"servcie": {"kind": "exponential", "mean_us": 1}})

    def test_unknown_nested_variant_key(self):
        raw = base_raw()
        del raw["policy"]
        raw["policies"] = {"a": {"kind": "shortest", "knid": 1}}
        with pytest.raises(ConfigError, match=r"policies\.a\.knid"):
            ExperimentConfig.from_dict(raw)

    def test_mixture_probabilities_must_sum_to_one(self):
        self.check("sum to 1", workload={"service": {
            "kind": "bimodal", "modes": [[0.5, 10.0], [0.6, 100.0]]}})

    def test_trimodal_needs_three_modes(self):
        self.check("exactly 3", workload={"service": {
            "kind": "trimodal", "modes": [[0.5, 10.0], [0.5, 100.0]]}})

    @pytest.mark.parametrize("modes", [[[0.5, True], [0.5, 10.0]],
                                       [[True, 10.0], [0.5, 10.0]]])
    def test_mixture_rejects_boolean_modes(self, modes):
        # JSON true is not the number 1: not a 1 us mode, nor a probability
        self.check(r"^workload\.service\.modes\[0\]: ", workload={
            "service": {"kind": "bimodal", "modes": modes}})

    def test_mixture_rejects_explicit_mean(self):
        self.check("mean is implied", workload={"service": {
            "kind": "bimodal", "mean_us": 55.0,
            "modes": [[0.9, 50.0], [0.1, 100.0]]}})

    def test_policy_exceeding_pipeline_budget(self):
        # a min-tree over 64 servers needs 17 of the 12 stages
        self.check("17 pipeline stages", servers={"count": 64})

    def test_pipeline_block_is_an_unknown_key(self):
        self.check(r"config\.pipeline: unknown key", pipeline={})

    def test_sampling_width_bounded_by_servers(self):
        self.check(r"policy\.k", policy={"kind": "sampling", "k": 64})

    def test_locality_under_global_baseline(self):
        self.check("locality",
                   locality_sets={"west": [0, 1]},
                   workload={"classes": [
                       {"tag": "a", "locality": "west",
                        "service": {"kind": "exponential", "mean_us": 50.0}}]},
                   policy={"kind": "global-cfcfs"})

    def test_fault_timeline_under_global_baseline(self):
        # the one pooled server of a global baseline has no server ids
        for ev in FAULTS:
            self.check(f"^timeline: {ev['kind']} events need switch-based "
                       "dispatch, not 'global-cfcfs'$",
                       policy={"kind": "global-cfcfs"}, timeline=[ev])

    def test_client_count_override_with_wfq_weights(self):
        raw = base_raw(intra={"kind": "wfq", "wfq_weights": [1, 1, 1, 1]})
        del raw["policy"]
        raw["policies"] = {"c": {"kind": "client", "clients": 100}}
        with pytest.raises(ConfigError, match="wfq"):
            ExperimentConfig.from_dict(raw)

    def test_jbsq_with_piggyback_tracking(self):
        self.check(r"^tracking\.kind: jbsq", policy={"kind": "jbsq"},
                   tracking={"kind": "int3"})
        raw = base_raw()
        del raw["policy"]
        raw["policies"] = {"s": {"kind": "shortest"},
                           "j": {"kind": "jbsq", "tracking": {"kind": "int3"}}}
        with pytest.raises(ConfigError, match=r"^policies\.j\.tracking\.kind: jbsq"):
            ExperimentConfig.from_dict(raw)
        self.check(r"^tracking\.rep_loss_prob: reply loss",
                   policy={"kind": "jbsq"}, tracking={"rep_loss_prob": 0.01})

    def test_clients_override_only_for_client_kind(self):
        self.check("only valid", policy={"kind": "shortest", "clients": 10})

    @pytest.mark.parametrize("kind", [k for k in POLICY_KINDS if k != "int2"])
    def test_int2_tracking_points_at_the_policy_kind(self, kind):
        # int2's tracked pair picks the server itself, whatever the kind
        self.check(r'^policy\.tracking\.kind: int2 is a policy kind: give the '
                   r'variant \{"kind": "int2"\}$',
                   policy={"kind": kind, "tracking": {"kind": "int2"}})

    def test_top_level_int2_tracking_points_at_the_policy_kind(self):
        self.check(r'^tracking\.kind: int2 is a policy kind: give the variant '
                   r'\{"kind": "int2"\}$', tracking={"kind": "int2"})

    def test_k_under_shortest(self):
        self.check(r"^policy\.k: only valid for kind\(s\) sampling, client$",
                   policy={"kind": "shortest", "k": 2})

    def test_bound_under_sampling(self):
        self.check(r"^policy\.bound: only valid for kind\(s\) jbsq$",
                   policy={"kind": "sampling", "bound": 3})

    def test_rep_loss_under_client(self):
        # the clients' views take every reply; the loss would hit only the
        # switch's rows, which client dispatch never reads
        self.check(r"^policy\.tracking\.rep_loss_prob: reply loss has no "
                   r"effect under client; only valid for kind\(s\) shortest, "
                   r"sampling, int2$",
                   policy={"kind": "client",
                           "tracking": {"rep_loss_prob": 0.01}})

    def test_proactive_tracking_under_client(self):
        self.check(r"^policy\.tracking\.kind: client views read the servers' "
                   r"reports: int1 or int3$",
                   policy={"kind": "client", "tracking": {"kind": "proactive"}})

    def test_a_variant_accepts_exactly_the_keys_its_kind_reads(self):
        # every kind, each key away from its default: accepted exactly when
        # the table lists the key, or `tracking` for a tracking field
        edits = {"k": {"k": 3}, "bound": {"bound": 2},
                 "clients": {"clients": 4},
                 "tracking.kind": {"tracking": {"kind": "int3"}},
                 "tracking.rep_loss_prob": {"tracking": {"rep_loss_prob": 0.1}}}
        accepted = set()
        for kind in POLICY_KINDS:
            for key, edit in edits.items():
                try:
                    parse(policy={"kind": kind, **edit})
                except ConfigError as exc:
                    field = key.split(".")[-1]
                    assert re.match(rf"^policy\.(tracking\.)?{field}: ",
                                    str(exc)), str(exc)
                else:
                    accepted.add((kind, key))
        assert accepted == {
            (kind, key) for kind, reads in VARIANT_KEYS.items()
            for key in edits if key in reads or key.split(".")[0] in reads}
        assert sum(len(reads) for reads in VARIANT_KEYS.values()) == 8

    def test_unread_tracking_at_its_default_is_accepted(self):
        exp = parse(policy={"kind": "jbsq", "tracking": {"kind": "int1",
                                                          "rep_loss_prob": 0}})
        v = exp.variants["default"]
        assert (v.tracking, v.rep_loss_prob) == ("int1", 0.0)

    @pytest.mark.parametrize("policies", [{}, [], 0, False, None])
    def test_falsy_policies(self, policies):
        raw = base_raw()
        del raw["policy"]
        raw["policies"] = policies
        with pytest.raises(ConfigError, match=r"^policies: must be a non-empty "
                                              r"object"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["list", "object"])
    @pytest.mark.parametrize("path,over", [
        ("intra.kind", lambda v: {"intra": {"kind": v}}),
        ("tracking.kind", lambda v: {"tracking": {"kind": v}}),
        ("workload.service.kind", lambda v: {
            "workload": {"service": {"kind": v, "mean_us": 50.0}}}),
        (r"timeline\[0\]\.kind", lambda v: {
            "timeline": [{"kind": v, "at_us": 1.0}]}),
        (r"workload\.classes\[0\]\.locality", lambda v: {
            "workload": {"classes": [{"tag": "a", "locality": v, "service": {
                "kind": "exponential", "mean_us": 50.0}}]}}),
    ], ids=["intra", "tracking", "service", "timeline", "locality"])
    def test_unhashable_choice_carries_its_path(self, path, over, value):
        self.check(rf"^{path}: ", **over(value))

    def test_duplicate_class_tags(self):
        svc = {"kind": "exponential", "mean_us": 50.0}
        self.check("duplicate", workload={"classes": [
            {"tag": "a", "service": svc}, {"tag": "a", "service": svc}]})

    def test_service_and_classes_are_exclusive(self):
        svc = {"kind": "exponential", "mean_us": 50.0}
        self.check("exactly one", workload={
            "service": svc, "classes": [{"tag": "a", "service": svc}]})

    def test_unknown_locality_name(self):
        self.check("unknown locality", workload={"classes": [
            {"tag": "a", "locality": "nowhere",
             "service": {"kind": "exponential", "mean_us": 50.0}}]})

    def test_reserved_locality_name(self):
        self.check("reserved", locality_sets={"all": [0, 1]})

    def test_workers_list_length(self):
        self.check(r"servers\.workers",
                   servers={"count": 4, "workers": [8, 8]})

    def test_non_integer_seed(self):
        self.check(r"seeds\[0\]", sweep={"seeds": [1.5]})

    def test_boolean_server_id_in_initial_active(self):
        self.check(r"^servers\.initial_active: bad server id True$",
                   servers={"initial_active": [True, 0]})

    def test_boolean_server_id_in_locality_set(self):
        self.check(r"^locality_sets\.x: bad server id False$",
                   locality_sets={"x": [False, 2]})

    @pytest.mark.parametrize("kind", ["add_server", "remove_server"])
    def test_timeline_server_id_is_an_integer(self, kind):
        # as in initial_active, where [1.0] is no server id either
        self.check(r"^timeline\[0\]\.server: bad server id 1\.0$",
                   timeline=[{"kind": kind, "at_us": 10.0, "server": 1.0}])
        self.check(r"^timeline\[0\]\.server: must be <= 7, got 8$",
                   timeline=[{"kind": kind, "at_us": 10.0, "server": 8}])

    def test_purge_delay_on_planned_removal(self):
        # a planned removal drains, and its table is never purged
        for planned in ({"planned": True}, {}):
            self.check(r"^timeline\[0\]\.purge_delay_us: only valid for an "
                       r"unplanned removal$", timeline=[
                           {"kind": "remove_server", "at_us": 10.0, "server": 1,
                            "purge_delay_us": 50.0, **planned}])
        exp = parse(timeline=[{"kind": "remove_server", "at_us": 10.0,
                               "server": 1, "planned": False,
                               "purge_delay_us": 50.0}])
        assert exp.timeline[0]["purge_delay_us"] == 50.0


class TestRunSpec:
    def test_global_variant_collapses_to_pooled_server(self):
        exp = parse(policy={"kind": "global-ps"},
                    intra={"kind": "cfcfs"})
        v = exp.build_runspec("default", 0.5, 1).variant
        assert v.n_servers == 1 and v.workers == [64]
        assert v.policy == "hash" and v.intra_kind == "ps"
        assert v.loc_sets == [[0]] and v.policy != "client"

    def test_global_cfcfs_forces_fcfs_discipline(self):
        exp = parse(policy={"kind": "global-cfcfs"}, intra={"kind": "ps"})
        assert exp.build_runspec("default", 0.5, 1).variant.intra_kind == "cfcfs"

    def test_client_variant_samples_at_clients(self):
        exp = parse(policy={"kind": "client", "k": 2, "clients": 100})
        v = exp.build_runspec("default", 0.5, 1).variant
        assert v.policy == "client"
        assert v.clients == 100 and v.n_servers == 8

    def test_int2_variant_takes_reply_loss_and_int1_reports(self):
        exp = parse(policy={"kind": "int2",
                            "tracking": {"rep_loss_prob": 0.01}})
        v = exp.variants["default"]
        assert (v.policy, v.tracking, v.rep_loss_prob, v.cost) == \
            ("int2", "int1", 0.01, 1)

    def test_points_of_a_variant_share_one_variant(self):
        raw = base_raw(sweep={"loads": [0.5, 0.7], "seeds": [1, 2]})
        del raw["policy"]
        raw["policies"] = {"a": {"kind": "shortest"},
                           "g": {"kind": "global-ps"}}
        exp = ExperimentConfig.from_dict(raw)
        for name in exp.variants:
            assert exp.build_runspec(name, 0.5, 1).variant \
                is exp.build_runspec(name, 0.7, 2).variant \
                is exp.variants[name]

    def test_runspec_holds_only_what_differs_between_points(self):
        assert [f.name for f in dataclasses.fields(RunSpec)] == \
            ["exp", "variant", "seed", "rate_rps"]
        assert isinstance(parse().variants["default"], Variant)

    def test_a_run_leaves_its_variant_as_parsed(self):
        exp = parse(servers={"count": 4, "workers": 2,
                             "initial_active": [0, 1, 2]},
                    sweep={"requests_per_point": 3000},
                    timeline=[{"kind": "add_server", "at_us": 200.0,
                               "server": 3},
                              {"kind": "remove_server", "at_us": 400.0,
                               "server": 0, "planned": False}])
        parsed = copy.deepcopy(exp.variants["default"])
        rr = RackRun(exp.build_runspec("default", 0.5, 1))
        rec = rr.run()
        assert rec.dispatch_hist[3] > 0 and rec.dropped > 0
        # the switch flipped its own copy of the active flags
        assert rr.switch.active == [False, True, True, True]
        assert exp.variants["default"] == parsed
        assert exp.active0 == [True, True, True, False]

    def test_rate_scales_with_load(self):
        exp = parse()
        spec = exp.build_runspec("default", 0.5, 1)
        assert spec.rate_rps == pytest.approx(0.5 * exp.capacity_rps)

    def test_points_order_is_variant_load_seed(self):
        raw = base_raw(sweep={"loads": [0.5, 0.7], "seeds": [1, 2]})
        del raw["policy"]
        raw["policies"] = {"a": {"kind": "shortest"}, "b": {"kind": "random"}}
        exp = ExperimentConfig.from_dict(raw)
        assert list(exp.points()) == [
            ("a", 0.5, 1), ("a", 0.5, 2), ("a", 0.7, 1), ("a", 0.7, 2),
            ("b", 0.5, 1), ("b", 0.5, 2), ("b", 0.7, 1), ("b", 0.7, 2)]

    def test_sha_ignores_key_order_but_not_values(self):
        a = ExperimentConfig.from_dict(
            {"policy": {"kind": "shortest"},
             "workload": {"service": {"kind": "exponential", "mean_us": 50.0}}})
        b = parse()
        assert a.config_sha256 == b.config_sha256
        c = parse(sweep={"loads": [0.6]})
        assert c.config_sha256 != b.config_sha256

    def test_points_share_the_config_classes(self):
        raw = base_raw(sweep={"loads": [0.5, 0.7], "seeds": [1, 2]})
        del raw["policy"]
        raw["policies"] = {"a": {"kind": "shortest"},
                           "g": {"kind": "global-ps"}}
        exp = ExperimentConfig.from_dict(raw)
        specs = [exp.build_runspec(*point) for point in exp.points()]
        assert all(RackRun(spec).factory.classes is exp.classes
                   for spec in specs)

    def test_service_shorthand_is_a_class_with_every_default(self):
        svc = {"kind": "bimodal", "modes": [[0.9, 10.0], [0.1, 100.0]]}
        short = parse(workload={"service": svc}).classes
        full = parse(workload={"classes": [{"tag": "all", "service": svc}]}).classes
        assert len(short) == len(full) == 1
        fields = ("tag", "index", "weight", "priority", "locality", "packets",
                  "group_size", "start_us", "stop_us")
        assert [getattr(short[0], f) for f in fields] == \
            [getattr(full[0], f) for f in fields] == \
            ["all", 0, 1.0, 0, 0, 1, 1, None, None]
        assert short[0].dist.mean_us == full[0].dist.mean_us == 19.0

    def test_timeline_sorted_by_time(self):
        exp = parse(timeline=[
            {"kind": "set_load", "at_us": 500.0, "load": 0.2},
            {"kind": "switch_fail", "at_us": 100.0, "duration_us": 10.0}])
        assert [ev["at_us"] for ev in exp.timeline] == [100.0, 500.0]


# -- command line ----------------------------------------------------------------


TINY = {
    "name": "tiny",
    "servers": {"count": 2, "workers": 2},
    "workload": {"service": {"kind": "exponential", "mean_us": 20.0}},
    "policy": {"kind": "shortest"},
    "sweep": {"loads": [0.5], "seeds": [1], "requests_per_point": 2000},
}


def write_config(tmp_path, raw, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestCli:
    def test_validate_accepts_every_shipped_config(self, capsys):
        configs = sorted(CONFIG_DIR.glob("*.json"))
        assert len(configs) >= 12
        for cfg in configs:
            assert main(["validate", str(cfg)]) == 0
            out = capsys.readouterr().out
            assert "ok" in out and "capacity" in out

    def test_validate_prints_each_variant_cost(self, capsys):
        assert main(["validate", str(CONFIG_DIR / "fig2a.json")]) == 0
        costs = re.findall(r"^  variant \S+: \S+, (\d+/12) pipeline stages$",
                           capsys.readouterr().out, re.M)
        assert costs == ["1/12", "2/12", "3/12", "1/12"]

    def test_validate_prints_int2_as_the_paired_min_policy(self, capsys):
        assert main(["validate", str(CONFIG_DIR / "fig12.json")]) == 0
        assert "  variant paired-min: int2, 1/12 pipeline stages\n" in \
            capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_raw(servers={"count": 64}))
        with pytest.raises(SystemExit) as exc:
            main(["validate", cfg])
        assert exc.value.code == 1
        assert "pipeline stages" in capsys.readouterr().err

    def test_validate_rejects_non_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(SystemExit):
            main(["validate", str(path)])
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_writes_csv_with_exact_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        assert main(["run", cfg, "--out", str(tmp_path / "r1"), "--quiet"]) == 0
        printed = capsys.readouterr().out.splitlines()
        csvs = [p for p in printed if p.endswith(".csv")]
        assert len(csvs) == 1
        header, *rows = open(csvs[0]).read().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        assert rows, "expected at least one data row"
        first = rows[0].split(",")
        assert first[0] == "0.5" and first[3] == "all" and first[-1] == "1"

    def test_run_is_deterministic_across_invocations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        bodies = []
        for sub in ("a", "b"):
            main(["run", cfg, "--out", str(tmp_path / sub), "--quiet"])
            printed = capsys.readouterr().out.splitlines()
            csvs = [p for p in printed if p.endswith(".csv")]
            bodies.append(open(csvs[0], "rb").read())
        assert bodies[0] == bodies[1]

    def test_run_writes_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        main(["run", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        printed = capsys.readouterr().out.splitlines()
        manifest = [p for p in printed if p.endswith("manifest.txt")]
        assert manifest and "tiny" in open(manifest[0]).read()

    def test_compare_identical_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        main(["run", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        csvs = [p for p in capsys.readouterr().out.splitlines()
                if p.endswith(".csv")]
        assert main(["compare", csvs[0], csvs[0]]) == 0
        out = capsys.readouterr().out
        assert "mean p99 ratio (candidate/baseline): 1.000" in out

    def test_compare_rejects_grid_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        other = dict(TINY, sweep={"loads": [0.6], "seeds": [1],
                                  "requests_per_point": 2000})
        cfg2 = write_config(tmp_path, other, name="exp2.json")
        main(["run", cfg, "--out", str(tmp_path / "r1"), "--quiet"])
        a = [p for p in capsys.readouterr().out.splitlines()
             if p.endswith(".csv")][0]
        main(["run", cfg2, "--out", str(tmp_path / "r2"), "--quiet"])
        b = [p for p in capsys.readouterr().out.splitlines()
             if p.endswith(".csv")][0]
        assert main(["compare", a, b]) == 2
        assert "grids do not match" in capsys.readouterr().err

    def test_compare_rejects_missing_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(bad), str(bad)])
        assert exc.value.code == 2


class FakePool:
    """multiprocessing.Pool stand-in: records the size it was asked for and
    maps in this process."""

    sizes: list = []

    def __init__(self, processes):
        FakePool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, jobs):
        return (fn(job) for job in jobs)


TWO_POINTS = dict(TINY, sweep={"loads": [0.5, 0.6], "seeds": [1],
                               "requests_per_point": 3000})


def read_outputs(paths):
    """{file name: bytes}, with the manifest's wall_s fields stripped."""
    out = {}
    for path in paths:
        body = open(path, "rb").read()
        if path.endswith("manifest.txt"):
            body = re.sub(rb" wall_s=\S+", b"", body)
        out[path.rsplit("/", 1)[-1]] = body
    return out


class TestParallel:
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_run_rejects_fewer_than_one_worker(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, TINY)
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg, "--out", str(tmp_path / "r"), "--parallel", n])
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_library_rejects_fewer_than_one_worker(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig.from_dict(TINY),
                           str(tmp_path / "r"), parallel=0)

    def test_pool_never_outnumbers_the_points(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        run_experiment(ExperimentConfig.from_dict(TWO_POINTS),
                       str(tmp_path / "two"), parallel=16)
        assert FakePool.sizes == [2]
        # one point runs in this process, with no pool at all
        run_experiment(ExperimentConfig.from_dict(TINY),
                       str(tmp_path / "one"), parallel=16)
        assert FakePool.sizes == [2]

    def test_serial_run_parses_the_config_once(self, tmp_path, monkeypatch):
        exp = ExperimentConfig.from_dict(TWO_POINTS)
        built = []
        init = ExperimentConfig.__init__

        def counting(self, raw):
            built.append(raw)
            init(self, raw)

        monkeypatch.setattr(ExperimentConfig, "__init__", counting)
        logged = []
        run_experiment(exp, str(tmp_path / "r"), log=logged.append)
        assert built == []
        assert len(logged) == 2

    def test_pool_writes_what_a_serial_run_writes(self, tmp_path):
        exp = ExperimentConfig.from_dict(TWO_POINTS)
        serial = run_experiment(exp, str(tmp_path / "serial"), parallel=1)
        pooled = run_experiment(exp, str(tmp_path / "pooled"), parallel=2)
        assert read_outputs(pooled) == read_outputs(serial)
