"""Service distributions, request factory, and grouping semantics."""

import random

import pytest

from racksim.workload import (
    ClassSpec, Group, Request, RequestFactory, ServiceDistribution)


def make_factory(classes, seed=1):
    return RequestFactory(classes, random.Random(seed), random.Random(seed + 1))


def exp_class(tag="all", index=0, weight=1.0, mean=50.0, **kw):
    return ClassSpec(tag, index, weight,
                     ServiceDistribution("exponential", mean), **kw)


class TestServiceDistribution:
    def test_deterministic_is_constant(self):
        d = ServiceDistribution("deterministic", 12.5)
        rnd = random.Random(3)
        assert [d.sample(rnd) for _ in range(5)] == [12.5] * 5

    def test_exponential_mean(self):
        d = ServiceDistribution("exponential", 50.0)
        rnd = random.Random(9)
        n = 200000
        mean = sum(d.sample(rnd) for _ in range(n)) / n
        assert mean == pytest.approx(50.0, rel=0.02)

    def test_mixture_mean_and_frequencies(self):
        d = ServiceDistribution.from_config(
            {"kind": "bimodal", "modes": [[0.9, 50.0], [0.1, 500.0]]})
        assert d.mean_us == pytest.approx(95.0)
        rnd = random.Random(4)
        n = 100000
        longs = sum(1 for _ in range(n) if d.sample(rnd) == 500.0)
        assert longs / n == pytest.approx(0.1, abs=0.005)

    def test_trimodal_from_config(self):
        d = ServiceDistribution.from_config(
            {"kind": "trimodal",
             "modes": [[0.333, 5.0], [0.333, 50.0], [0.334, 500.0]]})
        assert d.mean_us == pytest.approx(0.333 * 5 + 0.333 * 50 + 0.334 * 500)
        rnd = random.Random(5)
        assert all(d.sample(rnd) in (5.0, 50.0, 500.0) for _ in range(1000))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ServiceDistribution.from_config({"kind": "pareto", "mean_us": 1.0})


class TestRequestFactory:
    def test_req_ids_unique_across_clients(self):
        fac = make_factory([exp_class()])
        ids = {fac.make_request(c, 0.0)[0].req_id for c in range(4) for _ in range(100)}
        assert len(ids) == 400

    def test_mix_ratio(self):
        classes = [exp_class("a", 0, 1.0), exp_class("b", 1, 3.0)]
        fac = make_factory(classes)
        picks = [fac.make_request(0, 0.0)[0].tag for _ in range(40000)]
        assert picks.count(1) / len(picks) == pytest.approx(0.75, abs=0.01)

    def test_set_weights_rebalances(self):
        classes = [exp_class("a", 0, 1.0), exp_class("b", 1, 1.0)]
        fac = make_factory(classes)
        fac.set_weights({"b": 0.0}, 0.0)
        assert all(fac.make_request(0, 0.0)[0].tag == 0 for _ in range(200))
        assert fac.mix_mean_us() == pytest.approx(50.0)

    def test_start_window_gates_class(self):
        classes = [exp_class("base", 0, 1.0),
                   exp_class("late", 1, 50.0, start_us=1000.0)]
        fac = make_factory(classes)
        early = [fac.make_request(0, 500.0)[0].tag for _ in range(200)]
        assert set(early) == {0}
        late = [fac.make_request(0, 1500.0)[0].tag for _ in range(200)]
        assert late.count(1) > 150  # weight 50:1 once the window opens

    def test_stop_window_closes_class(self):
        classes = [exp_class("a", 0, 1.0), exp_class("b", 1, 9.0, stop_us=100.0)]
        fac = make_factory(classes)
        assert any(r.tag == 1 for r in
                   (fac.make_request(0, 10.0)[0] for _ in range(50)))
        assert all(fac.make_request(0, 100.0)[0].tag == 0 for _ in range(100))

    def test_all_windows_closed_yields_nothing(self):
        fac = make_factory([exp_class("a", 0, 1.0, stop_us=10.0)])
        assert fac.make_request(0, 10.0) == []

    def test_group_members_share_id_and_group(self):
        cls = exp_class(group_size=3)
        fac = make_factory([cls])
        members = fac.make_request(2, 7.0)
        assert len(members) == 3
        assert len({m.req_id for m in members}) == 1
        group = members[0].group
        assert group is not None and group.size == 3 and group.done == 0
        assert all(m.group is group for m in members)
        assert fac.created == 3

    def test_counters(self):
        fac = make_factory([exp_class()])
        for _ in range(5):
            fac.make_request(0, 0.0)
        assert fac.created == 5


class TestRequestShape:
    def test_fresh_request_state(self):
        r = Request(9, 1, 0, 0, 0, 2, 30.0, 4.0)
        assert r.remaining == 30.0
        assert r.pkts_pending == 2
        assert (r.measured, r.dropped, r.fallback) == (False, False, False)

    def test_group_done_counting(self):
        g = Group(2)
        g.done += 1
        assert g.done < g.size
        g.done += 1
        assert g.done >= g.size
