"""Statistics helpers and closed-form queueing references."""

import builtins
import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

import racksim.analysis as analysis
from racksim.analysis import (
    MetricsRecord, erlang_c, jsq_equilibrium, mm1_sojourn_mean,
    mmc_sojourn_mean, mmc_sojourn_quantile, mmc_sojourn_tail,
    mmc_wait_quantile, quantile, sign_test_p, tv_distance)

from insensitivity import insensitivity_check


class TestQuantile:
    def test_singleton(self):
        assert quantile([10.0], 0.5) == 10.0

    def test_nearest_rank_is_order_statistic(self):
        xs = list(range(1, 101))
        assert quantile(xs, 0.99) == 99
        assert quantile(xs, 0.01) == 1
        assert quantile(xs, 1.0) == 100
        assert quantile(xs, 0.995) == 100  # ceil, never interpolated

    def test_exponential_p99_matches_theory(self):
        rnd = random.Random(4)
        xs = sorted(-math.log(1.0 - rnd.random()) * 50.0
                    for _ in range(1_000_000))
        # p99 of Exp(mean 50) is -ln(0.01) * 50 = 230.26
        assert quantile(xs, 0.99) == pytest.approx(230.26, abs=3.0)

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestTvDistance:
    def test_identical_zero(self):
        h = {0: 5, 1: 3, 7: 2}
        assert tv_distance(h, dict(h)) == 0.0

    def test_disjoint_one(self):
        assert tv_distance({0: 5}, {1: 7}) == 1.0

    def test_half_overlap(self):
        assert tv_distance({0: 1, 1: 1}, {0: 1}) == pytest.approx(0.5)

    def test_scale_invariant(self):
        a = {0: 2, 1: 6}
        b = {0: 200, 1: 600}
        assert tv_distance(a, b) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tv_distance({}, {0: 1})


class TestSignTest:
    def test_all_wins(self):
        assert sign_test_p(10, 10) == pytest.approx(1 / 1024)

    def test_nine_of_ten(self):
        assert sign_test_p(9, 10) == pytest.approx(11 / 1024)

    def test_zero_wins_is_certain(self):
        assert sign_test_p(0, 10) == 1.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            sign_test_p(-1, 10)
        with pytest.raises(ValueError):
            sign_test_p(11, 10)


class TestClosedForms:
    def test_mm1_mean(self):
        assert mm1_sojourn_mean(0.01, 0.02) == pytest.approx(100.0)
        assert mm1_sojourn_mean(0.015, 0.02) == pytest.approx(200.0)
        # low utilization approaches the bare service time
        assert mm1_sojourn_mean(1e-9, 0.02) == pytest.approx(50.0, rel=1e-6)

    def test_mm1_guards(self):
        with pytest.raises(ValueError):
            mm1_sojourn_mean(0.0, 0.02)
        with pytest.raises(ValueError):
            mm1_sojourn_mean(0.02, 0.02)

    def test_jsq_equilibrium_values(self):
        assert jsq_equilibrium(0.5, 8, 1)[1] == 0.5 ** 8
        assert jsq_equilibrium(0.9, 2, 2)[2] == 0.9 ** 4
        assert jsq_equilibrium(0.7, 4, 3)[0] == 1.0

    def test_jsq_single_worker_is_geometric(self):
        assert jsq_equilibrium(0.3, 1, 4) == \
            pytest.approx([0.3 ** n for n in range(5)])

    def test_jsq_guards(self):
        for rho in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                jsq_equilibrium(rho, 2, 3)
        with pytest.raises(ValueError):
            jsq_equilibrium(0.5, 0, 3)

    def test_erlang_c_single_worker_is_utilization(self):
        assert erlang_c(1, 0.5) == pytest.approx(0.5)
        assert erlang_c(1, 0.9) == pytest.approx(0.9)

    def test_erlang_c_two_workers(self):
        assert erlang_c(2, 1.0) == pytest.approx(1 / 3)

    def test_erlang_c_matches_factorial_formula(self):
        c, a = 4, 3.0
        p0 = 1.0 / (sum(a ** k / math.factorial(k) for k in range(c))
                    + a ** c / (math.factorial(c) * (1 - a / c)))
        direct = a ** c / (math.factorial(c) * (1 - a / c)) * p0
        assert erlang_c(c, a) == pytest.approx(direct, rel=1e-12)

    def test_erlang_c_guards(self):
        with pytest.raises(ValueError):
            erlang_c(0, 0.5)
        with pytest.raises(ValueError):
            erlang_c(2, 2.0)

    def test_mmc_wait_quantile_zero_when_rarely_queued(self):
        assert mmc_wait_quantile(1, 0.5, 1.0, 0.5) == 0.0

    def test_mmc_wait_quantile_exponential_tail(self):
        got = mmc_wait_quantile(1, 0.9, 1.0, 0.99)
        assert got == pytest.approx(math.log(90.0) / 0.1)

    def test_mmc_sojourn_tail_single_worker_is_exponential(self):
        # M/M/1 sojourn is Exp(mu - lam)
        for lam, t in ((0.3, 0.0), (0.3, 2.5), (0.7, 1.0), (0.9, 40.0)):
            assert mmc_sojourn_tail(1, lam, 1.0, t) == \
                pytest.approx(math.exp(-(1.0 - lam) * t), rel=1e-12)

    def test_mmc_sojourn_mean_single_worker_is_mm1(self):
        for lam, mu in ((0.01, 0.02), (0.015, 0.02), (0.9, 1.0)):
            assert mmc_sojourn_mean(1, lam, mu) == \
                pytest.approx(mm1_sojourn_mean(lam, mu), rel=1e-12)

    def test_mmc_sojourn_mean_is_service_plus_mean_wait(self):
        c, lam, mu = 8, 0.136, 0.02
        want = 1.0 / mu + erlang_c(c, lam / mu) / (c * mu - lam)
        assert mmc_sojourn_mean(c, lam, mu) == pytest.approx(want, rel=1e-12)

    def test_mmc_sojourn_tail_continuous_at_equal_rates(self):
        # a = c*mu - lam equals mu at lam = (c - 1) * mu: the (1 + mu t)
        # branch must agree with the general formula on either side
        c, mu, t = 2, 1.0, 1.7
        at = mmc_sojourn_tail(c, (c - 1) * mu, mu, t)
        for eps in (1e-5, -1e-5):
            near = mmc_sojourn_tail(c, (c - 1) * mu + eps, mu, t)
            assert near == pytest.approx(at, rel=1e-4)

    def test_mmc_sojourn_tail_is_decreasing_from_one(self):
        assert mmc_sojourn_tail(8, 0.136, 0.02, 0.0) == 1.0
        ts = [10.0 * i for i in range(1, 60)]
        tails = [mmc_sojourn_tail(8, 0.136, 0.02, t) for t in ts]
        assert all(x > y for x, y in zip(tails, tails[1:]))
        assert 0.0 < tails[-1] < 0.01

    def test_mmc_sojourn_quantile_inverts_tail(self):
        for c, lam, mu, p in ((8, 0.048, 0.02, 0.99), (8, 0.136, 0.02, 0.99),
                              (3, 2.0, 1.0, 0.5), (2, 1.0, 1.0, 0.999)):
            t = mmc_sojourn_quantile(c, lam, mu, p)
            assert mmc_sojourn_tail(c, lam, mu, t) == \
                pytest.approx(1.0 - p, rel=1e-9)

    def test_mmc_sojourn_quantile_single_worker_closed_form(self):
        got = mmc_sojourn_quantile(1, 0.9, 1.0, 0.99)
        assert got == pytest.approx(math.log(100.0) / 0.1, rel=1e-9)

    def test_mmc_sojourn_quantile_guards(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                mmc_sojourn_quantile(8, 0.1, 0.02, p)


class TestMetricsRecord:
    def make(self, **kw):
        base = dict(
            class_tags=["a", "b"],
            window=(100.0, 1100.0),
            samples=[[5.0, 1.0, 3.0], []],
            arrivals=[3, 0],
            completions=[3, 0],
            fallbacks=[1, 0],
            injected=10,
            completed=8,
            dropped=1,
        )
        base.update(kw)
        return MetricsRecord(**base)

    def test_conservation_counters(self):
        rec = self.make()
        assert rec.in_flight() == 1
        assert rec.elapsed_us() == 1000.0

    def test_class_summary_values(self):
        s = self.make().class_summary(0)
        assert (s.tag, s.arrivals, s.completions, s.fallbacks) == ("a", 3, 3, 1)
        assert s.mean_us == pytest.approx(3.0)
        assert (s.p50_us, s.p99_us, s.p999_us) == (3.0, 5.0, 5.0)

    def test_empty_class_reports_nan(self):
        s = self.make().class_summary(1)
        assert math.isnan(s.mean_us) and math.isnan(s.p99_us)

    def test_rates(self):
        rec = self.make()
        assert rec.offered_rps(0) == pytest.approx(3000.0)
        assert rec.achieved_rps(0) == pytest.approx(3000.0)
        assert rec.offered_rps(1) == 0.0

    def test_pooled_stats(self):
        rec = self.make()
        assert rec.pooled_p99() == 5.0
        assert rec.pooled_mean() == pytest.approx(3.0)
        assert math.isnan(self.make(samples=[[], []]).pooled_mean())

    def test_waiting_tail_fractions(self):
        rec = self.make(census_waiting={0: 70, 1: 20, 2: 10})
        assert rec.waiting_tail_fractions(2) == \
            pytest.approx([1.0, 0.3, 0.1])

    def test_waiting_tail_requires_census(self):
        with pytest.raises(ValueError):
            self.make().waiting_tail_fractions(2)


def record(samples):
    k = len(samples)
    return MetricsRecord(
        class_tags=[f"c{i}" for i in range(k)], window=(0.0, 1.0),
        samples=samples, arrivals=[len(s) for s in samples],
        completions=[len(s) for s in samples], fallbacks=[0] * k)


@given(st.lists(st.lists(st.floats(min_value=0.0, exclude_min=True,
                                   allow_infinity=False),
                         min_size=1, max_size=300),
                min_size=1, max_size=3))
def test_array_samples_summarise_as_a_list(per_class):
    """The runner keeps samples in array('d'); every summary equals the one
    of the same floats in a list."""
    ref = record([list(xs) for xs in per_class])
    got = record([array("d", xs) for xs in per_class])
    for i in range(len(per_class)):
        assert got.class_summary(i) == ref.class_summary(i)
    assert got.pooled_p99() == ref.pooled_p99()
    assert got.pooled_mean() == ref.pooled_mean()


def reference(xs, ps):
    """Mean and nearest-rank quantiles from one sorted copy: the mean folds
    the ascending samples left to right in plain double additions."""
    xs = sorted(xs)
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs), [xs[math.ceil(p * len(xs)) - 1] for p in ps]


def assert_matches_reference(per_class):
    rec = record(per_class)
    for i, xs in enumerate(per_class):
        s = rec.class_summary(i)
        mean, quantiles = reference(xs, (0.50, 0.99, 0.999))
        assert s.mean_us == mean
        assert [s.p50_us, s.p99_us, s.p999_us] == quantiles
    pooled = [x for xs in per_class for x in xs]
    mean, (p99,) = reference(pooled, (0.99,))
    assert rec.pooled_p99() == p99 and rec.pooled_mean() == mean


def test_pooled_mean_is_the_ascending_fold_over_every_class():
    # ten 0.1 samples fold to 0.9999999999999999, not the 1.0 that a
    # compensated sum gives, and the mean is that fold over ten
    per_class = [[0.1] * 4, [], [0.1] * 6]
    rec = record(per_class)
    assert rec.pooled_mean() == reference([0.1] * 10, ())[0]
    assert rec.pooled_mean() == 0.9999999999999999 / 10


def exp_like(n, seed):
    rnd = random.Random(seed)
    return array("d", (2.0 - math.log(1.0 - rnd.random()) * 50.0
                       for _ in range(n)))


def tie_heavy(n, seed):
    """Deterministic 50 us service at low load: nine in ten samples are the
    bare service time plus the fixed path delay, the rest queued a little."""
    rnd = random.Random(seed)
    return array("d", (52.0 if rnd.random() < 0.9
                       else 52.0 - math.log(1.0 - rnd.random()) * 5.0
                       for _ in range(n)))


# a few values drawn often, so that ties span chunks and buckets
sample_values = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([1.0, 52.0, 52.5, 1e6]))


@given(st.lists(st.lists(sample_values, min_size=1, max_size=200),
                min_size=1, max_size=3))
def test_summaries_match_an_independent_reference(per_class):
    for chunk, buckets in ((1 << 14, 64), (5, 3), (16, 6)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_CHUNK", chunk)
            mp.setattr(analysis, "_BUCKETS", buckets)
            assert_matches_reference(per_class)
            assert_matches_reference([array("d", xs) for xs in per_class])


class TestOrderStats:
    @pytest.mark.parametrize("kind", [list, lambda xs: array("d", xs)])
    def test_ties_equal_samples_and_a_single_sample(self, kind, monkeypatch):
        monkeypatch.setattr(analysis, "_CHUNK", 50)
        monkeypatch.setattr(analysis, "_BUCKETS", 8)
        rnd = random.Random(5)
        heavy = [52.0 if rnd.random() < 0.9 else rnd.choice([3.0, 60.0, 75.5])
                 for _ in range(1000)]
        for per_class in ([heavy], [[7.25] * 1000], [[7.25]],
                          [[7.25], heavy, [0.5] * 3]):
            assert_matches_reference([kind(xs) for xs in per_class])

    def test_many_chunks_at_the_default_sizes(self):
        n = 3 * analysis._CHUNK + 17
        assert_matches_reference([exp_like(n, 2), tie_heavy(n // 2, 3)])

    @pytest.mark.parametrize("make", [exp_like, tie_heavy])
    def test_no_sort_boxes_more_than_one_chunk(self, make, monkeypatch):
        sizes = []

        def counting_sorted(xs):
            out = builtins.sorted(xs)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(analysis, "sorted", counting_sorted, raising=False)
        rec = record([make(200_000, 4)])
        rec.class_summary(0)
        rec.pooled_p99()
        assert max(sizes) <= analysis._CHUNK

    @pytest.mark.parametrize("make", [exp_like, tie_heavy])
    def test_peak_memory_per_sample(self, make):
        n = 200_000
        rec = record([make(n // 2, 6), make(n // 2, 7)])
        merged = record([array("d", [*rec.samples[0], *rec.samples[1]])])
        for summarise in (lambda: merged.class_summary(0), rec.pooled_p99):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                summarise()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 16 * n, f"{peak / n:.1f} B per sample"


class TestInsensitivityCheck:
    def test_identical_distributions_give_zero_distance(self):
        dist = {"kind": "exponential", "mean_us": 50.0}
        got = insensitivity_check(1, 0.5, dist, dict(dist), seeds=(3,),
                                  n_servers=2, requests_per_seed=2000)
        assert got == 0.0

    def test_mean_mismatch_rejected(self):
        with pytest.raises(ValueError):
            insensitivity_check(
                1, 0.5,
                {"kind": "exponential", "mean_us": 50.0},
                {"kind": "exponential", "mean_us": 60.0},
                seeds=(3,), n_servers=2, requests_per_seed=2000)
