"""Result records and the small analytical toolbox used to cross-check runs.

The closed-form pieces here are deliberately independent of the simulator:
they are computed from first principles so that simulation output can be
validated against them rather than against itself.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add


# -- summary statistics --------------------------------------------------------


def quantile(sorted_samples, p: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence.

    Uses the ceil(p*n) rank so that e.g. the p99 of 100 samples is the 99th
    order statistic, never an interpolated value.
    """
    return sorted_samples[_rank(len(sorted_samples), p) - 1]


def _rank(n: int, p: float) -> int:
    """The 1-based nearest rank ceil(p*n) of the p-quantile of n samples."""
    if n == 0:
        raise ValueError("quantile of empty sample set")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"quantile fraction must be in (0, 1], got {p}")
    return math.ceil(p * n)


# A summary sorts at most _CHUNK samples, or one bucket, as boxed floats at
# a time; everything else stays in array('d') at 8 B a sample.
_CHUNK = 1 << 14
_BUCKETS = 64
# a plain left-to-right double sum: 3.11's sum() is one, 3.12's compensates
if sys.version_info < (3, 12):
    _fold = sum
else:
    def _fold(xs, start):
        return reduce(add, xs, start)


def order_stats(seqs, ps) -> tuple:
    """(mean, [nearest-rank p-quantile for p in ps]) of the samples of all
    the float sequences in `seqs`, taken together; ValueError if empty.

    The result is that of `sorted()`: the quantiles are the order statistics
    `quantile` would read, and the mean folds the samples left to right in
    ascending order (stable, so equal samples keep their input order) as
    plain double additions, which is what Python 3.11's `sum(sorted(xs))`
    does. Python 3.12's `sum()` compensates its rounding, so there
    `sum(sorted(xs))` may differ from this fold in the last place; the fold
    itself does not change with the version.

    The samples are never boxed all at once. Splitters come from a strided
    sample. Each run of _CHUNK input samples is sorted, cut at the splitters
    and appended to per-bucket arrays, so a bucket holds the sorted pieces of
    every chunk that fall between two splitters. Then each bucket is sorted
    on its own, in ascending bucket order, which finishes the sort. A bucket
    that got one piece is sorted already. A value that fills several
    splitters gets a bucket of its own, so heavily tied samples are folded
    straight from their array, neither sorted nor boxed.
    """
    n = sum(len(s) for s in seqs)
    ranks = [_rank(n, p) for p in ps]
    cuts = []       # (splitter, bisect): bucket i ends at cut i
    tied = []       # per bucket: it holds one repeated value
    if n > _CHUNK:  # else the one chunk is the one bucket
        stride = max(1, n // (_BUCKETS * 32))
        sample = sorted(x for s in seqs for x in s[::stride])
        m = len(sample)
        for j in range(1, _BUCKETS):
            v = sample[j * m // _BUCKETS]
            if not cuts or v != cuts[-1][0]:
                cuts.append((v, bisect_left))
                tied.append(False)
            elif cuts[-1][1] is bisect_left:
                cuts.append((v, bisect_right))
                tied.append(True)
        del sample
    tied.append(False)

    buckets = [array("d") for _ in tied]
    pieces = [0] * len(tied)
    for s in seqs:
        for i in range(0, len(s), _CHUNK):
            run = array("d", sorted(s[i:i + _CHUNK]))
            a = 0
            for b, (v, cut) in enumerate(cuts):
                z = cut(run, v, a)
                if z > a:
                    buckets[b] += run[a:z]
                    pieces[b] += 1
                    a = z
            if a < len(run):
                buckets[-1] += run[a:]
                pieces[-1] += 1

    total = 0.0
    out = [0.0] * len(ranks)
    below = 0
    for b, bucket in enumerate(buckets):
        k = len(bucket)
        if tied[b] or pieces[b] < 2:
            run = bucket
        else:
            run = sorted(bucket)
        buckets[b] = None
        total = _fold(run, total)
        for j, r in enumerate(ranks):
            if below < r <= below + k:
                out[j] = run[r - below - 1]
        below += k
    return total / n, out


def tv_distance(hist_a: dict, hist_b: dict) -> float:
    """Total variation distance between two count histograms (normalized)."""
    ta = sum(hist_a.values())
    tb = sum(hist_b.values())
    if ta <= 0 or tb <= 0:
        raise ValueError("tv_distance needs non-empty histograms")
    keys = set(hist_a) | set(hist_b)
    return 0.5 * sum(
        abs(hist_a.get(k, 0) / ta - hist_b.get(k, 0) / tb) for k in keys
    )


def sign_test_p(wins: int, n: int) -> float:
    """One-sided exact sign test: P(X >= wins) for X ~ Binomial(n, 1/2)."""
    if not 0 <= wins <= n:
        raise ValueError(f"wins must be in [0, {n}], got {wins}")
    total = sum(math.comb(n, i) for i in range(wins, n + 1))
    return total / (2 ** n)


# -- closed-form queueing references -------------------------------------------


def mm1_sojourn_mean(arrival_rate: float, service_rate: float) -> float:
    """Mean time in system for an M/M/1 queue: 1 / (mu - lambda)."""
    if arrival_rate <= 0.0 or service_rate <= arrival_rate:
        raise ValueError("need 0 < arrival_rate < service_rate")
    return 1.0 / (service_rate - arrival_rate)


def jsq_equilibrium(rho: float, workers_per_server: int, n_max: int) -> list:
    """Tail of the join-shortest-queue equilibrium in the many-server regime.

    Returns [x_0, x_1, ..., x_n_max] with x_n = rho ** (n * K), the fraction
    of servers holding at least n waiting jobs when each server has K workers.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"utilization must be in (0, 1), got {rho}")
    if workers_per_server < 1:
        raise ValueError("workers_per_server must be >= 1")
    return [rho ** (n * workers_per_server) for n in range(n_max + 1)]


def erlang_c(n_workers: int, offered: float) -> float:
    """Probability of queueing in an M/M/c system with offered load a = lambda/mu.

    Used as an independent reference for pooled first-come-first-served
    servers. Stable only for offered < n_workers.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if not 0.0 < offered < n_workers:
        raise ValueError("offered load must be in (0, n_workers)")
    rho = offered / n_workers
    # Iterative Erlang-B then convert, avoiding large factorials.
    b = 1.0
    for i in range(1, n_workers + 1):
        b = offered * b / (i + offered * b)
    return b / (1.0 - rho + rho * b)


def mmc_wait_quantile(n_workers: int, arrival_rate: float, service_rate: float,
                      p: float) -> float:
    """Waiting-time (queueing delay) p-quantile of an M/M/c queue, from the
    exact tail P(W > t) = C * exp(-(c*mu - lam) t). The sojourn quantile,
    which adds the service time, is mmc_sojourn_quantile.
    """
    offered = arrival_rate / service_rate
    c = erlang_c(n_workers, offered)
    if c <= 1.0 - p:
        return 0.0
    decay = n_workers * service_rate - arrival_rate
    return math.log(c / (1.0 - p)) / decay


def mmc_sojourn_tail(n_workers: int, arrival_rate: float, service_rate: float,
                     t: float) -> float:
    """P(T > t) for the FCFS sojourn time T = W + S of an M/M/c queue.

    W is 0 with probability 1 - C and Exp(a) otherwise (C the Erlang-C
    probability, a = c*mu - lam), independent of S ~ Exp(mu), so
    P(T > t) = (1 - C) e^{-mu t} + C (a e^{-mu t} - mu e^{-a t}) / (a - mu),
    whose a == mu limit is (1 - C) e^{-mu t} + C (1 + mu t) e^{-mu t}.
    """
    if t <= 0.0:
        return 1.0
    mu = service_rate
    c = erlang_c(n_workers, arrival_rate / mu)
    a = n_workers * mu - arrival_rate
    e_mu = math.exp(-mu * t)
    if a == mu:
        queued = (1.0 + mu * t) * e_mu
    else:
        queued = (a * e_mu - mu * math.exp(-a * t)) / (a - mu)
    return (1.0 - c) * e_mu + c * queued


def mmc_sojourn_quantile(n_workers: int, arrival_rate: float,
                         service_rate: float, p: float) -> float:
    """Sojourn-time p-quantile of an M/M/c FCFS queue: the t at which
    mmc_sojourn_tail falls to 1 - p, found by bisection (the tail is
    continuous and strictly decreasing)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile fraction must be in (0, 1), got {p}")
    target = 1.0 - p
    tail = lambda t: mmc_sojourn_tail(n_workers, arrival_rate, service_rate, t)
    lo, hi = 0.0, 1.0 / service_rate
    while tail(hi) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def mmc_sojourn_mean(n_workers: int, arrival_rate: float,
                     service_rate: float) -> float:
    """Mean time in system of an M/M/c queue, E[N] / lam by Little's law,
    with E[N] = a + C * rho / (1 - rho) (a = lam/mu, rho = a/c, C Erlang-C).

    The number in system of an M/G/c processor-sharing queue has the same
    distribution (it is insensitive to the service law beyond its mean), so
    this is also the mean sojourn of M/G/c-PS.
    """
    offered = arrival_rate / service_rate
    rho = offered / n_workers
    n_mean = offered + erlang_c(n_workers, offered) * rho / (1.0 - rho)
    return n_mean / arrival_rate


# -- run results ----------------------------------------------------------------


@dataclass
class ClassSummary:
    tag: str
    arrivals: int
    completions: int
    fallbacks: int
    mean_us: float
    p50_us: float
    p99_us: float
    p999_us: float


@dataclass
class MetricsRecord:
    """Everything measured in one simulation run.

    Latency samples are completion - send time, in microseconds, for requests
    whose send time fell inside the measurement window, kept per class in an
    `array('d')` (8 B a sample; any float sequence works, and a list gives
    the same summaries). The summaries read exact order statistics through
    `order_stats`, which copies the samples into 8-byte buckets and boxes at
    most one chunk or one bucket at a time, so summarising 200k samples
    peaks at about 12 B a sample more, not the 36 B of a `sorted()` copy.
    Per-class fields are indexed by class position in the run's class list.
    """

    class_tags: list
    window: tuple                       # (start_us, end_us) of measurement
    samples: list                       # per class: array('d') of latency samples
    arrivals: list                      # per class: measured sends
    completions: list                   # per class: measured completions
    fallbacks: list                     # per class: measured fallback-path reqs
    injected: int = 0                   # every request created, warmup included
    completed: int = 0
    dropped: int = 0
    dispatch_hist: list = field(default_factory=list)
    fallback_inserts: int = 0
    fallback_reads: int = 0
    census_system: dict = field(default_factory=dict)   # jobs in system -> ticks
    census_waiting: dict = field(default_factory=dict)  # jobs waiting -> ticks
    buckets: list = field(default_factory=list)         # per class: completions per bucket
    bucket_us: float = 0.0
    wall_s: float = 0.0

    def in_flight(self) -> int:
        return self.injected - self.completed - self.dropped

    def elapsed_us(self) -> float:
        return self.window[1] - self.window[0]

    def class_summary(self, index: int) -> ClassSummary:
        xs = self.samples[index]
        if xs:
            mean, (p50, p99, p999) = order_stats([xs], (0.50, 0.99, 0.999))
        else:
            mean = p50 = p99 = p999 = float("nan")
        return ClassSummary(
            tag=self.class_tags[index],
            arrivals=self.arrivals[index],
            completions=self.completions[index],
            fallbacks=self.fallbacks[index],
            mean_us=mean,
            p50_us=p50,
            p99_us=p99,
            p999_us=p999,
        )

    def offered_rps(self, index: int) -> float:
        return self.arrivals[index] / self.elapsed_us() * 1e6

    def achieved_rps(self, index: int) -> float:
        return self.completions[index] / self.elapsed_us() * 1e6

    def pooled_p99(self) -> float:
        return order_stats(self.samples, (0.99,))[1][0]

    def pooled_mean(self) -> float:
        if not any(self.samples):
            return float("nan")
        return order_stats(self.samples, ())[0]

    def waiting_tail_fractions(self, n_max: int) -> list:
        """Empirical [x_0..x_n_max]: fraction of census ticks with >= n waiting."""
        total = sum(self.census_waiting.values())
        if total == 0:
            raise ValueError("no census ticks recorded")
        out = []
        for n in range(n_max + 1):
            at_least = sum(c for k, c in self.census_waiting.items() if k >= n)
            out.append(at_least / total)
        return out
