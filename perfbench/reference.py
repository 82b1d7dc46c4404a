"""Closed-form M/M/c references for the benchmark's output checks.

These are written out here, apart from `racksim.analysis`, so that a fault
in the simulator's own analysis code cannot make a check agree with it.
Rates are per microsecond and times are microseconds.
"""

from __future__ import annotations

import math


def erlang_c(c: int, offered: float) -> float:
    """Probability that an arrival waits in an M/M/c queue with offered
    load `offered` = lambda / mu (< c), from the Erlang-B recursion."""
    if c < 1 or not 0.0 < offered < c:
        raise ValueError(f"need c >= 1 and 0 < offered < c, got {c}, {offered}")
    b = 1.0
    for i in range(1, c + 1):
        b = offered * b / (i + offered * b)
    rho = offered / c
    return b / (1.0 - rho * (1.0 - b))


def sojourn_mean(c: int, lam: float, mu: float) -> float:
    """Mean time in system of M/M/c: 1/mu + C / (c mu - lam). By
    insensitivity this is also the mean sojourn of M/G/c processor sharing
    with service rate mu."""
    return 1.0 / mu + erlang_c(c, lam / mu) / (c * mu - lam)


def sojourn_tail(c: int, lam: float, mu: float, t: float) -> float:
    """P(T > t) of the FCFS M/M/c sojourn T = W + S, where W is 0 with
    probability 1 - C and Exp(c mu - lam) otherwise, independent of
    S ~ Exp(mu)."""
    if t <= 0.0:
        return 1.0
    pw = erlang_c(c, lam / mu)
    a = c * mu - lam
    e_mu = math.exp(-mu * t)
    if abs(a - mu) < 1e-12 * mu:
        waited = (1.0 + mu * t) * e_mu
    else:
        waited = (a * e_mu - mu * math.exp(-a * t)) / (a - mu)
    return (1.0 - pw) * e_mu + pw * waited


def sojourn_quantile(c: int, lam: float, mu: float, p: float) -> float:
    """The t with P(T > t) = 1 - p, by bisection on the decreasing tail."""
    target = 1.0 - p
    lo, hi = 0.0, 1.0 / mu
    while sojourn_tail(c, lam, mu, hi) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sojourn_tail(c, lam, mu, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
