"""Random/hash dispatch choosers and the stale per-client view."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from racksim.baselines import ClientView, hash_pick
from racksim.switchsim import make_policy


def sampling_view(n, k):
    """A client view over n servers running a power-of-k sampling select."""
    return ClientView(n, make_policy("sampling", 1, 0, k=k).select)


def test_dispatch_random_uniform():
    rnd = random.Random(11)
    elig = [2, 5, 7]
    select = make_policy("random", 1, 0).select
    counts = Counter(select(None, elig, rnd, None) for _ in range(30000))
    assert set(counts) == set(elig)
    for s in elig:
        assert counts[s] / 30000 == pytest.approx(1 / 3, abs=0.02)


def test_hash_pick_deterministic_and_spread():
    elig = list(range(8))
    assert all(hash_pick(rid, elig, 77) == hash_pick(rid, elig, 77)
               for rid in range(1000))
    counts = Counter(hash_pick(rid, elig, 77) for rid in range(80000))
    for s in elig:
        assert counts[s] / 80000 == pytest.approx(1 / 8, rel=0.1)
    # a different salt reshuffles assignments
    moved = sum(1 for rid in range(1000)
                if hash_pick(rid, elig, 77) != hash_pick(rid, elig, 78))
    assert moved > 500


def test_client_view_observe_and_scan():
    view = sampling_view(4, 4)
    for s, load in enumerate([3, 1, 4, 1]):
        view.observe(s, load)
    rnd = random.Random(1)
    # full scan (k >= n): least load, lowest index on ties, then bumped
    assert view.choose(list(range(4)), rnd) == 1
    assert view.estimates == [3, 2, 4, 1]
    assert view.choose(list(range(4)), rnd) == 3

def test_client_view_optimistic_bump_spreads_sends():
    # with a stale all-zero view and no replies, consecutive full-scan picks
    # must rotate instead of herding onto server 0
    view = sampling_view(4, 4)
    rnd = random.Random(2)
    picks = [view.choose(list(range(4)), rnd) for _ in range(8)]
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_client_view_pair_pick_member_and_tiebreak():
    view = sampling_view(8, 2)
    rnd = random.Random(3)
    elig = list(range(8))
    for _ in range(500):
        view.estimates[:] = [5] * 8
        s = view.choose(elig, rnd)
        assert s in elig
        assert view.estimates[s] == 6  # bumped
    # two distinct servers are sampled: never a self-pair advantage
    view.estimates[:] = [0] * 8
    seen = {view.choose(elig, rnd) for _ in range(400)}
    assert len(seen) == 8


def test_client_view_general_k():
    view = sampling_view(8, 3)
    rnd = random.Random(4)
    hits = 0
    for _ in range(2000):
        view.estimates[:] = [9, 9, 9, 0, 9, 9, 9, 9]
        if view.choose(list(range(8)), rnd) == 3:
            hits += 1
    # server 3 wins whenever sampled: P = 1 - C(7,3)/C(8,3) = 3/8
    assert hits / 2000 == pytest.approx(3 / 8, abs=0.04)


class NoDraws:
    """A random source that must not be used."""

    def random(self):
        raise AssertionError("a full scan drew a random number")


@st.composite
def full_scans(draw):
    """(loads, eligible, k) with k >= len(eligible): int loads (tracked
    counts) or int3-style float loads, drawn from a few values so ties are
    common, and the eligible servers in any order."""
    n = draw(st.integers(1, 8))
    value = draw(st.sampled_from([st.integers(0, 2),
                                  st.sampled_from([0.0, 2.5, 7.0])]))
    loads = draw(st.lists(value, min_size=n, max_size=n))
    eligible = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    k = draw(st.sampled_from([len(eligible), len(eligible) + 1, sys.maxsize]))
    return loads, eligible, k


@given(full_scans())
def test_least_of_k_full_scan_keeps_the_first_minimum(case):
    loads, eligible, k = case
    best = eligible[0]
    for s in eligible:
        if loads[s] < loads[best]:
            best = s
    select = make_policy("sampling", 1, 0, k=k).select
    assert select(loads, eligible, NoDraws(), None) == best
