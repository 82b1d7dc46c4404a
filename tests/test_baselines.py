"""Random/hash dispatch helpers and the stale per-client view."""

import random
from collections import Counter

import pytest

from racksim.baselines import ClientView, dispatch_random, hash_pick


def test_dispatch_random_uniform():
    rnd = random.Random(11)
    elig = [2, 5, 7]
    counts = Counter(dispatch_random(elig, rnd) for _ in range(30000))
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
    view = ClientView(4)
    for s, load in enumerate([3, 1, 4, 1]):
        view.observe(s, load)
    rnd = random.Random(1)
    # full scan (k >= n): least load, lowest index on ties, then bumped
    assert view.choose(list(range(4)), 4, rnd) == 1
    assert view.estimates == [3, 2, 4, 1]
    assert view.choose(list(range(4)), 4, rnd) == 3

def test_client_view_optimistic_bump_spreads_sends():
    # with a stale all-zero view and no replies, consecutive full-scan picks
    # must rotate instead of herding onto server 0
    view = ClientView(4)
    rnd = random.Random(2)
    picks = [view.choose(list(range(4)), 4, rnd) for _ in range(8)]
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_client_view_pair_pick_member_and_tiebreak():
    view = ClientView(8)
    rnd = random.Random(3)
    elig = list(range(8))
    for _ in range(500):
        view.estimates[:] = [5] * 8
        s = view.choose(elig, 2, rnd)
        assert s in elig
        assert view.estimates[s] == 6  # bumped
    # two distinct servers are sampled: never a self-pair advantage
    view.estimates[:] = [0] * 8
    seen = {view.choose(elig, 2, rnd) for _ in range(400)}
    assert len(seen) == 8


def test_client_view_general_k():
    view = ClientView(8)
    rnd = random.Random(4)
    hits = 0
    for _ in range(2000):
        view.estimates[:] = [9, 9, 9, 0, 9, 9, 9, 9]
        if view.choose(list(range(8)), 3, rnd) == 3:
            hits += 1
    # server 3 wins whenever sampled: P = 1 - C(7,3)/C(8,3) = 3/8
    assert hits / 2000 == pytest.approx(3 / 8, abs=0.04)

