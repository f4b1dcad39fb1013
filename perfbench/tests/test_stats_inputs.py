"""The percentile-with-ten-beyond rule and the expected-admission
calculator behind the floor check."""

from __future__ import annotations

from fractions import Fraction

import pytest

from perfbench.inputs import (
    NEAR_FLOOR_LEFT,
    SCRAPE_FLOOR,
    expected_statuses,
    prefill_plan,
    request_pool,
)
from perfbench.stats import supported_percentile


@pytest.mark.parametrize(
    "n, q, supported",
    [
        (1000, 0.99, True),    # rank 990, ten beyond
        (999, 0.99, False),    # rank 990, nine beyond
        (20, 0.50, True),      # rank 10, ten beyond
        (19, 0.50, False),     # rank 10, nine beyond
        (0, 0.50, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(n, q, supported):
    value = supported_percentile(range(n), q)
    assert (value is not None) == supported


def test_percentile_is_nearest_rank():
    samples = list(range(1000, 0, -1))   # unsorted input
    assert supported_percentile(samples, 0.99) == 990
    assert supported_percentile(samples, 0.5) == 500
    with pytest.raises(ValueError):
        supported_percentile(samples, 1.0)


F = Fraction(1, 1024)
QUARTER, HALF = Fraction(1, 4), Fraction(1, 2)


def test_no_floor_admits_everything():
    requests = [("a", QUARTER)] * 50
    assert expected_statuses({}, 0, requests) == [200] * 50


def test_floor_admits_exactly_down_to_it():
    # 4F * 1/4 == F exactly: admitted; after that nothing fits.
    statuses = expected_statuses(
        {"a": 4 * F}, F, [("a", QUARTER), ("a", HALF), ("a", QUARTER)]
    )
    assert statuses == [200, 429, 429]


def test_refusal_leaves_the_budget_unchanged():
    statuses = expected_statuses(
        {"a": 4 * F}, F, [("a", Fraction(1, 8)), ("a", QUARTER)]
    )
    assert statuses == [429, 200]


def test_users_are_independent_and_start_at_one():
    statuses = expected_statuses(
        {"a": F}, F, [("a", HALF), ("b", HALF), ("b", HALF)]
    )
    assert statuses == [429, 200, 200]


def test_prefill_plan_is_seeded_and_reaches_the_floor():
    plan = prefill_plan("http-scrape-wal", 3)
    assert plan == prefill_plan("http-scrape-wal", 3)
    assert plan != prefill_plan("http-scrape-wal", 4)
    near = {SCRAPE_FLOOR * 4 ** left for left in NEAR_FLOOR_LEFT}
    assert any(alpha in near for alpha in plan.values())
    assert all(alpha >= SCRAPE_FLOOR for alpha in plan.values())
    unfloored = prefill_plan("inproc-c1024-wal", 3)
    assert len(unfloored) == 50_000
    assert set(unfloored.values()) == {HALF}


def test_request_pool_cycles_the_mix_over_the_active_users():
    pool = request_pool("http-scrape-wal", 5)
    assert len(set(pool.users[:2_000].tolist())) == 2_000
    assert pool.deployments[:6].tolist() == [0, 1, 2, 0, 1, 2]
    for k in range(300):
        assert 0 <= pool.payload(k)["true_result"] <= pool.n_of(k)
    inproc = request_pool("inproc-c1024-wal", 5)
    side = [inproc.payload(k) for k in range(3, 400, 4)]
    assert all(p["kind"] == "optimal" and p["true_result"] >= 4
               for p in side)
