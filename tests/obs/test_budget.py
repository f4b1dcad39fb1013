"""Tests for budget burn-rate rows (live books and WAL directories)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.budget import (
    burn_position,
    burn_rows_from_book,
    burn_rows_from_dir,
    floor_proximity,
    remaining_charges,
    spent_fraction,
)
from repro.release.durable_ledger import DurableLedger, MemoryLedgerBook


class TestSpentFraction:
    def test_fresh_book_is_zero(self):
        assert spent_fraction(Fraction(1), Fraction(1, 8)) == 0.0

    def test_at_floor_is_one(self):
        assert spent_fraction(Fraction(1, 8), Fraction(1, 8)) == 1.0

    def test_epsilon_fraction_midpoint(self):
        # One of three identical 1/2-charges spent: a third of epsilon.
        assert spent_fraction(
            Fraction(1, 2), Fraction(1, 8)
        ) == pytest.approx(1 / 3)

    def test_no_floor_means_no_burn(self):
        assert spent_fraction(Fraction(1, 2), Fraction(0)) == 0.0
        assert spent_fraction(Fraction(1, 2), None) == 0.0


class TestRemainingCharges:
    def test_exact_boundary(self):
        # cum * (1/2)^k >= 1/8 admits exactly k = 2 from cum = 1/2.
        assert remaining_charges(
            Fraction(1, 2), Fraction(1, 8), Fraction(1, 2)
        ) == 2
        assert remaining_charges(
            Fraction(1, 8), Fraction(1, 8), Fraction(1, 2)
        ) == 0

    def test_unbounded_and_unknown_alpha(self):
        assert remaining_charges(Fraction(1, 2), Fraction(0), Fraction(1, 2)) is None
        assert remaining_charges(Fraction(1, 2), Fraction(1, 8), None) is None
        assert remaining_charges(Fraction(1, 2), Fraction(1, 8), 1) is None

    def test_already_below_floor(self):
        assert remaining_charges(
            Fraction(1, 16), Fraction(1, 8), Fraction(1, 2)
        ) == 0

    def test_exact_far_from_floor(self):
        # Thousands of charges out: float logs alone would wobble at the
        # boundary; the exact walk must land exactly.
        floor = Fraction(1, 2) ** 5000
        k = remaining_charges(Fraction(1), floor, Fraction(1, 2))
        assert k == 5000

    @settings(max_examples=60, deadline=None)
    @given(
        cumulative=st.fractions(Fraction(1, 10**4), 1, max_denominator=10**4),
        floor=st.fractions(Fraction(1, 10**4), Fraction(99, 100),
                           max_denominator=10**4),
        alpha=st.fractions(Fraction(1, 100), Fraction(99, 100),
                           max_denominator=100),
    )
    def test_matches_charging_one_at_a_time(self, cumulative, floor, alpha):
        """The integer walk (and the book's capped bucket) against the
        definition: charge ``alpha`` until the floor refuses."""
        k, running = 0, cumulative
        while running * alpha >= floor and cumulative >= floor:
            running *= alpha
            k += 1
        assert remaining_charges(cumulative, floor, alpha) == k
        assert burn_position(cumulative, floor, 1, alpha) == (
            spent_fraction(cumulative, floor), min(k, 9)
        )


class TestBurnRows:
    def test_rows_sorted_most_burned_first(self):
        book = MemoryLedgerBook(floor=Fraction(1, 16))
        for _ in range(3):
            book.charge("hot", Fraction(1, 2))
        book.charge("cold", Fraction(1, 2))
        rows = burn_rows_from_book(book)
        assert [row.user for row in rows] == ["hot", "cold"]
        hot, cold = rows
        assert hot.releases == 3
        assert hot.cumulative_alpha == Fraction(1, 8)
        assert hot.remaining_charges == 1
        assert hot.spent_fraction == pytest.approx(0.75)
        assert cold.remaining_charges == 3
        assert not hot.at_floor

    def test_row_to_dict_is_json_friendly(self):
        book = MemoryLedgerBook(floor=Fraction(1, 4))
        book.charge("u", Fraction(1, 2))
        (row,) = burn_rows_from_book(book)
        data = row.to_dict()
        assert data["cumulative_alpha"] == "1/2"
        assert data["floor"] == "1/4"
        assert data["last_alpha"] == "1/2"
        assert data["remaining_charges"] == 1

    def test_rows_from_dir_match_recovery(self, tmp_path):
        ledger = DurableLedger(tmp_path / "led", floor=Fraction(1, 8))
        ledger.charge("alice", Fraction(1, 2))
        ledger.charge("alice", Fraction(1, 2))
        ledger.close()
        rows = burn_rows_from_dir(tmp_path / "led")
        (alice,) = rows
        assert alice.cumulative_alpha == Fraction(1, 4)
        assert alice.remaining_charges == 1
        assert alice.last_alpha == Fraction(1, 2)

    def test_recovered_snapshot_uses_geometric_mean_alpha(self, tmp_path):
        ledger = DurableLedger(tmp_path / "led", floor=Fraction(1, 64))
        ledger.charge("u", Fraction(1, 2))
        ledger.charge("u", Fraction(1, 8))
        ledger.compact()
        ledger.close()
        # After compaction the reopened book only has a snapshot entry:
        # last_alpha falls back to the geometric mean (1/16)^(1/2) = 1/4.
        (row,) = burn_rows_from_dir(tmp_path / "led")
        assert row.cumulative_alpha == Fraction(1, 16)
        assert row.last_alpha == pytest.approx(0.25)
        assert row.remaining_charges == 1


class TestDeepBudgets:
    """Budgets below ~1e-308, where ``float`` of the cumulative alpha
    underflows to 0.0: the burn math must not raise."""

    FLOOR = Fraction(1, 2**1100)

    def test_deep_rows_from_a_live_book(self):
        book = MemoryLedgerBook(floor=self.FLOOR)
        for _ in range(1080):
            book.charge("deep", Fraction(1, 2))
        (row,) = burn_rows_from_book(book)
        assert row.spent_fraction == pytest.approx(1080 / 1100)
        assert row.remaining_charges == 20
        assert floor_proximity([row]) == {1: 0, 2: 0, 4: 0, 8: 0}

    def test_deep_compacted_user_projects_the_geometric_mean(
        self, tmp_path
    ):
        ledger = DurableLedger(tmp_path / "led", floor=self.FLOOR)
        for _ in range(1080):
            ledger.charge("deep", Fraction(1, 2))
        ledger.compact()
        ledger.close()
        (row,) = burn_rows_from_dir(tmp_path / "led")
        # The mean is taken in logs, so it may land an ulp below 1/2.
        assert row.last_alpha == pytest.approx(0.5)
        assert row.remaining_charges in (19, 20)

    def test_finite_values_are_unchanged(self):
        import math

        cumulative, floor = Fraction(3, 7) ** 40, Fraction(1, 10**30)
        assert spent_fraction(cumulative, floor) == min(
            1.0, math.log(float(cumulative)) / math.log(float(floor))
        )


class TestFloorProximity:
    def test_counts_are_cumulative_in_k(self):
        book = MemoryLedgerBook(floor=Fraction(1, 16))
        for _ in range(3):
            book.charge("a", Fraction(1, 2))  # 1 left
        book.charge("b", Fraction(1, 2))  # 3 left
        counts = floor_proximity(burn_rows_from_book(book))
        assert counts == {1: 1, 2: 1, 4: 2, 8: 2}

    def test_unbounded_rows_never_counted(self):
        book = MemoryLedgerBook(floor=Fraction(0))
        book.charge("a", Fraction(1, 2))
        assert floor_proximity(burn_rows_from_book(book)) == {
            1: 0, 2: 0, 4: 0, 8: 0
        }
