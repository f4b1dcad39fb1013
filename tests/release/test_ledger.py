"""Tests for the privacy-budget ledger."""

import math
import sys
import threading
from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.release.durable_ledger import MemoryLedgerBook
from repro.release.ledger import BudgetExceededError, PrivacyLedger


class TestConstruction:
    def test_default_no_floor(self):
        ledger = PrivacyLedger()
        assert ledger.floor == 0
        assert ledger.cumulative_alpha == 1

    def test_floor_validated(self):
        with pytest.raises(ValidationError):
            PrivacyLedger(floor=Fraction(3, 2))

    def test_floor_of_one_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyLedger(floor=1)


class TestComposition:
    def test_levels_multiply(self):
        ledger = PrivacyLedger()
        ledger.charge(Fraction(1, 2))
        ledger.charge(Fraction(1, 4))
        assert ledger.cumulative_alpha == Fraction(1, 8)

    def test_epsilons_add(self):
        ledger = PrivacyLedger()
        ledger.charge(Fraction(1, 2))
        ledger.charge(Fraction(1, 2))
        assert ledger.cumulative_epsilon == pytest.approx(2 * math.log(2))

    def test_entries_record_running_product(self):
        ledger = PrivacyLedger()
        ledger.charge(Fraction(1, 2), label="a")
        ledger.charge(Fraction(1, 3), label="b")
        assert [e.cumulative_alpha for e in ledger.entries] == [
            Fraction(1, 2),
            Fraction(1, 6),
        ]
        assert ledger.entries[1].label == "b"

    def test_len(self):
        ledger = PrivacyLedger()
        assert len(ledger) == 0
        ledger.charge(Fraction(1, 2))
        assert len(ledger) == 1


class TestEnforcement:
    def test_refuses_crossing_floor(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        with pytest.raises(BudgetExceededError):
            ledger.charge(Fraction(1, 3))
        # Refusal leaves the ledger unchanged.
        assert ledger.cumulative_alpha == Fraction(1, 2)
        assert len(ledger) == 1

    def test_exact_boundary_allowed(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        ledger.charge(Fraction(1, 2))  # exactly hits the floor
        assert ledger.cumulative_alpha == Fraction(1, 4)

    def test_can_afford(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        assert ledger.can_afford(Fraction(1, 2))
        assert not ledger.can_afford(Fraction(1, 3))

    def test_remaining_alpha(self):
        ledger = PrivacyLedger(floor=Fraction(1, 8))
        ledger.charge(Fraction(1, 2))
        assert ledger.remaining_alpha == Fraction(1, 4)

    def test_remaining_alpha_capped_at_one(self):
        ledger = PrivacyLedger(floor=Fraction(1, 2))
        ledger.charge(Fraction(2, 3))
        # floor / cumulative = 3/4 < 1; charge more and it saturates.
        assert ledger.remaining_alpha == Fraction(3, 4)

    def test_no_floor_never_refuses(self):
        ledger = PrivacyLedger()
        for _ in range(10):
            ledger.charge(Fraction(1, 2))
        assert ledger.cumulative_alpha == Fraction(1, 1024)


class TestConcurrentBook:
    """Threads racing one user's budget through ``MemoryLedgerBook``."""

    @staticmethod
    def race(book, chunks):
        outcomes = []
        barrier = threading.Barrier(len(chunks))

        def racer(chunk):
            barrier.wait()
            for alpha in chunk:
                outcomes.append((alpha, book.charge("racer", alpha).charged))

        threads = [
            threading.Thread(target=racer, args=(chunk,)) for chunk in chunks
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return outcomes

    def test_racers_never_overspend_floor(self):
        # Floor (1/2)^K admits exactly K successful alpha=1/2 charges;
        # far more racers all try at once, and the exact-arithmetic
        # accounting must admit exactly K of them no matter the
        # interleaving.
        K = 16
        book = MemoryLedgerBook(floor=Fraction(1, 2) ** K)
        # 8 threads x K attempts >> K slots
        outcomes = self.race(book, [[Fraction(1, 2)] * K] * 8)
        assert sum(charged for _, charged in outcomes) == K
        budget = book.view("racer")
        assert budget.cumulative_alpha == Fraction(1, 2) ** K
        assert budget.cumulative_alpha >= book.floor
        assert budget.releases == K

    def test_concurrent_mixed_alphas_respect_floor(self):
        book = MemoryLedgerBook(floor=Fraction(1, 64))
        alphas = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)] * 20
        outcomes = self.race(book, [alphas[i::6] for i in range(6)])
        # Whatever interleaving happened, the invariant held.
        budget = book.view("racer")
        assert budget.cumulative_alpha >= book.floor
        product = Fraction(1)
        for alpha, charged in outcomes:
            if charged:
                product *= alpha
        assert product == budget.cumulative_alpha
        assert budget.releases == sum(charged for _, charged in outcomes)


class TestReport:
    def test_report_mentions_everything(self):
        ledger = PrivacyLedger(floor=Fraction(1, 16))
        ledger.charge(Fraction(1, 2), label="flu count")
        text = ledger.report()
        assert "flu count" in text
        assert "1/2" in text
        assert "joint guarantee" in text
