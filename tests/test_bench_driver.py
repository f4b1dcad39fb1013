"""The serving benchmarks' shared load driver, ledger check and overhead rule.

``benchmarks/_serving.py`` is what ``bench_serving``, ``bench_durability``,
``bench_observability`` and ``bench_fleet`` measure through, so its
bookkeeping is tested here against scripted clients, a small real WAL and
synthetic paired rounds.
"""

import asyncio
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from _serving import (  # noqa: E402
    LOST,
    Load,
    check_recovered_ledger,
    drive,
    paired_overhead,
)
from bench_observability import (  # noqa: E402
    OVERHEAD_ROUNDS,
    TRACED_OVERHEAD_CEILING,
)

from repro.release.durable_ledger import DurableLedger  # noqa: E402

#: Request i is slow (20 ms) when i % SLOW == 0, and answered at once
#: otherwise.
SLOW = 5


def request(i):
    return {"user": f"u{i}", "n": 8, "alpha": "1/2", "true_result": 3}


class ScriptedClient:
    """Answers request ``i`` with ``script(i)``, raising for LOST."""

    def __init__(self, name, script, log):
        self.name, self.script, self.log = name, script, log
        self.closes = 0

    async def publish(self, *, user, n, alpha, true_result):
        i = int(user[1:])
        self.log.append((self.name, i))
        await asyncio.sleep(0.02 if i % SLOW == 0 else 0)
        status = self.script(i)
        if status == LOST:
            raise ConnectionResetError(f"request {i} lost")
        return status, {"i": i}

    async def close(self):
        self.closes += 1


def run(script, *, requests=60, concurrency=7, on_answer=None):
    log, clients = [], []

    def connect(caller):
        clients.append(ScriptedClient(caller, script, log))
        return clients[-1]

    load = asyncio.run(drive(
        connect, request, requests=requests, concurrency=concurrency,
        on_answer=on_answer,
    ))
    return load, log, clients


class TestDrive:
    def test_every_index_is_published_once_and_lands_at_its_index(self):
        load, log, clients = run(lambda i: 200 if i % 4 else 429)
        assert len(clients) == 7
        assert sorted(i for _, i in log) == list(range(60))
        assert len({name for name, _ in log}) > 1
        assert load.statuses.tolist() == [
            200 if i % 4 else 429 for i in range(60)
        ]
        slow = np.arange(60) % SLOW == 0
        assert load.latencies[slow].min() >= 0.019
        assert np.median(load.latencies[~slow]) < 0.019
        assert load.counts() == {200: 45, 429: 15}
        assert load.wall >= 0.02 and load.cpu >= 0

    def test_a_raising_publish_is_lost_and_closes_its_client(self):
        load, log, clients = run(lambda i: LOST if i == 3 else 200)
        assert load.counts() == {LOST: 1, 200: 59}
        assert load.statuses[3] == LOST
        (lost_by,) = [name for name, i in log if i == 3]
        # Dropped after the raise, and again when its caller is done;
        # the caller kept publishing after the raise.
        assert [client.closes for client in clients] == [
            2 if client.name == lost_by else 1 for client in clients
        ]
        assert sorted(i for _, i in log) == list(range(60))

    def test_the_hook_sees_every_answer_once(self):
        seen = []
        load, _, _ = run(
            lambda i: LOST if i == 7 else 200,
            on_answer=lambda i, status, body: seen.append((i, status, body)),
        )
        assert sorted(seen, key=lambda answer: answer[0]) == [
            (i, LOST, None) if i == 7 else (i, 200, {"i": i})
            for i in range(60)
        ]
        assert load.counts() == {LOST: 1, 200: 59}

    def test_row(self):
        load = Load(
            statuses=np.full(100, 200),
            latencies=np.arange(1, 101) / 1e3,
            wall=4.0,
            cpu=1.0,
        )
        row = load.row()
        assert row["requests"] == 100 and row["qps"] == 25.0
        assert row["wall_seconds"] == 4.0
        assert row["latency_p50_ms"] == pytest.approx(50.5)
        assert row["latency_p99_ms"] == pytest.approx(99.01)


class TestRecoveredLedger:
    #: Request i charges ALPHAS[i] to USERS[i].
    USERS = ["a", "a", "b"]
    ALPHAS = ["1/2", "1/4", "2/3"]

    def book(self, tmp_path, charges):
        ledger = DurableLedger(tmp_path / "ledger", Fraction(0))
        for user, alpha in charges:
            assert ledger.charge(user, Fraction(alpha)).charged
        ledger.close()
        return tmp_path / "ledger"

    def request(self, alphas):
        return lambda i: {"user": self.USERS[i], "alpha": alphas[i]}

    def load(self, statuses):
        return Load(np.array(statuses), np.zeros(len(statuses)), 1.0, 0.0)

    def test_exact_after_a_graceful_stop(self, tmp_path):
        ledger = self.book(tmp_path, zip(self.USERS, self.ALPHAS))
        report = check_recovered_ledger(
            ledger, self.load([200, 200, 200]), self.request(self.ALPHAS),
            exact=True,
        )
        assert report["acknowledged"] == report["recovered_releases"] == 3
        assert report["users_checked"] == report["recovered_users"] == 2

    def test_a_wrong_product_fails_though_the_count_matches(self, tmp_path):
        ledger = self.book(tmp_path, zip(self.USERS, self.ALPHAS))
        with pytest.raises(AssertionError, match="'b'"):
            check_recovered_ledger(
                ledger, self.load([200, 200, 200]),
                self.request(["1/2", "1/4", "1/2"]), exact=True,
            )

    def test_an_unacknowledged_charge_only_passes_the_bound(self, tmp_path):
        ledger = self.book(tmp_path, zip(self.USERS, self.ALPHAS))
        load = self.load([200, LOST, 200])
        with pytest.raises(AssertionError):
            check_recovered_ledger(
                ledger, load, self.request(self.ALPHAS), exact=True
            )
        report = check_recovered_ledger(
            ledger, load, self.request(self.ALPHAS), exact=False
        )
        assert report["acknowledged"] == 2
        assert report["recovered_releases"] == 3

    def test_a_missing_acknowledged_charge_fails_the_bound(self, tmp_path):
        ledger = self.book(tmp_path, [("a", "1/2"), ("b", "2/3")])
        with pytest.raises(AssertionError, match="'a'"):
            check_recovered_ledger(
                ledger, self.load([200, 200, 200]),
                self.request(self.ALPHAS), exact=False,
            )


def passes(instrumented, baseline):
    return paired_overhead(instrumented, baseline) <= TRACED_OVERHEAD_CEILING


class TestPairedOverhead:
    """Rounds shaped like unchanged-tree runs of the observability gate on
    a 2-core box: per-round default CPU between 51 and 101 us per request,
    traced/default ratios with median 1.035 and quartiles ~0.974-1.096."""

    rng = np.random.default_rng(26)
    baseline = rng.uniform(51, 101, OVERHEAD_ROUNDS)
    ratios = rng.permutation(
        1.035 + 0.122 * np.linspace(-1, 1, OVERHEAD_ROUNDS)
    )

    def test_an_unchanged_tree_passes(self):
        assert np.percentile(self.ratios, [25, 75]) == pytest.approx(
            [0.974, 1.096]
        )
        assert paired_overhead(
            self.baseline * self.ratios, self.baseline
        ) == pytest.approx(0.035)
        assert passes(self.baseline * self.ratios, self.baseline)

    def test_a_ten_point_cost_fails(self):
        assert not passes(
            self.baseline * (self.ratios + 0.10), self.baseline
        )

    @pytest.mark.parametrize("shift", [0.0, 0.10])
    def test_drift_between_rounds_never_changes_the_verdict(self, shift):
        traced = self.baseline * (self.ratios + shift)
        verdict = passes(traced, self.baseline)
        rng = np.random.default_rng(int(shift * 100))
        for _ in range(50):
            drift = rng.uniform(0.5, 2.0, OVERHEAD_ROUNDS)
            assert passes(traced * drift, self.baseline * drift) == verdict

    def test_the_minima_are_not_drift_free(self):
        """One quiet round moves a rule over per-mode minima: the reason
        the gate pairs rounds."""
        def minima(instrumented, baseline):
            return min(instrumented) / min(baseline) - 1

        traced = self.baseline * self.ratios
        quiet = np.ones(OVERHEAD_ROUNDS)
        quiet[np.argmax(self.ratios)] = 0.25
        assert minima(traced, self.baseline) <= TRACED_OVERHEAD_CEILING
        assert (
            minima(traced * quiet, self.baseline * quiet)
            > TRACED_OVERHEAD_CEILING
        )
        assert passes(traced * quiet, self.baseline * quiet)
