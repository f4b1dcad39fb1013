"""Tests for the serving micro-batcher."""

import asyncio

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serving.batching import MicroBatcher


class Recorder:
    """An executor that records every tick it is handed."""

    def __init__(self, fail=None):
        self.ticks = []
        self.fail = fail

    def __call__(self, tables, rows):
        if self.fail is not None:
            raise self.fail
        self.ticks.append((tables.copy(), rows.copy()))
        # Deterministic output: value = 10*table + row.
        return tables * 10 + rows


def run(coro):
    return asyncio.run(coro)


class TestValidation:
    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            MicroBatcher(Recorder(), window=-0.001)

    def test_zero_max_size_rejected(self):
        with pytest.raises(ValidationError):
            MicroBatcher(Recorder(), max_size=0)


class TestFlushTriggers:
    def test_empty_flush_is_a_noop(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder)
        batcher.flush()
        assert recorder.ticks == []
        assert batcher.stats["batches"] == 0

    def test_single_query_deadline_flush(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.001, max_size=100)

        async def go():
            return await batcher.submit(0, 3)

        assert run(go()) == 3
        assert batcher.stats["deadline_flushes"] == 1
        assert batcher.stats["size_flushes"] == 0
        assert len(recorder.ticks) == 1

    def test_size_bound_flushes_without_waiting(self):
        recorder = Recorder()
        # A window far too long to ever fire in this test: if the size
        # bound did not flush, the gather below would time out.
        batcher = MicroBatcher(recorder, window=60.0, max_size=4)

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(0, r) for r in range(4)]),
                timeout=5.0,
            )

        assert run(go()) == [0, 1, 2, 3]
        assert batcher.stats["size_flushes"] == 1
        assert batcher.stats["max_batch"] == 4

    def test_window_zero_is_unbatched(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.0, max_size=100)

        async def go():
            return [await batcher.submit(0, r) for r in range(3)]

        assert run(go()) == [0, 1, 2]
        # Every query was its own tick.
        assert batcher.stats["batches"] == 3
        assert all(len(t) == 1 for t, _ in recorder.ticks)

    def test_mixed_deployments_fuse_into_one_tick(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.005, max_size=100)

        async def go():
            return await asyncio.gather(
                batcher.submit(0, 1),
                batcher.submit(2, 5),
                batcher.submit(1, 0),
            )

        assert run(go()) == [1, 25, 10]
        assert len(recorder.ticks) == 1
        tables, rows = recorder.ticks[0]
        assert tables.tolist() == [0, 2, 1]
        assert rows.tolist() == [1, 5, 0]
        assert tables.dtype == np.int64


class TestFailureModes:
    def test_executor_exception_fails_the_whole_batch(self):
        boom = RuntimeError("sampler exploded")
        batcher = MicroBatcher(Recorder(fail=boom), window=0.001)

        async def go():
            results = await asyncio.gather(
                batcher.submit(0, 1),
                batcher.submit(0, 2),
                return_exceptions=True,
            )
            return results

        results = run(go())
        assert all(r is boom for r in results)

    def test_close_fails_pending_queries(self):
        batcher = MicroBatcher(Recorder(), window=60.0, max_size=100)

        async def go():
            task = asyncio.ensure_future(batcher.submit(0, 1))
            await asyncio.sleep(0)  # let the submit park
            assert batcher.pending == 1
            batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await task

        run(go())
        assert batcher.pending == 0

    def test_cancelled_caller_does_not_poison_the_batch(self):
        recorder = Recorder()
        batcher = MicroBatcher(recorder, window=0.005, max_size=100)

        async def go():
            doomed = asyncio.ensure_future(batcher.submit(0, 1))
            survivor = asyncio.ensure_future(batcher.submit(0, 2))
            await asyncio.sleep(0)
            doomed.cancel()
            return await survivor

        assert run(go()) == 2
        # The cancelled slot was still part of the fused gather.
        assert len(recorder.ticks[0][0]) == 2


class TestStats:
    def test_counts_accumulate(self):
        batcher = MicroBatcher(Recorder(), window=0.001, max_size=2)

        async def go():
            await asyncio.gather(*[batcher.submit(0, r % 2) for r in range(4)])
            await batcher.submit(0, 0)

        run(go())
        stats = batcher.stats
        assert stats["queries"] == 5
        assert stats["size_flushes"] == 2
        assert stats["deadline_flushes"] == 1
        assert stats["batches"] == 3
        assert stats["max_batch"] == 2

    def test_batches_above_8192_count_in_the_top_bucket(self):
        """Sizes 8193-16383 count in ``"16384+"``, and the flush still
        resolves every parked future."""
        batcher = MicroBatcher(Recorder(), window=60.0, max_size=20000)

        async def go():
            parked = [
                asyncio.ensure_future(batcher.submit(0, 1))
                for _ in range(9000)
            ]
            await asyncio.sleep(0)
            batcher.flush()
            return await asyncio.gather(*parked)

        assert run(go()) == [1] * 9000
        occupancy = batcher.stats["occupancy"]
        assert occupancy["16384+"] == 1
        assert sum(occupancy.values()) == batcher.stats["batches"] == 1
