"""The self-time fold and the batch-scoped flush attribution."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from perfbench.layers import FLUSH_REASONS, NAMES, Tracer, fold

ID = {name: i for i, name in enumerate(NAMES)}


def _columns(spans):
    """spans: (name, parent, request, t0, t1, size, link) tuples."""
    cols = {key: [] for key in
            ("name", "parent", "request", "t0", "t1", "size", "link")}
    for name, parent, request, t0, t1, size, link in spans:
        cols["name"].append(ID[name])
        cols["parent"].append(parent)
        cols["request"].append(request)
        cols["t0"].append(t0)
        cols["t1"].append(t1)
        cols["size"].append(size)
        cols["link"].append(link)
    return {
        "name": np.asarray(cols["name"], dtype=np.int8),
        "parent": np.asarray(cols["parent"], dtype=np.int64),
        "request": np.asarray(cols["request"], dtype=np.int64),
        "t0": np.asarray(cols["t0"], dtype=float),
        "t1": np.asarray(cols["t1"], dtype=float),
        "size": np.asarray(cols["size"], dtype=np.int64),
        "link": np.asarray(cols["link"], dtype=np.int64),
    }


DEADLINE = FLUSH_REASONS.index("deadline")

# Two publishes (requests 0 and 1) served by one flush (span 7).
SPANS = [
    ("server.publish", -1, 0, 0.0, 10.0, 0, -1),          # 0
    ("durable_ledger.charge", 0, 0, 1.0, 3.0, 1, -1),     # 1
    ("durable_ledger.fs_write", 1, 0, 1.5, 2.0, 90, -1),  # 2
    ("batching.submit", 0, 0, 3.0, 9.0, 0, 7),            # 3
    ("server.publish", -1, 1, 4.0, 11.0, 0, -1),          # 4
    ("durable_ledger.charge", 4, 1, 4.0, 5.0, 1, -1),     # 5
    ("batching.submit", 4, 1, 5.0, 10.0, 0, 7),           # 6
    ("batching.flush", -1, -1, 6.0, 8.0, 2, DEADLINE),    # 7
    ("alias.gather", 7, -1, 6.5, 7.5, 2, -1),             # 8
]


def test_self_time_subtracts_children():
    result = fold(_columns(SPANS))
    assert result.self_total["durable_ledger.charge"] == pytest.approx(
        (2.0 - 0.5) + 1.0
    )
    # publish 0: 10 - charge 2 - submit 6; publish 1: 7 - 1 - 5.
    assert result.self_total["server.publish"] == pytest.approx(2.0 + 1.0)
    assert result.self_total["batching.flush"] == pytest.approx(1.0)
    assert result.total["batching.flush"] == pytest.approx(2.0)
    assert result.calls["durable_ledger.charge"] == 2
    assert result.sizes["durable_ledger.fs_write"] == 90


def test_batch_scoped_flush_is_attributed_once():
    result = fold(_columns(SPANS))
    per = result.per_request
    assert result.publishes == 2
    assert per["wait"].tolist() == pytest.approx([3.0, 1.0])
    assert per["flush"].tolist() == pytest.approx([2.0, 2.0])
    assert per["resume"].tolist() == pytest.approx([1.0, 2.0])
    # Each request blocks on the whole flush, but the flush's time enters
    # the totals once, not once per request it served.
    assert result.calls["batching.flush"] == 1
    assert result.total["batching.flush"] == pytest.approx(2.0)
    # wait + flush + resume rebuild each submit exactly.
    assert (per["wait"] + per["flush"] + per["resume"]).tolist() == (
        pytest.approx(per["submit"].tolist())
    )
    assert result.flush_reasons == {"deadline": 1}


def test_window_keeps_spans_that_began_inside_it():
    result = fold(_columns(SPANS), window=(3.5, 100.0))
    assert result.publishes == 1
    assert result.calls["durable_ledger.charge"] == 1
    assert result.calls["batching.flush"] == 1


def test_live_tracer_links_each_submit_to_its_flush():
    from repro.serving.batching import MicroBatcher

    original = MicroBatcher.submit

    async def drive():
        batcher = MicroBatcher(lambda tables, rows: rows * 0, window=0.01)
        return await asyncio.gather(
            *(batcher.submit(0, row) for row in range(3))
        )

    with Tracer() as tracer:
        assert MicroBatcher.submit is not original
        assert asyncio.run(drive()) == [0, 0, 0]
    assert MicroBatcher.submit is original
    cols = tracer.log.columns()
    flushes = np.flatnonzero(cols["name"] == ID["batching.flush"])
    submits = np.flatnonzero(cols["name"] == ID["batching.submit"])
    assert len(flushes) == 1 and len(submits) == 3
    assert (cols["link"][submits] == flushes[0]).all()
    assert cols["size"][flushes[0]] == 3
    assert cols["link"][flushes[0]] == DEADLINE


def test_benchmark_json_matches_what_the_run_reports():
    import json
    import os

    from perfbench.inputs import SHAPES
    from perfbench.layers import PREDICTIONS
    from perfbench.run import END_TO_END, PER_LAYER

    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(SHAPES)
    end_to_end = {name for name, _ in END_TO_END} | {"none"}
    for name, targets in PREDICTIONS.items():
        assert name in dict(PER_LAYER)
        for metric, workload in targets:
            assert metric in end_to_end and workload in SHAPES
