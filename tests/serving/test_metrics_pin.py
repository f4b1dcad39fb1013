"""Pins what ``GET /metrics`` reports after one scripted run.

One in-process sequence on a WAL book touches every counted path the
server tallies: publishes, a 429 past the floor, a shed under
``queue_depth``, a micro-batch flush for each reason, a compaction and
an audit sweep. The JSON view's key tree and counts, and the Prometheus
exposition's series and counter values, must come out exactly as
pinned here. Timings are not pinned; histogram observation counts are.
"""

import asyncio
import re
from fractions import Fraction

import pytest

from repro.obs import MetricsRegistry, set_default_registry
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.serving import MechanismServer

_SERIES = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _payload(user, row=3):
    return {"user": user, "n": 8, "alpha": "1/2", "true_result": row}


async def _script(server):
    """Every step, in order; returns the statuses seen."""
    statuses = []

    async def publish(user):
        status, _ = await server.publish(_payload(user))
        statuses.append(status)

    async def parked(users, reason):
        tasks = [asyncio.ensure_future(publish(user)) for user in users]
        await asyncio.sleep(0)  # every task charges and parks
        server.batcher.flush(reason)
        await asyncio.gather(*tasks)

    await publish("a")  # a deadline flush of one
    # The third publish fills the batch (max_size) and completes; the
    # fifth finds queue_depth publishes in flight and is shed.
    await asyncio.gather(*(publish(u) for u in ("b", "c", "d", "e", "s")))
    for _ in range(4):  # "floor" reaches 1/8, then a 429
        await publish("floor")
    await parked(("f", "g"), "manual")
    await asyncio.gather(publish("h"), publish("i"))  # a deadline flush of two
    await parked(("k",), "close")
    server.ledgers.compact()
    server.audit()
    return statuses


def _exposition(text):
    """``{family: {label tuple: value}}`` from the sample lines, and
    the families named by ``# TYPE`` lines."""
    series: dict = {}
    typed = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if not line or line.startswith("#"):
            continue
        name, labels, value = _SERIES.match(line).groups()
        pairs = tuple(_LABEL.findall(labels or ""))
        series.setdefault(name, {})[pairs] = float(value)
    return series, typed


def _key_tree(value):
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_key_tree(item) for item in value]
    return None


@pytest.fixture()
def scripted(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))
    previous = set_default_registry(MetricsRegistry())
    try:
        server = MechanismServer(
            store, ledger_dir=tmp_path / "ledger", ledger_fsync="group",
            floor=Fraction(1, 8), batch_window=0.05, batch_max=3,
            queue_depth=3, audit_rate=1.0, audit_every=0, audit_seed=1,
            seed=7,
        )
        server.load_store()

        async def go():
            statuses = await _script(server)
            _, body = await server.handle_request("GET", "/metrics")
            _, prom = await server.handle_request(
                "GET", "/metrics?format=prometheus"
            )
            await server.stop()
            return statuses, body, prom["__raw__"]

        yield asyncio.run(go())
    finally:
        set_default_registry(previous)


#: The families the exposition types: the server's own, plus the two
#: artifact histograms loading wrote to the process-default registry.
FAMILIES = {
    "repro_artifact_load_seconds", "repro_artifact_verify_seconds",
    "repro_audit_findings_total", "repro_batch_flush_seconds",
    "repro_batch_flushes_total", "repro_batch_size",
    "repro_budget_users_near_floor", "repro_deployment_epsilon_spent",
    "repro_ledger_charges_total", "repro_ledger_compactions_total",
    "repro_publish_latency_seconds", "repro_requests_total",
    "repro_sampler_gather_seconds", "repro_serving_admission_inflight",
    "repro_serving_brownout_active", "repro_serving_brownout_skips_total",
    "repro_serving_degraded_deployments",
    "repro_serving_degraded_responses_total", "repro_serving_shed_total",
    "repro_serving_worker_ready", "repro_user_spent_fraction",
    "repro_wal_append_seconds", "repro_wal_breaker_open",
    "repro_wal_breaker_trips_total", "repro_wal_fsync_seconds",
    "repro_wal_journal_bytes",
}

_KEY = (("key", "cf3f87103d99"),)
_THIRD = 0.33333333333333337

#: Every series that is not a timing, with its value: counters, gauges,
#: and each histogram's observation count. Batch sizes are counts too,
#: so their buckets and sum are pinned.
VALUES = {
    ("repro_artifact_load_seconds_count", ()): 1.0,
    ("repro_artifact_verify_seconds_count", ()): 1.0,
    ("repro_audit_findings_total", (("flagged", "false"),)): 1.0,
    ("repro_batch_flush_seconds_count", ()): 9.0,
    ("repro_batch_flushes_total", (("reason", "close"),)): 1.0,
    ("repro_batch_flushes_total", (("reason", "deadline"),)): 6.0,
    ("repro_batch_flushes_total", (("reason", "manual"),)): 1.0,
    ("repro_batch_flushes_total", (("reason", "max_size"),)): 1.0,
    **{
        ("repro_batch_size_bucket", (("le", str(1 << i)),)):
            (6.0, 8.0)[i] if i < 2 else 9.0
        for i in range(15)
    },
    ("repro_batch_size_bucket", (("le", "+Inf"),)): 9.0,
    ("repro_batch_size_count", ()): 9.0,
    ("repro_batch_size_sum", ()): 13.0,
    ("repro_budget_users_near_floor", (("within", "1"),)): 1.0,
    ("repro_budget_users_near_floor", (("within", "2"),)): 11.0,
    ("repro_budget_users_near_floor", (("within", "4"),)): 11.0,
    ("repro_budget_users_near_floor", (("within", "8"),)): 11.0,
    ("repro_deployment_epsilon_spent", _KEY): 9.010913347279288,
    ("repro_ledger_charges_total", (("outcome", "charged"),)): 13.0,
    ("repro_ledger_charges_total", (("outcome", "rejected"),)): 1.0,
    ("repro_ledger_compactions_total", ()): 1.0,
    ("repro_publish_latency_seconds_count", _KEY): 13.0,
    ("repro_requests_total", (("route", "metrics"), ("status", "200"))): 1.0,
    ("repro_requests_total", (("route", "publish"), ("status", "200"))): 13.0,
    ("repro_requests_total", (("route", "publish"), ("status", "429"))): 2.0,
    ("repro_sampler_gather_seconds_count", ()): 9.0,
    ("repro_serving_admission_inflight", ()): 0.0,
    ("repro_serving_brownout_active", ()): 0.0,
    ("repro_serving_shed_total", (("reason", "queue_full"),)): 1.0,
    ("repro_serving_worker_ready", ()): 1.0,
    **{
        ("repro_user_spent_fraction", (("user", user),)): _THIRD
        for user in "abcdefghi"
    },
    ("repro_user_spent_fraction", (("user", "floor"),)): 1.0,
    ("repro_wal_append_seconds_count", ()): 13.0,
    ("repro_wal_breaker_open", ()): 0.0,
    ("repro_wal_fsync_seconds_count", (("mode", "group"),)): 9.0,
    ("repro_wal_journal_bytes", ()): 0.0,
}

#: The timing histograms, by the label values of their series.
TIMED = {
    "repro_artifact_load_seconds": {()},
    "repro_artifact_verify_seconds": {()},
    "repro_batch_flush_seconds": {()},
    "repro_publish_latency_seconds": {_KEY},
    "repro_sampler_gather_seconds": {()},
    "repro_wal_append_seconds": {()},
    "repro_wal_fsync_seconds": {(("mode", "group"),)},
}

JSON_METRICS = {
    "requests": 14, "published": 13, "replayed": 0, "rejected_budget": 1,
    "not_found": 0, "bad_request": 0, "quarantined_requests": 0,
    "shed": 1, "degraded": 0, "breaker_rejected": 0, "brownout_skips": 0,
    "ledger_unavailable": 0, "errors": 0, "audit_recorded": 13,
    "audit_sweeps": 1, "audit_flagged": 0,
}


def test_the_script_takes_every_counted_path(scripted):
    statuses, _, _ = scripted
    assert sorted(statuses) == [200] * 13 + [429] * 2


def test_json_metrics_key_tree_and_counts(scripted):
    _, body, _ = scripted
    assert _key_tree(body) == {
        "metrics": dict.fromkeys(JSON_METRICS),
        "batcher": {
            "queries": None, "batches": None, "size_flushes": None,
            "deadline_flushes": None, "max_batch": None,
            "peak_pending": None,
            "flush_reasons": dict.fromkeys(
                ("max_size", "deadline", "manual", "close")
            ),
            "occupancy": dict.fromkeys(
                [str(1 << i) for i in range(14)] + ["16384+"]
            ),
        },
        "admission": dict.fromkeys((
            "capacity", "shed_deadline_s", "inflight", "service_ewma_ms",
            "estimated_wait_ms", "brownout", "admitted", "shed_queue_full",
            "shed_deadline", "peak_inflight", "brownouts",
        )),
        "breaker": dict.fromkeys((
            "state", "policy", "trips", "recoveries", "reason",
            "open_seconds",
        )),
        "audit": {
            "rate": None, "samples": None,
            "findings": [dict.fromkeys((
                "key", "kind", "samples", "sufficient", "statistic",
                "limit", "flagged",
            ))],
        },
        "ledger": dict.fromkeys((
            "backend", "path", "fsync", "users", "seq", "snapshot_seq",
            "journal_bytes", "replay_entries", "fsyncs", "compactions",
            "last_fsync_ms", "failed", "unjournaled_users",
        )),
        "users": None,
    }
    assert body["metrics"] == JSON_METRICS
    batcher = body["batcher"]
    assert {
        key: value for key, value in batcher.items()
        if not isinstance(value, dict)
    } == {
        "queries": 13, "batches": 9, "size_flushes": 1,
        "deadline_flushes": 6, "max_batch": 3, "peak_pending": 3,
    }
    assert batcher["flush_reasons"] == {
        "max_size": 1, "deadline": 6, "manual": 1, "close": 1,
    }
    assert {k: v for k, v in batcher["occupancy"].items() if v} == {
        "1": 6, "2": 2, "4": 1,
    }
    admission = body["admission"]
    assert (admission["admitted"], admission["shed_queue_full"]) == (14, 1)
    assert body["audit"]["samples"] == 13
    assert body["ledger"]["compactions"] == 1
    assert body["users"] == 11


def test_prometheus_series_and_counters(scripted):
    _, _, text = scripted
    series, typed = _exposition(text)
    assert typed == FAMILIES
    values, timed = {}, {}
    for name, samples in series.items():
        family, _, suffix = name.rpartition("_")
        for labels, value in samples.items():
            if family in TIMED and suffix in ("bucket", "sum"):
                if suffix == "sum":
                    timed.setdefault(family, set()).add(labels)
                continue
            values[name, labels] = value
    assert values == VALUES
    assert timed == TIMED
