"""Certified graceful degradation: quarantined bespoke artifacts fall
back to the same-``(n, alpha)`` geometric mechanism (``--degraded``).

The theorem doing the work (Gupte–Sundararajan, Theorem 1): the
alpha-ratio geometric mechanism is universally optimal for minimax
agents, so every bespoke alpha-private artifact is a remap of it —
serving the geometric release in its place preserves privacy exactly
and loses nothing a rational consumer could not recover client-side.
Hence: only ``kind="optimal"`` degrades; a broken *geometric* artifact
has nothing below it and stays a 503.
"""

import asyncio
import json
from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.release.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    _payload_digest,
)
from repro.serving import (
    InProcessClient,
    MechanismServer,
    fallback_spec,
    resolve_fallbacks,
)

HALF = Fraction(1, 2)
OPTIMAL = ArtifactSpec("optimal", 4, HALF, loss="absolute")
GEOMETRIC = ArtifactSpec("geometric", 4, HALF)


def tamper(store, spec):
    """Corrupt a stored artifact so it loads but fails verification."""
    entry = store._entry_path(spec.key())
    payload = json.loads(entry.read_text())
    kernel = payload["kernel"]
    kernel[0][0], kernel[0][1] = kernel[0][1], kernel[0][0]
    payload["digest"] = _payload_digest(payload)
    entry.write_text(json.dumps(payload))


@pytest.fixture()
def store(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.get_or_compile(GEOMETRIC)
    store.get_or_compile(OPTIMAL)
    return store


def make_server(store, **kwargs):
    kwargs.setdefault("audit_rate", 0.0)
    kwargs.setdefault("seed", 11)
    server = MechanismServer(store, **kwargs)
    server.load_store()
    return server


def run(coro):
    return asyncio.run(coro)


class TestFallbackSpec:
    def test_optimal_degrades_to_same_n_alpha_geometric(self):
        target = fallback_spec(OPTIMAL)
        assert target == GEOMETRIC

    def test_geometric_has_no_fallback(self):
        assert fallback_spec(GEOMETRIC) is None

    def test_unknown_degraded_mode_is_rejected(self, store):
        with pytest.raises(ValidationError, match="degraded"):
            MechanismServer(store, degraded="best-effort")


class TestDegradedServing:
    def test_default_mode_keeps_quarantine_503(self, store):
        tamper(store, OPTIMAL)
        server = make_server(store)  # --degraded=503 (the default)
        client = InProcessClient(server)

        async def go():
            status, body = await client.publish(
                user="u", n=4, alpha="1/2", true_result=1,
                kind="optimal", loss="absolute",
            )
            await server.stop()
            return status, body

        status, body = run(go())
        assert status == 503
        assert "quarantined" in body["error"]

    def test_quarantined_optimal_serves_degraded_geometric(self, store):
        tamper(store, OPTIMAL)
        server = make_server(store, degraded="geometric")
        assert len(server.quarantined) == 1
        entry = next(iter(server._quarantined.values()))
        assert entry["fallback_key"] == GEOMETRIC.key()
        client = InProcessClient(server)

        async def go():
            status, body = await client.publish(
                user="u", n=4, alpha="1/2", true_result=1,
                kind="optimal", loss="absolute",
            )
            _, listing = await client.get("/artifacts")
            _, metrics = await client.get("/metrics")
            await server.stop()
            return status, body, listing, metrics

        status, body, listing, metrics = run(go())
        assert status == 200
        # Loud degradation: the response names both mechanisms.
        assert body["degraded"] == "geometric"
        assert body["requested_key"] == OPTIMAL.key()[:12]
        assert body["key"] == GEOMETRIC.key()[:12]
        assert 0 <= body["value"] <= 4
        # The ledger charged the same alpha — floor maths unchanged.
        assert body["alpha"] == "1/2"
        assert body["cumulative_alpha"] == "1/2"
        assert listing["quarantined"][0]["degraded_to"] == (
            GEOMETRIC.key()[:12]
        )
        assert metrics["metrics"]["degraded"] == 1

    def test_fallback_is_compiled_when_missing(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        store.get_or_compile(OPTIMAL)
        tamper(store, OPTIMAL)
        # No geometric artifact anywhere: the resolver compiles one
        # (closed-form, zero LP solves) and verifies it at load.
        server = make_server(store, degraded="geometric")
        assert [d.spec for d in server.deployments] == [GEOMETRIC]
        client = InProcessClient(server)

        async def go():
            status, body = await client.publish(
                user="u", n=4, alpha="1/2", true_result=2,
                kind="optimal", loss="absolute",
            )
            await server.stop()
            return status, body

        status, body = run(go())
        assert status == 200
        assert body["degraded"] == "geometric"

    def test_quarantined_geometric_never_degrades(self, store):
        tamper(store, GEOMETRIC)
        server = make_server(store, degraded="geometric")
        assert resolve_fallbacks(server) == 0
        client = InProcessClient(server)

        async def go():
            status, body = await client.publish(
                user="u", n=4, alpha="1/2", true_result=1
            )
            await server.stop()
            return status, body

        status, body = run(go())
        assert status == 503
        assert "quarantined" in body["error"]

    def test_resolve_is_idempotent(self, store):
        tamper(store, OPTIMAL)
        server = make_server(store, degraded="geometric")
        assert resolve_fallbacks(server) == 1  # already attached
        assert len(server.deployments) == 1

    def test_degraded_responses_pass_the_online_audit(self, store):
        """The auditor replays degraded traffic against the *geometric*
        law — the certificate that the fallback serves exactly what it
        claims to."""
        tamper(store, OPTIMAL)
        server = make_server(
            store, degraded="geometric", audit_rate=1.0, audit_every=0,
        )
        client = InProcessClient(server)

        async def go():
            for i in range(300):
                status, body = await client.publish(
                    user=f"u{i}", n=4, alpha="1/2", true_result=1,
                    kind="optimal", loss="absolute",
                )
                assert status == 200
                assert body["degraded"] == "geometric"
            findings = server.audit()
            await server.stop()
            return findings

        findings = run(go())
        assert server.auditor.samples > 0
        assert not any(f.flagged for f in findings)
