"""Tests for compiled mechanism artifacts and their store."""

import json
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.core.geometric import geometric_matrix
from repro.db.generators import flu_population, flu_query
from repro.exceptions import ValidationError
from repro.release.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactSpec,
    ArtifactStore,
    MechanismArtifact,
    compile_artifact,
    default_artifact_store,
    resolve_artifact_store,
    set_default_artifact_store,
    verify_artifact,
)
from repro.release.publisher import Publisher
from repro.sampling.geometric import two_sided_geometric_pmf
from repro.solvers.hybrid import HybridBackend


def _database(size=5):
    return flu_population(size, size // 2)


class TestArtifactSpec:
    def test_key_is_content_addressed(self):
        a = ArtifactSpec("geometric", 5, Fraction(1, 3))
        b = ArtifactSpec("geometric", 5, Fraction(1, 3))
        c = ArtifactSpec("geometric", 5, Fraction(1, 2))
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_json_roundtrip(self):
        spec = ArtifactSpec(
            "optimal", 4, Fraction(1, 4), loss="absolute", side=(1, 3)
        )
        assert ArtifactSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ArtifactSpec("bespoke", 3, Fraction(1, 2))

    def test_rejects_unknown_loss(self):
        with pytest.raises(ValidationError):
            ArtifactSpec("optimal", 3, Fraction(1, 2), loss="hinge")

    def test_optimal_requires_loss(self):
        with pytest.raises(ValidationError):
            ArtifactSpec("optimal", 3, Fraction(1, 2))


class TestCompileAndVerify:
    def test_geometric_kernel_is_exact(self):
        artifact = compile_artifact("geometric", 5, Fraction(1, 3))
        assert (artifact.kernel == geometric_matrix(5, Fraction(1, 3))).all()
        assert artifact.certificate is None
        report = verify_artifact(artifact)
        assert report.ok
        assert "geometric-pmf-law" in report.checks
        assert "alias-tables-exact" in report.checks

    def test_tail_cap_mass_accounting(self):
        """Boundary columns hold exactly the folded unbounded tails."""
        artifact = compile_artifact("geometric", 4, Fraction(1, 4))
        alpha = Fraction(1, 4)
        for i in range(5):
            row = artifact.kernel[i]
            assert row[0] == alpha**i / (1 + alpha)
            assert row[4] == alpha ** (4 - i) / (1 + alpha)
            interior = sum(
                two_sided_geometric_pmf(alpha, r - i) for r in range(1, 4)
            )
            assert row[0] + interior + row[4] == 1

    def test_optimal_artifact_carries_replayable_certificate(self):
        artifact = compile_artifact(
            "optimal", 4, Fraction(1, 3), loss="absolute"
        )
        assert artifact.loss_value is not None
        assert artifact.certificate["objective"] == artifact.loss_value
        report = verify_artifact(artifact)
        assert report.ok
        assert "certificate-replay" in report.checks

    def test_verify_performs_zero_lp_solves(self, monkeypatch):
        artifact = compile_artifact(
            "optimal", 3, Fraction(1, 4), loss="absolute"
        )

        def forbidden(self, program):
            raise AssertionError("verification must not invoke a solver")

        monkeypatch.setattr(HybridBackend, "solve", forbidden)
        assert verify_artifact(artifact).ok

    def test_tampered_certificate_fails_verification(self):
        artifact = compile_artifact(
            "optimal", 3, Fraction(1, 3), loss="absolute"
        )
        artifact.certificate["objective"] += Fraction(1, 1000)
        report = verify_artifact(artifact)
        assert not report.ok
        assert any("objective" in f for f in report.failures)

    def test_tampered_kernel_fails_verification(self):
        artifact = compile_artifact("geometric", 3, Fraction(1, 2))
        kernel = artifact.kernel.copy()
        kernel[1, 1] += Fraction(1, 100)
        kernel[1, 2] -= Fraction(1, 100)
        tampered = MechanismArtifact(artifact.spec, kernel)
        report = verify_artifact(tampered)
        assert not report.ok
        assert any("geometric law" in f for f in report.failures)


class TestPayloadRoundtrip:
    def test_roundtrip_preserves_everything(self):
        artifact = compile_artifact(
            "optimal", 4, Fraction(1, 3), loss="absolute"
        )
        loaded = MechanismArtifact.from_payload(artifact.to_payload())
        assert loaded.spec == artifact.spec
        assert (loaded.kernel == artifact.kernel).all()
        assert loaded.loss_value == artifact.loss_value
        assert loaded.certificate == artifact.certificate
        for mine, theirs in zip(
            loaded.sampler.tables, artifact.sampler.tables
        ):
            assert mine.exact_thresholds == theirs.exact_thresholds
            assert (mine.alias == theirs.alias).all()
        assert verify_artifact(loaded).ok

    def test_corruption_is_detected(self):
        payload = compile_artifact(
            "geometric", 3, Fraction(1, 2)
        ).to_payload()
        payload["kernel"][0][0] = payload["kernel"][1][1]
        with pytest.raises(ValidationError, match="digest"):
            MechanismArtifact.from_payload(payload)

    def test_version_mismatch_is_rejected(self):
        payload = compile_artifact(
            "geometric", 3, Fraction(1, 2)
        ).to_payload()
        payload["version"] = ARTIFACT_FORMAT_VERSION + 1
        with pytest.raises(ValidationError, match="version"):
            MechanismArtifact.from_payload(payload)

    def test_structural_damage_is_rejected(self):
        payload = compile_artifact(
            "geometric", 3, Fraction(1, 2)
        ).to_payload()
        del payload["tables"]
        payload["digest"] = None
        with pytest.raises(ValidationError):
            MechanismArtifact.from_payload(payload)

    def test_json_serializable(self):
        payload = compile_artifact(
            "optimal", 3, Fraction(1, 3), loss="squared"
        ).to_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestArtifactStore:
    def test_get_or_compile_then_disk_then_memory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = ArtifactSpec("geometric", 4, Fraction(1, 3))
        first = store.get_or_compile(spec)
        assert store.stats["compiles"] == 1
        again = store.get_or_compile(spec)
        assert again is first  # memory tier
        assert store.stats["compiles"] == 1
        store.clear_memory()
        loaded = store.get_or_compile(spec)  # disk tier
        assert loaded is not first
        assert (loaded.kernel == first.kernel).all()
        assert store.stats["compiles"] == 1

    def test_verify_all_flags_corrupted_entry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = store.get_or_compile(
            ArtifactSpec("geometric", 3, Fraction(1, 2))
        )
        bad = store.get_or_compile(
            ArtifactSpec("geometric", 4, Fraction(1, 3))
        )
        path = store._entry_path(bad.key())
        payload = json.loads(path.read_text())
        payload["kernel"][0][0] = payload["kernel"][1][1]
        path.write_text(json.dumps(payload))
        store.clear_memory()
        reports = {r.key: r for r in store.verify_all()}
        assert reports[good.key()].ok
        assert not reports[bad.key()].ok
        assert any("digest" in f for f in reports[bad.key()].failures)

    def test_gc_by_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for n in (2, 3, 4, 5):
            store.get_or_compile(ArtifactSpec("geometric", n, Fraction(1, 2)))
        removed = store.gc(max_entries=2)
        assert removed == 2
        assert len(store.keys()) == 2

    def test_gc_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get_or_compile(ArtifactSpec("geometric", 3, Fraction(1, 2)))
        assert store.gc(max_age_days=1) == 0
        assert store.gc(max_age_days=0) == 1
        assert store.keys() == []

    def test_default_store_env(self, tmp_path, monkeypatch):
        # The autouse conftest fixture leaves the default unresolved.
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        store = default_artifact_store()
        assert store is not None and store.path == tmp_path
        assert resolve_artifact_store(None) is store
        assert resolve_artifact_store(False) is None
        set_default_artifact_store(None)
        assert default_artifact_store() is None

    def test_clear_caches_clears_store_memory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = ArtifactSpec("geometric", 3, Fraction(1, 2))
        first = store.get_or_compile(spec)
        repro.clear_caches()
        assert store.get_or_compile(spec) is not first


class TestPublisherFromArtifact:
    def test_zero_solve_publish_path(self, monkeypatch):
        artifact = compile_artifact("geometric", 5, Fraction(1, 4))

        def forbidden(self, program):
            raise AssertionError("publishing must not invoke a solver")

        monkeypatch.setattr(HybridBackend, "solve", forbidden)
        publisher = Publisher.from_artifact(_database(5), artifact)
        assert publisher.alpha == Fraction(1, 4)
        assert publisher.sampler is artifact.sampler
        query = flu_query()
        rng = np.random.default_rng(0)
        stats = publisher.publish_batch([query] * 64, rng)
        assert all(0 <= s.value <= 5 for s in stats)

    def test_artifact_database_size_mismatch_rejected(self):
        artifact = compile_artifact("geometric", 4, Fraction(1, 4))
        with pytest.raises(ValidationError):
            Publisher.from_artifact(_database(5), artifact)

    def test_artifact_alpha_mismatch_rejected(self):
        artifact = compile_artifact("geometric", 5, Fraction(1, 4))
        with pytest.raises(ValidationError):
            Publisher(_database(5), Fraction(1, 3), artifact=artifact)

    def test_matches_default_publisher_distribution(self):
        artifact = compile_artifact("geometric", 5, Fraction(1, 3))
        from_artifact = Publisher.from_artifact(_database(5), artifact)
        default = Publisher(_database(5), Fraction(1, 3))
        query = flu_query()
        a = from_artifact.publish_batch(
            [query] * 4000, np.random.default_rng(5)
        )
        b = default.publish_batch([query] * 4000, np.random.default_rng(5))
        assert [s.value for s in a] == [s.value for s in b]


class TestStoreLocking:
    def test_lock_files_invisible_to_keys_and_gc(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = store.get_or_compile(
            ArtifactSpec("geometric", 3, Fraction(1, 2))
        )
        lock_dir = tmp_path / ".locks"
        assert lock_dir.is_dir() and any(lock_dir.iterdir())
        assert store.keys() == [artifact.key()]
        # GC by age evicts the entry but never the lock files.
        assert store.gc(max_age_days=0) == 1
        assert store.keys() == []
        assert any(lock_dir.iterdir())

    def test_lock_is_reentrant_across_scopes(self, tmp_path):
        # put() takes the store lock while get_or_compile holds the
        # per-spec lock: distinct lock files, so no self-deadlock.
        store = ArtifactStore(tmp_path)
        spec = ArtifactSpec("geometric", 4, Fraction(1, 2))
        with store.lock(spec.key()):
            store.put(compile_artifact("geometric", 4, Fraction(1, 2)))
        assert store.get(spec) is not None

    def test_racing_threads_compile_once(self, tmp_path):
        import threading

        store = ArtifactStore(tmp_path)
        spec = ArtifactSpec("geometric", 6, Fraction(1, 3))
        compiles = []
        original = compile_artifact

        def counting_compile(*args, **kwargs):
            compiles.append(1)
            return original(*args, **kwargs)

        import repro.release.artifacts as artifacts_module

        barrier = threading.Barrier(4)
        results = []

        def worker():
            barrier.wait()
            results.append(store.get_or_compile(spec))

        try:
            artifacts_module.compile_artifact = counting_compile
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            artifacts_module.compile_artifact = original
        assert len(results) == 4
        assert all(r.key() == spec.key() for r in results)
        # The flock + post-acquire re-check collapsed the race to at
        # most one actual compile (in-memory layer may even make it 0
        # visible to some racers, but never more than 1).
        assert sum(compiles) <= 1
        assert store.get(spec) is not None
