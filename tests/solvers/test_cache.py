"""Tests for the persistent content-addressed solve cache."""

import json
from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.solvers.base import LinearProgram, LPSolution
from repro.solvers.cache import (
    SolveCache,
    canonical_key,
    canonical_terms,
    resolve_cache,
    set_default_cache,
)
from repro.solvers.hybrid import HybridBackend


def small_program(rhs=1):
    program = LinearProgram(2)
    program.set_objective([(0, 1), (1, Fraction(1, 3))])
    program.add_le([(0, 1), (1, 1)], rhs)
    program.add_eq([(0, 1)], Fraction(1, 2))
    return program


class TestCanonicalKey:
    def test_same_content_same_key(self):
        assert canonical_key(small_program()) == canonical_key(small_program())

    def test_rhs_changes_key(self):
        assert canonical_key(small_program(1)) != canonical_key(
            small_program(2)
        )

    def test_objective_changes_key(self):
        changed = small_program()
        changed.set_objective([(0, 2)])
        assert canonical_key(changed) != canonical_key(small_program())

    def test_exact_and_float_regimes_distinct(self):
        """``Fraction(1, 2) == 0.5`` but the programs are different."""
        exact = LinearProgram(1)
        exact.add_le([(0, Fraction(1, 2))], 1)
        floaty = LinearProgram(1)
        floaty.add_le([(0, 0.5)], 1)
        assert canonical_key(exact) != canonical_key(floaty)

    def test_variant_changes_key(self):
        program = small_program()
        assert canonical_key(program) != canonical_key(
            program, variant="refine:" + canonical_terms([(0, 1)])
        )

    def test_unserializable_coefficient_raises(self):
        program = LinearProgram(1)
        program.add_le([(0, "nonsense")], 1)
        with pytest.raises(ValidationError):
            canonical_key(program)


class TestSolveCache:
    def test_round_trip_exact_values(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        solution = LPSolution(
            values=[Fraction(1, 2), Fraction(0)],
            objective=Fraction(1, 2),
            backend="test",
        )
        cache.put(program, solution)
        fresh = SolveCache(tmp_path)  # cold in-memory layer: disk only
        loaded = fresh.get(program)
        assert loaded is not None
        assert loaded.values == solution.values
        assert all(isinstance(v, Fraction) for v in loaded.values)
        assert loaded.objective == Fraction(1, 2)
        assert loaded.backend == "test"

    def test_round_trip_float_values_lossless(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        value = 0.1 + 0.2  # not exactly representable in decimal
        cache.put(program, LPSolution([value, 0.0], value, "float"))
        loaded = SolveCache(tmp_path).get(program)
        assert loaded.values[0] == value  # bit-identical, not approximate

    def test_miss_then_hit_stats(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        assert cache.get(program) is None
        cache.put(program, LPSolution([Fraction(1)], Fraction(1), "b"))
        assert cache.get(program) is not None
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1}

    def test_get_returns_independent_copy(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        cache.put(program, LPSolution([Fraction(1)], Fraction(1), "b"))
        first = cache.get(program)
        first.values.append("mutated")
        second = cache.get(program)
        assert second.values == [Fraction(1)]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        cache.put(program, LPSolution([Fraction(1)], Fraction(1), "b"))
        [entry] = list(tmp_path.rglob("*.json"))
        entry.write_text("{not json")
        fresh = SolveCache(tmp_path)
        assert fresh.get(program) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        cache.put(program, LPSolution([Fraction(1)], Fraction(1), "b"))
        [entry] = list(tmp_path.rglob("*.json"))
        payload = json.loads(entry.read_text())
        payload["version"] = 9999
        entry.write_text(json.dumps(payload))
        assert SolveCache(tmp_path).get(program) is None

    def test_directory_created_lazily(self, tmp_path):
        target = tmp_path / "sub" / "cache"
        cache = SolveCache(target)
        assert not target.exists()  # get alone must not create it
        assert cache.get(small_program()) is None
        assert not target.exists()
        cache.put(small_program(), LPSolution([Fraction(1)], Fraction(1), "b"))
        assert target.exists()

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = SolveCache(tmp_path)
        program = small_program()
        cache.put(program, LPSolution([Fraction(1)], Fraction(1), "b"))
        cache.clear_memory()
        assert cache.get(program) is not None  # reloaded from disk

    def test_cached_solution_matches_real_solve(self, tmp_path):
        from repro.core.optimal import build_optimal_lp
        from repro.losses import AbsoluteLoss
        from repro.losses.base import loss_matrix

        program, _ = build_optimal_lp(
            3, Fraction(1, 4), loss_matrix(AbsoluteLoss(), 3), [0, 1, 2, 3]
        )
        solved = HybridBackend().solve(program)
        cache = SolveCache(tmp_path)
        cache.put(program, solved)
        loaded = SolveCache(tmp_path).get(program)
        assert loaded.values == solved.values
        assert loaded.objective == solved.objective == Fraction(168, 415)


class TestResolveCache:
    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_instance_passthrough(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert resolve_cache(cache) is cache

    def test_path_builds_cache(self, tmp_path):
        resolved = resolve_cache(tmp_path / "store")
        assert isinstance(resolved, SolveCache)

    def test_default_from_environment(self, tmp_path, monkeypatch):
        # The autouse conftest fixture leaves the default unresolved.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        resolved = resolve_cache(None)
        assert isinstance(resolved, SolveCache)
        assert resolved.path == tmp_path

    def test_set_default_cache(self, tmp_path):
        set_default_cache(tmp_path)
        assert resolve_cache(None).path == tmp_path
        set_default_cache(None)
        assert resolve_cache(None) is None
