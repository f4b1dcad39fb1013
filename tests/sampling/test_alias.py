"""Tests for exact Walker/Vose alias tables and the row samplers."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.geometric import cached_geometric_mechanism, geometric_matrix
from repro.exceptions import ValidationError
from repro.sampling.alias import (
    AliasTable,
    HeterogeneousAliasSampler,
    RowAliasSampler,
)
from repro.sampling.geometric import two_sided_geometric_pmf


class TestAliasTableConstruction:
    def test_exact_reconstruction_bit_for_bit(self):
        pmf = [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
        table = AliasTable(pmf)
        assert table.exact_thresholds is not None
        assert table.cell_probabilities() == pmf

    def test_exact_reconstruction_geometric_rows(self):
        """Every row of G_{n,alpha} is encoded exactly, caps included."""
        for n, alpha in [(4, Fraction(1, 3)), (9, Fraction(2, 3))]:
            matrix = geometric_matrix(n, alpha)
            for i in range(n + 1):
                row = list(matrix[i])
                reconstructed = AliasTable(row).cell_probabilities()
                assert reconstructed == row
                # Interior cells follow the unbounded two-sided law; the
                # boundary cells fold its tails (Definition 4).
                for r in range(1, n):
                    assert reconstructed[r] == two_sided_geometric_pmf(
                        alpha, r - i
                    )
                for r in (0, n):
                    assert (
                        reconstructed[r]
                        == alpha ** abs(r - i) / (1 + alpha)
                    )

    def test_tail_cap_mass_accounts_for_whole_line(self):
        """Cap cells hold exactly the mass clipped from outside [0, n]."""
        n, alpha = 5, Fraction(1, 4)
        row = list(geometric_matrix(n, alpha)[2])
        reconstructed = AliasTable(row).cell_probabilities()
        low_tail = sum(
            two_sided_geometric_pmf(alpha, z - 2) for z in range(-40, 1)
        )
        low_exact = alpha**2 / (1 + alpha)
        assert abs(low_tail - low_exact) < Fraction(1, 10**20)
        assert reconstructed[0] == low_exact
        assert sum(reconstructed) == 1

    def test_float_regime_has_no_exact_thresholds(self):
        table = AliasTable([0.25, 0.25, 0.5])
        assert table.exact_thresholds is None
        with pytest.raises(ValidationError):
            table.cell_probabilities()

    def test_degenerate_point_mass(self):
        table = AliasTable([Fraction(0), Fraction(1), Fraction(0)])
        assert table.cell_probabilities() == [0, 1, 0]
        draws = table.sample(np.random.default_rng(0), 500)
        assert (draws == 1).all()

    def test_single_outcome(self):
        table = AliasTable([Fraction(1)])
        assert table.sample(np.random.default_rng(0)) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            AliasTable([])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            AliasTable([Fraction(3, 2), Fraction(-1, 2)])

    def test_rejects_exact_mass_off_one(self):
        with pytest.raises(ValidationError):
            AliasTable([Fraction(1, 2), Fraction(1, 3)])

    def test_rejects_float_mass_off_one(self):
        with pytest.raises(ValidationError):
            AliasTable([0.5, 0.2])

    def test_float_mass_tolerance_is_check_row_stochastic_rule(self):
        # |total - 1| <= max(ATOL, ATOL * K): 9e-6 off is refused (a
        # relative 1e-5 tolerance used to renormalize it silently) ...
        with pytest.raises(ValidationError, match="sum to 1"):
            AliasTable([0.5, 0.500009])
        # ... while float rounding within the rule still builds.
        assert AliasTable([0.5, 0.5 + 5e-10]).size == 2

    def test_sample_range_and_reproducibility(self):
        table = AliasTable(list(geometric_matrix(6, Fraction(1, 2))[3]))
        a = table.sample(np.random.default_rng(42), 2000)
        b = table.sample(np.random.default_rng(42), 2000)
        assert (a == b).all()
        assert a.min() >= 0 and a.max() <= 6

    def test_negative_sample_size_rejected(self):
        table = AliasTable([Fraction(1)])
        with pytest.raises(ValidationError):
            table.sample(np.random.default_rng(0), -1)


class TestFromParts:
    def test_roundtrip_preserves_exact_content(self):
        original = AliasTable(list(geometric_matrix(5, Fraction(1, 3))[2]))
        rebuilt = AliasTable.from_parts(
            original.exact_thresholds, list(original.alias)
        )
        assert rebuilt.cell_probabilities() == (
            original.cell_probabilities()
        )

    def test_rejects_out_of_range_threshold(self):
        with pytest.raises(ValidationError):
            AliasTable.from_parts([Fraction(3, 2)], [0])

    def test_rejects_out_of_range_alias(self):
        with pytest.raises(ValidationError):
            AliasTable.from_parts([Fraction(1), Fraction(1)], [0, 5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            AliasTable.from_parts([Fraction(1)], [0, 0])


class TestRowAliasSampler:
    def test_from_matrix_exact(self):
        sampler = RowAliasSampler.from_matrix(
            geometric_matrix(4, Fraction(1, 3))
        )
        assert sampler.is_exact()
        assert sampler.n == 4 and sampler.size == 5

    def test_batch_matches_per_row_distribution(self):
        n, alpha = 6, Fraction(1, 2)
        matrix = geometric_matrix(n, alpha)
        sampler = RowAliasSampler.from_matrix(matrix)
        rng = np.random.default_rng(3)
        rows = np.full(200_000, 2, dtype=np.int64)
        draws = sampler.sample(rows, rng)
        freq = np.bincount(draws, minlength=n + 1) / rows.size
        expected = [float(p) for p in matrix[2]]
        assert np.allclose(freq, expected, atol=0.01)

    def test_chi_square_smoke(self):
        """Seeded goodness-of-fit of alias draws against the exact pmf."""
        n, alpha = 7, Fraction(1, 3)
        matrix = geometric_matrix(n, alpha)
        sampler = RowAliasSampler.from_matrix(matrix)
        rng = np.random.default_rng(99)
        total = 150_000
        for i in (0, 3, n):
            draws = sampler.sample(
                np.full(total, i, dtype=np.int64), rng
            )
            observed = np.bincount(draws, minlength=n + 1)
            expected = np.array([float(p) for p in matrix[i]]) * total
            chi2 = ((observed - expected) ** 2 / expected).sum()
            # dof = n; this limit sits ~10 sigma out (p < 1e-6).
            assert chi2 < n + 10.0 * np.sqrt(2.0 * n)

    def test_heterogeneous_rows_one_tick(self):
        n, alpha = 5, Fraction(1, 4)
        sampler = RowAliasSampler.from_matrix(geometric_matrix(n, alpha))
        rows = np.array([0, 5, 2, 3, 1, 4], dtype=np.int64)
        draws = sampler.sample(rows, np.random.default_rng(1))
        assert draws.shape == rows.shape
        assert draws.min() >= 0 and draws.max() <= n

    def test_rejects_out_of_range_rows(self):
        sampler = RowAliasSampler.from_matrix(
            geometric_matrix(3, Fraction(1, 2))
        )
        with pytest.raises(ValidationError):
            sampler.sample(np.array([4]), np.random.default_rng(0))
        with pytest.raises(ValidationError):
            sampler.sample(np.array([-1]), np.random.default_rng(0))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            RowAliasSampler.from_matrix(np.ones((2, 3)) / 3)

    def test_empty_batch(self):
        sampler = RowAliasSampler.from_matrix(
            geometric_matrix(3, Fraction(1, 2))
        )
        draws = sampler.sample(
            np.empty(0, dtype=np.int64), np.random.default_rng(0)
        )
        assert draws.size == 0


class TestHeterogeneousSampler:
    def _fused(self):
        return HeterogeneousAliasSampler(
            [
                cached_geometric_mechanism(3, Fraction(1, 3)).sampler(),
                cached_geometric_mechanism(8, Fraction(1, 2)).sampler(),
            ]
        )

    def test_mixed_tables_stay_in_range(self):
        fused = self._fused()
        tables = np.array([0, 1, 0, 1, 1], dtype=np.int64)
        rows = np.array([3, 8, 0, 4, 7], dtype=np.int64)
        draws = fused.sample(tables, rows, np.random.default_rng(5))
        limits = np.array([3, 8])[tables]
        assert (draws >= 0).all() and (draws <= limits).all()

    def test_matches_single_sampler_distribution(self):
        fused = self._fused()
        total = 120_000
        tables = np.zeros(total, dtype=np.int64)
        rows = np.full(total, 1, dtype=np.int64)
        draws = fused.sample(tables, rows, np.random.default_rng(8))
        freq = np.bincount(draws, minlength=4) / total
        expected = [
            float(p) for p in geometric_matrix(3, Fraction(1, 3))[1]
        ]
        assert np.allclose(freq, expected, atol=0.01)

    def test_rejects_row_outside_its_table(self):
        fused = self._fused()
        with pytest.raises(ValidationError):
            fused.sample(
                np.array([0]), np.array([8]), np.random.default_rng(0)
            )

    def test_rejects_bad_table_index(self):
        fused = self._fused()
        with pytest.raises(ValidationError):
            fused.sample(
                np.array([2]), np.array([0]), np.random.default_rng(0)
            )

    def test_empty_batch(self):
        fused = self._fused()
        out = fused.sample(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.random.default_rng(0),
        )
        assert out.size == 0

    def test_rejects_empty_sampler_list(self):
        with pytest.raises(ValidationError):
            HeterogeneousAliasSampler([])

