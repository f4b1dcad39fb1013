"""Tests for the backend-neutral LP description."""

from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.solvers.base import LinearProgram, choose_backend
from repro.solvers.hybrid import HybridBackend
from repro.solvers.scipy_backend import ScipyBackend
from repro.solvers.simplex import ExactSimplexBackend


class TestLinearProgram:
    def test_requires_positive_vars(self):
        with pytest.raises(ValidationError):
            LinearProgram(0)

    def test_rejects_out_of_range_variable(self):
        lp = LinearProgram(2)
        with pytest.raises(ValidationError):
            lp.add_le([(2, 1)], 0)

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram(2)
        lp.set_objective([(0, 0), (1, 3)])
        assert lp.objective_terms == [(1, 3)]

    def test_constraint_bookkeeping(self):
        lp = LinearProgram(3)
        lp.add_le([(0, 1)], 5)
        lp.add_eq([(1, 1), (2, 1)], 1)
        assert lp.num_constraints() == 2
        assert len(lp.le_constraints) == 1
        assert len(lp.eq_constraints) == 1

    def test_evaluate_objective(self):
        lp = LinearProgram(2)
        lp.set_objective([(0, 2), (1, Fraction(1, 2))])
        assert lp.evaluate_objective([3, 4]) == 8

    def test_copy_is_independent(self):
        lp = LinearProgram(2)
        lp.add_le([(0, 1)], 1)
        clone = lp.copy()
        clone.add_le([(1, 1)], 1)
        assert lp.num_constraints() == 1
        assert clone.num_constraints() == 2

    def test_repr(self):
        lp = LinearProgram(2)
        assert "vars=2" in repr(lp)


class TestChooseBackend:
    def test_exact_selects_certify_first_hybrid(self):
        assert isinstance(choose_backend(exact=True), HybridBackend)

    def test_float_selects_scipy(self):
        assert isinstance(choose_backend(exact=False), ScipyBackend)

    def test_huge_exact_program_routes_to_hybrid(self):
        """Large exact programs are serviceable now — no hard error."""
        lp = LinearProgram(10_000)
        lp.set_objective([(i, 1 + i % 3) for i in range(10_000)])
        lp.add_eq([(i, 1) for i in range(10_000)], 1)
        backend = choose_backend(exact=True)
        assert isinstance(backend, HybridBackend)
        assert backend.solve(lp).objective == 1


class TestConstraintViews:
    def test_views_are_cached_and_cheap(self):
        lp = LinearProgram(3)
        lp.add_le([(0, 1), (1, 2)], 5)
        first = lp.le_constraints
        assert lp.le_constraints is first  # cached, no per-access copy
        lp.add_le([(2, 1)], 1)
        assert lp.le_constraints is not first  # invalidated on mutation
        assert len(lp.le_constraints) == 2

    def test_terms_are_immutable_tuples(self):
        lp = LinearProgram(2)
        lp.add_eq([(0, 1), (1, 1)], 1)
        (terms, rhs), = lp.eq_constraints
        assert isinstance(terms, tuple)
        assert rhs == 1
        with pytest.raises(TypeError):
            terms[0] = (1, 2)

    def test_copy_shares_term_tuples_but_not_lists(self):
        lp = LinearProgram(2)
        lp.add_le([(0, 1)], 1)
        clone = lp.copy()
        assert clone.le_constraints[0][0] is lp.le_constraints[0][0]
        clone.add_le([(1, 1)], 2)
        assert lp.num_constraints() == 1

    def test_extend_blocks_skip_revalidation(self):
        lp = LinearProgram(2)
        block = ((((0, 1), (1, 1)), 1),)
        lp.extend_le(block)
        lp.extend_eq(block)
        assert lp.num_constraints() == 2
        assert lp.le_constraints[0][0] == ((0, 1), (1, 1))
