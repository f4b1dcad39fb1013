"""Backend-neutral linear-program description.

The canonical form used throughout the library:

.. math::

   \\min c^T z \\quad \\text{s.t.} \\quad
   A_{ub} z \\le b_{ub}, \\; A_{eq} z = b_{eq}, \\; z \\ge 0.

All decision variables are non-negative — the paper's LPs (mechanism
entries, kernel entries, and the worst-case-loss epigraph variable) are
naturally so. Constraints are stored sparsely as ``(variable, coeff)``
term lists, which all backends consume directly.

Term lists are immutable tuples and the constraint accessors return
cached views, so the hot backends (which walk every constraint on each
solve) never pay a deep copy, and prebuilt constraint blocks — e.g. the
privacy/stochasticity rows shared by every Section 2.5 LP with the same
``(n, alpha)`` — can be appended wholesale via :meth:`LinearProgram.extend_le`
/ :meth:`LinearProgram.extend_eq` without re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exceptions import ValidationError

__all__ = ["LinearTerm", "LinearProgram", "LPSolution", "choose_backend"]

#: A single ``coeff * variable`` term: ``(variable_index, coefficient)``.
LinearTerm = tuple[int, object]


@dataclass
class _Constraint:
    terms: tuple[LinearTerm, ...]
    rhs: object


@dataclass
class LPSolution:
    """Result of an LP solve.

    Attributes
    ----------
    values:
        Optimal variable assignment (list, Fractions for the exact
        backends, floats for scipy).
    objective:
        Optimal objective value.
    backend:
        Name of the backend that produced the solution.
    """

    values: list
    objective: object
    backend: str

    def value(self, index: int):
        """Return the optimal value of variable ``index``."""
        return self.values[index]


class LinearProgram:
    """A minimization LP over non-negative variables.

    Build incrementally::

        lp = LinearProgram(num_vars=3)
        lp.set_objective([(0, 1), (2, 5)])        # minimize z0 + 5 z2
        lp.add_le([(0, 1), (1, 1)], 1)            # z0 + z1 <= 1
        lp.add_eq([(1, 2), (2, -1)], 0)           # 2 z1 - z2 == 0
    """

    def __init__(self, num_vars: int) -> None:
        if num_vars < 1:
            raise ValidationError(f"num_vars must be >= 1, got {num_vars}")
        self.num_vars = int(num_vars)
        self._objective: tuple[LinearTerm, ...] = ()
        self._le: list[_Constraint] = []
        self._eq: list[_Constraint] = []
        self._le_view: tuple | None = ()
        self._eq_view: tuple | None = ()

    # ------------------------------------------------------------------
    def _check_terms(self, terms) -> tuple[LinearTerm, ...]:
        cleaned: list[LinearTerm] = []
        for variable, coeff in terms:
            if not 0 <= int(variable) < self.num_vars:
                raise ValidationError(
                    f"variable index {variable} out of range "
                    f"[0, {self.num_vars})"
                )
            if coeff != 0:
                cleaned.append((int(variable), coeff))
        return tuple(cleaned)

    def set_objective(self, terms) -> None:
        """Set the (sparse) objective ``min sum coeff * z[var]``."""
        self._objective = self._check_terms(terms)

    def add_le(self, terms, rhs) -> None:
        """Add an inequality ``sum coeff * z[var] <= rhs``."""
        self._le.append(_Constraint(self._check_terms(terms), rhs))
        self._le_view = None

    def add_eq(self, terms, rhs) -> None:
        """Add an equality ``sum coeff * z[var] == rhs``."""
        self._eq.append(_Constraint(self._check_terms(terms), rhs))
        self._eq_view = None

    def extend_le(self, constraints) -> None:
        """Append prebuilt ``(terms, rhs)`` inequality pairs.

        Skips per-term validation: intended for constraint blocks built
        once by this library and shared across many programs (e.g. the
        privacy rows of the Section 2.5 LP, identical for every consumer
        at the same ``(n, alpha)``). Term lists are stored as-is, so
        callers must pass tuples of in-range ``(variable, coeff)`` pairs.
        """
        self._le.extend(
            _Constraint(tuple(terms), rhs) for terms, rhs in constraints
        )
        self._le_view = None

    def extend_eq(self, constraints) -> None:
        """Append prebuilt ``(terms, rhs)`` equality pairs (see
        :meth:`extend_le`)."""
        self._eq.extend(
            _Constraint(tuple(terms), rhs) for terms, rhs in constraints
        )
        self._eq_view = None

    # ------------------------------------------------------------------
    @property
    def objective_terms(self) -> list[LinearTerm]:
        return list(self._objective)

    @property
    def le_constraints(self) -> tuple[tuple[tuple[LinearTerm, ...], object], ...]:
        """Cached view of ``(terms, rhs)`` inequality pairs.

        Terms are immutable tuples shared with the program (no copy);
        the view is rebuilt only after a mutation.
        """
        if self._le_view is None:
            self._le_view = tuple((c.terms, c.rhs) for c in self._le)
        return self._le_view

    @property
    def eq_constraints(self) -> tuple[tuple[tuple[LinearTerm, ...], object], ...]:
        """Cached view of ``(terms, rhs)`` equality pairs (no copy)."""
        if self._eq_view is None:
            self._eq_view = tuple((c.terms, c.rhs) for c in self._eq)
        return self._eq_view

    def num_constraints(self) -> int:
        """Total number of constraints (both kinds)."""
        return len(self._le) + len(self._eq)

    def evaluate_objective(self, values) -> object:
        """Evaluate the objective at a candidate point."""
        return sum(coeff * values[var] for var, coeff in self._objective)

    def copy(self) -> "LinearProgram":
        """Independent copy (term tuples are immutable, hence shared)."""
        clone = LinearProgram(self.num_vars)
        clone._objective = self._objective
        clone._le = [_Constraint(c.terms, c.rhs) for c in self._le]
        clone._eq = [_Constraint(c.terms, c.rhs) for c in self._eq]
        clone._le_view = self._le_view
        clone._eq_view = self._eq_view
        return clone

    def __repr__(self) -> str:
        return (
            f"<LinearProgram vars={self.num_vars} "
            f"le={len(self._le)} eq={len(self._eq)}>"
        )


def choose_backend(*, exact: bool):
    """Pick a default backend.

    ``exact=True`` selects the certify-first hybrid backend: a float
    HiGHS solve identifies the optimal basis, one fraction-free exact
    basis solve reconstructs the rational vertex, and an exact
    primal/dual certificate guards it — falling back to the integer
    fraction-free simplex only when certification fails. This services
    programs of any size.

    ``exact=False`` selects scipy/HiGHS floats.
    """
    # Imports deferred to avoid a circular import at package load.
    if exact:
        from .hybrid import HybridBackend

        return HybridBackend()
    from .scipy_backend import ScipyBackend

    return ScipyBackend()


def coerce_exact(value) -> Fraction:
    """Convert an LP coefficient to a Fraction (helper for the exact path)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise ValidationError(
        f"cannot use {value!r} as an exact LP coefficient"
    )
