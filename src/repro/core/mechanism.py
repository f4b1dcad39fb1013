"""Oblivious privacy mechanisms as row-stochastic matrices.

Section 2.2 of the paper restricts attention (without loss of generality,
see Appendix A / :mod:`repro.core.oblivious`) to *oblivious* mechanisms:
probabilistic maps from the true count ``i`` in ``N = {0..n}`` to a
published output ``r`` in ``N``. Such a mechanism is exactly an
``(n+1) x (n+1)`` row-stochastic matrix ``x`` with ``x[i, r] =
Pr[output r | true result i]``.

:class:`Mechanism` wraps such a matrix in either of two numeric regimes:

* *exact* — object-dtype numpy array of :class:`fractions.Fraction`;
  every identity in the paper can then be checked with ``==``;
* *float* — float64 array, used by the scipy LP backend and samplers.

Post-processing (the consumer interactions of Definition 3) is matrix
multiplication on the right: ``x.post_process(T)`` is the mechanism
``x @ T``.

Draws (:meth:`Mechanism.sample`, :meth:`Mechanism.sample_many`) walk the
row's alias table (:mod:`repro.sampling.alias`), which each row builds
on its first draw and keeps; the walk serves the row exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..exceptions import ValidationError
from ..linalg.rational import RationalMatrix
from ..sampling.alias import AliasTable, RowAliasSampler
from ..validation import (
    as_fraction,
    check_index,
    check_result_range,
    check_row_stochastic,
    is_exact_array,
)

__all__ = ["Mechanism"]


class Mechanism:
    """An oblivious mechanism over the result range ``{0..n}``.

    Parameters
    ----------
    matrix:
        ``(n+1) x (n+1)`` row-stochastic matrix; nested lists, numpy float
        arrays, object arrays of Fractions, or a
        :class:`~repro.linalg.rational.RationalMatrix`.
    name:
        Optional human-readable label used in reports.
    validate:
        When true (default), verify row-stochasticity on construction.

    Examples
    --------
    >>> from fractions import Fraction as F
    >>> m = Mechanism([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    >>> m.n
    1
    >>> m.probability(0, 1)
    Fraction(1, 2)
    """

    __slots__ = ("_matrix", "_exact", "name", "_tables")

    def __init__(
        self,
        matrix,
        *,
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        if isinstance(matrix, Mechanism):
            matrix = matrix._matrix
        if isinstance(matrix, RationalMatrix):
            matrix = matrix.to_numpy()
        array = np.asarray(matrix)
        if array.dtype != object:
            array = array.astype(float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValidationError(
                f"mechanism matrix must be square 2-D, got shape "
                f"{array.shape}"
            )
        if array.shape[0] < 2:
            raise ValidationError(
                "mechanism must cover at least the results {0, 1}"
            )
        self._exact = is_exact_array(array)
        if self._exact:
            normalized = np.empty(array.shape, dtype=object)
            for i in range(array.shape[0]):
                for j in range(array.shape[1]):
                    normalized[i, j] = as_fraction(array[i, j])
            array = normalized
        elif array.dtype == object:
            array = array.astype(float)
            self._exact = False
        if validate:
            check_row_stochastic(array, exact=self._exact, name="mechanism")
        self._matrix = array
        self.name = name
        self._tables = [None] * array.shape[0]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int, *, exact: bool = True) -> "Mechanism":
        """The noiseless mechanism that publishes the true result."""
        n = check_result_range(n)
        if exact:
            matrix = np.empty((n + 1, n + 1), dtype=object)
            for i in range(n + 1):
                for j in range(n + 1):
                    matrix[i, j] = Fraction(int(i == j))
        else:
            matrix = np.eye(n + 1)
        return cls(matrix, name="identity", validate=False)

    @classmethod
    def uniform(cls, n: int, *, exact: bool = True) -> "Mechanism":
        """The fully private mechanism: uniform output, ignores the input."""
        n = check_result_range(n)
        if exact:
            cell = Fraction(1, n + 1)
            matrix = np.empty((n + 1, n + 1), dtype=object)
            matrix[...] = cell
        else:
            matrix = np.full((n + 1, n + 1), 1.0 / (n + 1))
        return cls(matrix, name="uniform", validate=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """A defensive copy of the underlying matrix."""
        return self._matrix.copy()

    @property
    def size(self) -> int:
        """Number of possible results, ``n + 1``."""
        return self._matrix.shape[0]

    @property
    def n(self) -> int:
        """Maximum query result (database size for count queries)."""
        return self._matrix.shape[0] - 1

    @property
    def is_exact(self) -> bool:
        """Whether entries are exact Fractions."""
        return self._exact

    def probability(self, true_result: int, output: int):
        """Return ``Pr[output | true_result]``."""
        i = check_index(true_result, self.n, name="true_result")
        r = check_index(output, self.n, name="output")
        return self._matrix[i, r]

    def distribution(self, true_result: int) -> np.ndarray:
        """Return the output distribution row for ``true_result`` (copy)."""
        i = check_index(true_result, self.n, name="true_result")
        return self._matrix[i].copy()

    def column(self, output: int) -> np.ndarray:
        """Return column ``output`` (copy) — the likelihood of one output."""
        r = check_index(output, self.n, name="output")
        return self._matrix[:, r].copy()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_float(self) -> "Mechanism":
        """Return a float64 copy (no-op when already float)."""
        if not self._exact:
            return self
        return Mechanism(
            self._matrix.astype(float), name=self.name, validate=False
        )

    def to_exact(self) -> "Mechanism":
        """Return an exact copy; entries must be clean dyadic floats.

        Raises :class:`ValidationError` for entries like ``0.1`` whose
        binary expansion would silently explode into a huge Fraction.
        """
        if self._exact:
            return self
        exact = np.empty(self._matrix.shape, dtype=object)
        for i in range(self.size):
            for j in range(self.size):
                exact[i, j] = as_fraction(
                    float(self._matrix[i, j]), name=f"entry ({i}, {j})"
                )
        return Mechanism(exact, name=self.name, validate=False)

    def to_rational_matrix(self) -> RationalMatrix:
        """Return the matrix as a :class:`RationalMatrix` (must be exact)."""
        if not self._exact:
            raise ValidationError(
                "mechanism is float-valued; call to_exact() first if its "
                "entries are exactly representable"
            )
        return RationalMatrix(self._matrix.tolist())

    # ------------------------------------------------------------------
    # Composition (Definition 3: derivability / post-processing)
    # ------------------------------------------------------------------
    def post_process(self, kernel, *, name: str | None = None) -> "Mechanism":
        """Return the mechanism ``self @ kernel``.

        ``kernel`` is a row-stochastic reinterpretation matrix ``T`` as in
        Definition 3: ``T[r, r']`` is the probability a received output
        ``r`` is reinterpreted as ``r'``. The result is the *induced*
        mechanism ``x[i, r'] = sum_r y[i, r] T[r, r']``.
        """
        kernel = self._coerce_kernel(kernel)
        kernel_exact = is_exact_array(kernel)
        if self._exact and kernel_exact:
            product = np.dot(self._matrix, kernel)
        else:
            left = (
                self._matrix.astype(float) if self._exact else self._matrix
            )
            right = kernel.astype(float) if kernel_exact else kernel
            product = left @ right
        return Mechanism(product, name=name, validate=False)

    def _coerce_kernel(self, kernel) -> np.ndarray:
        if isinstance(kernel, Mechanism):
            kernel = kernel._matrix
        elif isinstance(kernel, RationalMatrix):
            kernel = kernel.to_numpy()
        kernel = np.asarray(kernel)
        if kernel.dtype != object:
            kernel = kernel.astype(float)
        if kernel.shape != self._matrix.shape:
            raise ValidationError(
                f"kernel shape {kernel.shape} does not match mechanism "
                f"shape {self._matrix.shape}"
            )
        check_row_stochastic(kernel, name="kernel")
        return kernel

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def alias_table(self, true_result: int) -> AliasTable:
        """Row ``true_result`` as an alias table, built on its first use
        and kept: every draw from this mechanism walks it."""
        i = check_index(true_result, self.n, name="true_result")
        table = self._tables[i]
        if table is None:
            table = self._tables[i] = AliasTable(self._matrix[i])
        return table

    def sampler(self) -> RowAliasSampler:
        """Every row's :meth:`alias_table`, stacked for batched draws."""
        return RowAliasSampler(map(self.alias_table, range(self.size)))

    def sample(
        self, true_result: int, rng: np.random.Generator | None = None
    ) -> int:
        """Sample one published output for ``true_result``."""
        rng = np.random.default_rng() if rng is None else rng
        return self.alias_table(true_result).sample(rng)

    def sample_many(
        self,
        true_result: int,
        count: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sample ``count`` i.i.d. published outputs for ``true_result``."""
        rng = np.random.default_rng() if rng is None else rng
        return self.alias_table(true_result).sample(rng, count)

    # ------------------------------------------------------------------
    # Loss evaluation (Section 2.3)
    # ------------------------------------------------------------------
    def expected_loss(self, loss, true_result: int):
        """Expected loss ``sum_r l(i, r) x[i, r]`` for a fixed ``i``.

        The loss table is memoized per ``(loss, n, regime)`` (see
        :func:`repro.losses.base.cached_loss_matrix`), so repeated
        evaluations — notably :meth:`worst_case_loss` — no longer rebuild
        it per call. Exact mechanisms keep the original term-by-term
        Fraction sum (bit-identical results); float mechanisms take a
        vectorized dot-product fast path.
        """
        from ..losses.base import cached_loss_matrix  # deferred: avoids cycle

        i = check_index(true_result, self.n, name="true_result")
        if self._exact:
            table = cached_loss_matrix(loss, self.n)
            return sum(
                table[i, r] * self._matrix[i, r] for r in range(self.size)
            )
        table = cached_loss_matrix(loss, self.n, as_float=True)
        return float(table[i] @ self._matrix[i])

    def _admissible_members(self, side_information) -> list[int]:
        members = (
            range(self.size)
            if side_information is None
            else sorted(
                check_index(i, self.n, name="side information member")
                for i in side_information
            )
        )
        members = list(members)
        if not members:
            raise ValidationError("side information must be non-empty")
        return members

    def worst_case_loss(self, loss, side_information=None):
        """Minimax disutility ``max_{i in S} sum_r l(i, r) x[i, r]``.

        ``side_information`` may be an iterable of admissible results or
        ``None`` for the full range (Equation 1 of the paper). Float
        mechanisms evaluate all rows at once as
        ``(L * X).sum(axis=1)`` and take the max over the admissible set;
        exact mechanisms share one cached loss table across the row sums.
        """
        members = self._admissible_members(side_information)
        if self._exact:
            return max(self.expected_loss(loss, i) for i in members)
        from ..losses.base import cached_loss_matrix  # deferred: avoids cycle

        table = cached_loss_matrix(loss, self.n, as_float=True)
        if len(members) == self.size:
            row_losses = (table * self._matrix).sum(axis=1)
        else:
            row_losses = (table[members] * self._matrix[members]).sum(axis=1)
        return float(row_losses.max())

    # ------------------------------------------------------------------
    # Comparison / display
    # ------------------------------------------------------------------
    def approx_equals(self, other: "Mechanism", *, atol: float = 1e-9) -> bool:
        """Entrywise comparison, exact when both mechanisms are exact."""
        if not isinstance(other, Mechanism):
            return NotImplemented
        if self._matrix.shape != other._matrix.shape:
            return False
        if self._exact and other._exact:
            return bool((self._matrix == other._matrix).all())
        left = np.asarray(self._matrix, dtype=float)
        right = np.asarray(other._matrix, dtype=float)
        return bool(np.allclose(left, right, atol=atol, rtol=0.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mechanism):
            return NotImplemented
        return (
            self._exact == other._exact
            and self._matrix.shape == other._matrix.shape
            and bool((self._matrix == other._matrix).all())
        )

    def __hash__(self) -> int:
        if not self._exact:
            raise TypeError("float-valued mechanisms are unhashable")
        return hash(tuple(map(tuple, self._matrix.tolist())))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        regime = "exact" if self._exact else "float"
        return f"<Mechanism{label} n={self.n} ({regime})>"
