"""Alias-table sampling: the one rule that draws every release.

Walker/Vose alias tables turn sampling from an arbitrary finite
distribution into a few array lookups and one integer compare per draw
— no per-draw CDF walk — which is what lets
:meth:`repro.release.publisher.Publisher.publish_batch` and the server's
fused gather run at line rate (see ``benchmarks/bench_sampling.py``).
Every release the library makes from a kernel row is drawn here: the
publisher, the server, :meth:`repro.core.mechanism.Mechanism.sample`
and the chain steps of :class:`repro.core.multilevel.MultiLevelRelease`.

The construction is *exact*: given a row of Fraction probabilities (e.g.
a row of the range-restricted geometric mechanism ``G_{n,alpha}``, whose
boundary columns already fold the unbounded two-sided-geometric tail
mass into the cap outputs ``{0, n}``), the Vose small/large pairing is
run entirely over ``Fraction``, so the cell thresholds are exact
rationals and :meth:`AliasTable.cell_probabilities` reconstructs the
input pmf bit-for-bit. Float rows build float thresholds the same way.

The draw is exact too. ``Generator.random()`` returns ``k * 2**-53`` for
a uniform integer ``k``. For a table of ``K`` cells let ``Q = 2**53 //
K``; a ``k >= K*Q`` is drawn again, and otherwise the cell ``j = k % K``
and ``q = k // K`` are independent and exactly uniform. With the cutoff
``c_j = floor(t_j * Q)`` of the cell's threshold ``t_j``, ``q < c_j``
accepts ``j`` and ``q > c_j`` takes its alias; the tie ``q == c_j``
accepts with probability ``t_j * Q - c_j``, decided exactly from further
64-bit words. So cell ``j`` accepts with probability exactly ``t_j`` (a
float threshold counts as its exact binary value), and the walk serves
:meth:`AliasTable.cell_probabilities` — for exact tables, the verified
kernel row — with no rounding at all. Each table stores, once, every
cell's tie point ``T_j = c_j * K + j``: comparing ``k`` with ``T_j`` is
comparing ``q`` with ``c_j``, without computing ``q``.

That rule has a vector form and a scalar form, shared by three
granularities:

* :class:`AliasTable` — one distribution;
* :class:`RowAliasSampler` — all rows of one mechanism, stacked, with a
  single vectorized gather per batch of heterogeneous true results;
* :class:`HeterogeneousAliasSampler` — several mechanisms (different
  ``n`` and/or ``alpha``) flattened into one arena, so one ``publish``
  tick can draw for queries spread across deployments in one shot.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..exceptions import ValidationError
from ..validation import ATOL

__all__ = ["AliasTable", "RowAliasSampler", "HeterogeneousAliasSampler"]

#: ``Generator.random()`` is ``k * 2**-53`` with ``k`` uniform below this.
_SPAN = 1 << 53
_WORD = 1 << 64
#: ``K * (2**53 // K) > 2**53 - K``, so a ``k`` below this lies within the
#: limit of every table of up to ``2**32`` cells.
_SAFE = _SPAN - (1 << 32)
# The vector form's operands, made once rather than per call.
_SPAN_F, _SAFE_I = float(_SPAN), np.int64(_SAFE)


def _vose(probabilities):
    """Run the Vose small/large pairing; returns ``(thresholds, alias)``.

    Works for exact (Fraction/int) and float inputs alike; with exact
    inputs every operation is rational and the leftover queue entries
    land on exactly 1. ``probabilities`` must be non-negative and sum
    to 1 (checked by the caller in the appropriate regime).
    """
    size = len(probabilities)
    scaled = [p * size for p in probabilities]
    thresholds = [None] * size
    alias = list(range(size))
    one = Fraction(1) if isinstance(scaled[0], Fraction) else 1.0
    small = [j for j in range(size) if scaled[j] < one]
    large = [j for j in range(size) if scaled[j] >= one]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        thresholds[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = scaled[hi] - (one - scaled[lo])
        if scaled[hi] < one:
            small.append(hi)
        else:
            large.append(hi)
    # Leftovers hold exactly mass 1 (exact regime) or 1 up to rounding
    # (float regime); either way they alias to themselves.
    for j in large:
        thresholds[j] = one
    for j in small:
        thresholds[j] = one
    return thresholds, alias


def _frozen(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.setflags(write=False)
    return array


def _concat(parts) -> tuple:
    """Flat ``(ties, alias, thresholds)`` cells of tables or arenas."""
    ties, alias, thresholds = zip(*(part._cells for part in parts))
    ties, alias = (_frozen(np.concatenate(a)) for a in (ties, alias))
    return ties, alias, [t for row in thresholds for t in row]


def _tie(threshold, quota: int, rng) -> bool:
    """Accept a tie with probability ``t*Q - floor(t*Q)``, exactly.

    A uniform real in ``[0, 1)``, read 64 bits at a time, is compared
    with that remainder digit by digit in base ``2**64``; each word
    settles the compare unless it equals the digit.
    """
    num, den = threshold.as_integer_ratio()
    rest = num * quota % den
    while rest:
        digit, rest = divmod(rest * _WORD, den)
        word = int(rng.integers(_WORD, dtype=np.uint64))
        if word != digit:
            return word < digit
    return False


def _walk(rng, count, sizes, base, ties, alias, thresholds):
    """The vector form of the draw: ``count`` queries at once.

    Query ``i`` walks the ``sizes[i]``-cell row starting at flat offset
    ``base[i]`` of ``ties``/``alias``/``thresholds``; ``sizes`` and
    ``base`` may be scalars shared by every query. Ties and uniforms
    that may lie past their row's limit are rare, and go one by one.
    """
    if count == 1:  # one query: the scalar form, without array round trips
        size, row = (int(np.ravel(x)[0]) for x in (sizes, base))
        return np.array([_walk_one(rng, size, ties, alias, thresholds, row)])
    k = (rng.random(count) * _SPAN_F).astype(np.int64)
    cells = k % sizes
    flat = base + cells
    tie = ties[flat]
    out = np.where(k < tie, cells, alias[flat])
    for i in ((k == tie) | (k >= _SAFE_I)).nonzero()[0]:
        size = int(np.broadcast_to(sizes, count)[i])
        quota = _SPAN // size
        if k[i] >= size * quota:
            row = int(np.broadcast_to(base, count)[i])
            out[i] = _walk_one(rng, size, ties, alias, thresholds, row)
        elif k[i] == tie[i] and _tie(thresholds[flat[i]], quota, rng):
            out[i] = cells[i]
    return out


def _walk_one(rng, size: int, ties, alias, thresholds, base=0) -> int:
    """The scalar form of :func:`_walk`: one draw from the ``size``-cell
    row at flat offset ``base``."""
    quota = _SPAN // size
    k = int(rng.random() * _SPAN)
    while k >= size * quota:
        k = int(rng.random() * _SPAN)
    cell = k % size
    tie = int(ties[base + cell])
    if k < tie or (k == tie and _tie(thresholds[base + cell], quota, rng)):
        return cell
    return int(alias[base + cell])


class AliasTable:
    """Alias table for one distribution over ``{0..K-1}``.

    Attributes
    ----------
    size:
        Number of outcomes ``K``.
    alias:
        Int64 alias outcome per cell (read-only).
    exact_thresholds:
        Tuple of exact Fraction thresholds when built from exact
        probabilities, else ``None``. These are the verifiable content:
        :meth:`cell_probabilities` reconstructs the input pmf from them
        bit-for-bit, and the walk accepts each cell with exactly its
        threshold's probability.
    """

    __slots__ = ("size", "exact_thresholds", "_cells")

    def __init__(self, probabilities) -> None:
        probabilities = list(probabilities)
        if not probabilities:
            raise ValidationError("alias table needs at least one outcome")
        exact = all(
            isinstance(p, (Fraction, int)) and not isinstance(p, bool)
            for p in probabilities
        )
        if exact:
            probabilities = [Fraction(p) for p in probabilities]
            if any(p < 0 for p in probabilities):
                raise ValidationError("probabilities must be non-negative")
            if sum(probabilities) != 1:
                raise ValidationError(
                    "exact probabilities must sum to exactly 1, got "
                    f"{sum(probabilities)}"
                )
        else:
            if any(float(p) < -ATOL for p in probabilities):
                raise ValidationError("probabilities must be non-negative")
            # A float kernel may hold entries down to -ATOL (its
            # constructor accepts them): clip those to 0, renormalize.
            probabilities = [max(float(p), 0.0) for p in probabilities]
            total = sum(probabilities)
            if not np.isclose(total, 1.0, atol=1e-9):
                raise ValidationError(
                    f"probabilities must sum to 1, got {total}"
                )
            probabilities = [p / total for p in probabilities]
        self._fill(*_vose(probabilities), exact)

    def _fill(self, thresholds, alias, exact: bool) -> None:
        self.size = len(thresholds)
        thresholds = tuple(thresholds)
        self.exact_thresholds = thresholds if exact else None
        quota = _SPAN // self.size
        ratios = enumerate(t.as_integer_ratio() for t in thresholds)
        ties = [num * quota // den * self.size + j for j, (num, den) in ratios]
        self._cells = (_frozen(ties), _frozen(alias), thresholds)

    @classmethod
    def from_parts(cls, thresholds, alias) -> "AliasTable":
        """Rebuild a table from stored ``(thresholds, alias)`` content.

        Used when loading a :class:`~repro.release.artifacts.MechanismArtifact`:
        the sampler must derive from the *verified* stored thresholds,
        not from a fresh construction that could silently diverge.
        """
        thresholds = list(thresholds)
        alias = list(alias)
        if not thresholds or len(thresholds) != len(alias):
            raise ValidationError(
                "thresholds and alias must be equal-length and non-empty"
            )
        size = len(thresholds)
        exact = all(isinstance(t, (Fraction, int)) for t in thresholds)
        for t in thresholds:
            if not 0 <= t <= 1:
                raise ValidationError(f"threshold {t} outside [0, 1]")
        for a in alias:
            if not 0 <= int(a) < size:
                raise ValidationError(f"alias {a} outside [0, {size})")
        table = cls.__new__(cls)
        convert = Fraction if exact else float
        table._fill([convert(t) for t in thresholds], alias, exact)
        return table

    @property
    def alias(self) -> np.ndarray:
        return self._cells[1]

    def cell_probabilities(self) -> list:
        """Exact pmf encoded by the table (requires exact thresholds).

        ``p[j] = (q_j + sum_{k: alias[k]=j} (1 - q_k)) / K`` — every term
        a Fraction, so the result equals the construction input
        bit-for-bit. This is the integrity check ``repro cache verify``
        replays against :func:`repro.sampling.geometric.two_sided_geometric_pmf`,
        and the law the walk serves.
        """
        if self.exact_thresholds is None:
            raise ValidationError(
                "cell probabilities are exact-regime only; this table was "
                "built from float probabilities"
            )
        size = self.size
        pmf = [Fraction(0)] * size
        for cell in range(size):
            threshold = self.exact_thresholds[cell]
            pmf[cell] += threshold
            pmf[int(self.alias[cell])] += 1 - threshold
        return [p / size for p in pmf]

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw one outcome (``size=None``) or an array of ``size``."""
        if size is None:
            return _walk_one(rng, self.size, *self._cells)
        if int(size) < 0:
            raise ValidationError(f"sample count must be >= 0, got {size}")
        return _walk(rng, int(size), self.size, 0, *self._cells)


class RowAliasSampler:
    """Stacked alias tables for every row of a row-stochastic matrix.

    One vectorized :meth:`sample` call draws outputs for a whole batch
    of heterogeneous true results (rows) with no Python-level loop.
    """

    __slots__ = ("n", "size", "tables", "_cells")

    def __init__(self, tables) -> None:
        tables = list(tables)
        if not tables:
            raise ValidationError("need at least one row table")
        size = tables[0].size
        if any(t.size != size for t in tables):
            raise ValidationError("all row tables must share one size")
        if len(tables) != size:
            raise ValidationError(
                f"expected a square mechanism: {len(tables)} rows of "
                f"size {size}"
            )
        self.tables = tuple(tables)
        self.size = size
        self.n = size - 1
        self._cells = _concat(tables)

    @classmethod
    def from_matrix(cls, matrix) -> "RowAliasSampler":
        """Build per-row tables from a row-stochastic matrix.

        Exact (object/Fraction) matrices produce exact thresholds; float
        matrices produce float-only tables.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"expected a square matrix, got shape {matrix.shape}"
            )
        return cls(AliasTable(row) for row in matrix)

    def sample(self, rows, rng: np.random.Generator) -> np.ndarray:
        """Draw one output per entry of ``rows`` (true results)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValidationError("rows must be a 1-D array of true results")
        if rows.size and (rows.min() < 0 or rows.max() > self.n):
            raise ValidationError(
                f"true results must lie in [0, {self.n}]"
            )
        return _walk(rng, rows.size, self.size, rows * self.size, *self._cells)

    def sample_one(self, row: int, rng: np.random.Generator) -> int:
        """Draw one output for one true result, without array round-trips.

        The scalar hot path (:meth:`repro.release.publisher.Publisher.publish`):
        the scalar form of the walk :meth:`sample` runs, so scalar and
        batched draws share one distribution law.
        """
        row = int(row)
        if not 0 <= row <= self.n:
            raise ValidationError(f"true results must lie in [0, {self.n}]")
        return self.tables[row].sample(rng)

    def is_exact(self) -> bool:
        """Whether every row table carries exact thresholds."""
        return all(t.exact_thresholds is not None for t in self.tables)


class HeterogeneousAliasSampler:
    """Several :class:`RowAliasSampler` arenas fused into one flat store.

    Supports mixed deployments — different ``n`` and/or ``alpha`` per
    query — in a single vectorized tick: each query carries a
    ``(table, row)`` pair; per-query cell counts come from a gathered
    size vector, so tables of different widths coexist without padding.
    """

    __slots__ = ("samplers", "_offsets", "_sizes", "_cells")

    def __init__(self, samplers) -> None:
        samplers = list(samplers)
        if not samplers:
            raise ValidationError("need at least one sampler")
        self.samplers = tuple(samplers)
        self._sizes = np.array([s.size for s in samplers], dtype=np.int64)
        lengths = [s._cells[0].size for s in samplers]
        self._offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        self._cells = _concat(samplers)

    def sample(self, table_indices, rows, rng: np.random.Generator):
        """One output per ``(table_indices[q], rows[q])`` query."""
        table_indices = np.asarray(table_indices, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if table_indices.shape != rows.shape or table_indices.ndim != 1:
            raise ValidationError(
                "table_indices and rows must be equal-length 1-D arrays"
            )
        if table_indices.size == 0:
            return np.empty(0, dtype=np.int64)
        if table_indices.min() < 0 or table_indices.max() >= len(
            self.samplers
        ):
            raise ValidationError("table index out of range")
        sizes = self._sizes[table_indices]
        if rows.min() < 0 or (rows >= sizes).any():
            raise ValidationError("true result out of range for its table")
        base = self._offsets[table_indices] + rows * sizes
        return _walk(rng, rows.size, sizes, base, *self._cells)
