"""Bespoke optimal mechanisms for a known consumer (Section 2.5).

Given a privacy level ``alpha`` and a consumer (loss function + side
information), the minimax-optimal alpha-differentially-private mechanism
solves the paper's LP:

.. math::

   \\min d \\;\\; \\text{s.t.}\\;\\;
   \\sum_r l(i, r)\\, x_{i,r} \\le d \\;\\; (i \\in S), \\quad
   \\alpha x_{i+1,r} \\le x_{i,r} \\le \\tfrac{1}{\\alpha} x_{i+1,r},
   \\quad \\sum_r x_{i,r} = 1, \\quad x \\ge 0.

:func:`optimal_mechanism` also offers the paper's Lemma 5 refinement:
among the (typically non-unique) optima, pick one minimizing the
secondary objective ``L'(x) = sum_{i,r} x[i,r] |i - r|``; the refined
optimum exhibits Lemma 5's two-boundary row structure (checked by
:mod:`repro.core.structure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..exceptions import ValidationError
from ..losses.base import loss_matrix
from ..solvers.base import LinearProgram, LPSolution, choose_backend
from ..solvers.cache import canonical_terms, resolve_cache
from ..solvers.hybrid import certify_solution, reconstruct_vertex
from ..solvers.lexicographic import solve_lexicographic
from ..solvers.scipy_backend import ScipyBackend, solve_with_optimal_basis
from ..validation import as_fraction, check_alpha, check_result_range, is_exact_array
from .derivability import compose_with_geometric
from .geometric import geometric_matrix
from .interaction import normalize_side_information
from .mechanism import Mechanism

__all__ = [
    "OptimalMechanismResult",
    "optimal_mechanism",
    "build_optimal_lp",
    "factor_space_candidate",
    "solve_factor_certified",
]


@dataclass(frozen=True)
class OptimalMechanismResult:
    """Outcome of a bespoke optimal-mechanism solve.

    Attributes
    ----------
    mechanism:
        The optimal alpha-DP mechanism.
    loss:
        Its minimax loss over the consumer's side information.
    alpha:
        The privacy level it was solved for.
    side_information:
        The normalized admissible-result list.
    refined:
        Whether the Lemma 5 lexicographic refinement was applied.
    backend:
        LP backend used.
    """

    mechanism: Mechanism
    loss: object
    alpha: object
    side_information: tuple[int, ...]
    refined: bool
    backend: str


@lru_cache(maxsize=256)
def _shared_constraint_blocks(n: int, alpha, regime: str):
    """Privacy + stochasticity constraint blocks, cached per ``(n, alpha)``.

    These rows depend only on the instance size and the privacy level —
    not on the consumer — so sweeps over many losses/side-information
    sets at one ``(n, alpha)`` reuse a single prebuilt block instead of
    re-materializing ``2 n (n+1) + (n+1)`` constraints per cell. The
    ``regime`` tag keeps exact and float blocks apart even though
    ``Fraction(1, 4) == 0.25`` hashes identically.
    """
    del regime  # participates only in the cache key
    size = n + 1
    # Differential privacy (Definition 2), both directions per column.
    privacy = []
    for i in range(n):
        for r in range(size):
            upper = i * size + r
            lower = (i + 1) * size + r
            privacy.append((((upper, -1), (lower, alpha)), 0))
            privacy.append((((lower, -1), (upper, alpha)), 0))
    # Row-stochasticity.
    stochastic = tuple(
        (tuple((i * size + r, 1) for r in range(size)), 1)
        for i in range(size)
    )
    return tuple(privacy), stochastic


def build_optimal_lp(
    n: int, alpha, table: np.ndarray, members: list[int], *, space: str = "x"
) -> tuple[LinearProgram, int]:
    """Build the Section 2.5 LP; returns ``(program, d_index)``.

    ``space="x"`` (the default) is the paper's program over the
    mechanism entries: variable ``x[i, r]`` at index ``i * (n+1) + r``,
    the epigraph variable ``d`` last, ``|S|`` loss rows, ``2n(n+1)``
    privacy rows, and ``n+1`` stochasticity rows. Only the
    consumer-specific loss rows are built per call; the privacy and
    stochasticity blocks come from a shared per-``(n, alpha)`` cache.

    ``space="factor"`` is the Theorem 2 *derivability
    reparameterization*: every minimax-optimal mechanism factors as
    ``x = G_{n,alpha} @ T`` with ``T`` row-stochastic, so substituting
    that product turns the program into one over ``(T, d)`` — variable
    ``T[k, r]`` at the same ``k * (n+1) + r`` layout — where the entire
    privacy block collapses into plain non-negativity of ``T``. What
    remains is ``|S|`` loss rows (with coefficients
    ``G[i, k] * l(i, r)``) and ``n+1`` row-sum equalities:
    ``Theta(n)`` rows instead of ``Theta(n^2)``. The reformulation is
    never trusted on its own — callers map ``T`` back through
    ``G @ T`` and certify against the ``space="x"`` program (see
    :func:`solve_factor_certified`).
    """
    size = n + 1
    num_vars = size * size + 1
    d_index = size * size
    program = LinearProgram(num_vars)
    program.set_objective([(d_index, 1)])
    if space == "factor":
        geometric = geometric_matrix(n, alpha)
        # Loss epigraph after substituting x = G T:
        # sum_{k,r} G[i,k] l(i,r) T[k,r] - d <= 0 for i in S.
        for i in members:
            weights = geometric[i]
            losses = table[i]
            terms = [
                (k * size + r, weights[k] * losses[r])
                for k in range(size)
                for r in range(size)
                if losses[r] != 0
            ]
            terms.append((d_index, -1))
            program.add_le(terms, 0)
        # T row-stochasticity (G is stochastic and non-singular, so unit
        # x row sums are equivalent to unit T row sums).
        program.extend_eq(
            tuple(
                (tuple((k * size + r, 1) for r in range(size)), 1)
                for k in range(size)
            )
        )
        return program, d_index
    if space != "x":
        raise ValidationError(
            f"space must be 'x' or 'factor', got {space!r}"
        )
    # Worst-case-loss epigraph: sum_r l(i,r) x[i,r] - d <= 0 for i in S.
    for i in members:
        terms = [
            (i * size + r, table[i, r])
            for r in range(size)
            if table[i, r] != 0
        ]
        terms.append((d_index, -1))
        program.add_le(terms, 0)
    regime = "exact" if isinstance(alpha, (int, Fraction)) else "float"
    try:
        privacy, stochastic = _shared_constraint_blocks(n, alpha, regime)
    except TypeError:  # unhashable alpha type: build uncached
        privacy, stochastic = _shared_constraint_blocks.__wrapped__(
            n, alpha, regime
        )
    program.extend_le(privacy)
    program.extend_eq(stochastic)
    return program, d_index


def factor_space_candidate(
    n: int, alpha, table: np.ndarray, members: list[int]
) -> LPSolution | None:
    """Solve the factor-space LP exactly and map back to mechanism space.

    Pipeline: build the ``space="factor"`` program, float-solve it with
    a direct HiGHS call that reports its optimal basis, reconstruct the
    basis's vertex ``(T, d)`` exactly over ``Fraction``, and return the
    candidate in ``space="x"`` layout — ``values`` are the entries of
    ``G @ T`` (via :func:`repro.core.derivability.compose_with_geometric`)
    followed by ``d``. Returns ``None`` when any stage fails (HiGHS
    bindings unavailable, degenerate basis, negative vertex); the result
    is only a *candidate* — nothing downstream may trust it before
    :func:`repro.solvers.hybrid.certify_solution` passes it against the
    full x-space program.
    """
    size = n + 1
    program, d_index = build_optimal_lp(
        n, alpha, table, members, space="factor"
    )
    basis = solve_with_optimal_basis(program)
    if basis is None:
        return None
    vertex = reconstruct_vertex(program, basis)
    if vertex is None:
        return None
    factor = np.empty((size, size), dtype=object)
    factor.ravel()[:] = vertex.values[: size * size]
    derived = compose_with_geometric(n, alpha, factor)
    values = list(derived.ravel())
    values.append(vertex.values[d_index])
    return LPSolution(
        values=values, objective=vertex.values[d_index], backend="factor-space"
    )


def solve_factor_certified(
    program: LinearProgram,
    n: int,
    alpha,
    table: np.ndarray,
    members: list[int],
) -> LPSolution | None:
    """Factor-space solve + exact x-space certificate, or ``None``.

    ``program`` must be the ``space="x"`` LP for the same consumer. The
    returned solution carries the certified candidate (so its values are
    a genuine optimal mechanism of the full program, proven by the exact
    primal/dual certificate); ``None`` means the caller should fall back
    to the PR 2 hybrid solve — correctness never rests on the Theorem 2
    reformulation.
    """
    candidate = factor_space_candidate(n, alpha, table, members)
    if candidate is None:
        return None
    return certify_solution(
        program, candidate.values, name="factor-certified"
    )


def _solve_factor_float(
    n: int, alpha: float, table: np.ndarray, members: list[int]
) -> LPSolution | None:
    """Float-regime factor-space solve (no certificate: floats carry a
    tolerance everywhere, so the Theorem 2 reformulation is checked by
    the float sweeps rather than per solve)."""
    size = n + 1
    program, d_index = build_optimal_lp(
        n, alpha, table, members, space="factor"
    )
    solution = ScipyBackend().solve(program)
    kernel = np.asarray(
        solution.values[: size * size], dtype=float
    ).reshape(size, size)
    derived = compose_with_geometric(n, alpha, kernel)
    values = list(derived.ravel())
    values.append(solution.values[d_index])
    return LPSolution(
        values=values,
        objective=solution.values[d_index],
        backend="factor-float",
    )


def _secondary_terms(n: int) -> list[tuple[int, int]]:
    """Sparse terms of the Lemma 5 secondary objective ``L'``."""
    size = n + 1
    return [
        (i * size + r, abs(i - r))
        for i in range(size)
        for r in range(size)
        if i != r
    ]


def optimal_mechanism(
    n: int,
    alpha,
    loss,
    side_information=None,
    *,
    backend=None,
    exact: bool | None = None,
    refine: bool = False,
    space: str = "x",
    solve_cache=None,
) -> OptimalMechanismResult:
    """Solve for the consumer's bespoke optimal alpha-DP mechanism.

    Parameters
    ----------
    n:
        Maximum query result (database size).
    alpha:
        Privacy parameter in ``(0, 1)``; a Fraction keeps the solve exact.
    loss:
        :class:`~repro.losses.LossFunction` or explicit loss matrix.
    side_information:
        Iterable of admissible results, or ``None`` for the full range.
    backend:
        Explicit LP backend; automatic when omitted.
    exact:
        Force exact/float arithmetic; inferred from ``alpha`` and the
        loss by default.
    refine:
        Apply the Lemma 5 lexicographic ``(L, L')`` refinement.
    space:
        ``"x"`` solves the paper's program directly. ``"factor"`` solves
        the Theorem 2 derivability reparameterization (``Theta(n)`` rows
        instead of ``Theta(n^2)``), maps the solved factor back through
        ``G @ T``, and proves the result optimal for the full x-space
        program with the exact primal/dual certificate — falling back to
        the hybrid x-space solve whenever certification fails, so the
        optimum never rests on the reformulation. The achieved loss is
        bit-identical either way; the mechanism itself may be a
        different vertex of the (typically non-unique) optimal face.
    solve_cache:
        Persistent cross-run solve cache: a
        :class:`~repro.solvers.cache.SolveCache`, a cache directory,
        ``None`` to use the process default (``REPRO_CACHE_DIR``), or
        ``False`` to disable. Keyed by the canonical content of the
        x-space program, so ``"x"`` and ``"factor"`` solves share
        entries and stale hits are impossible.

    Examples
    --------
    >>> from fractions import Fraction as F
    >>> from repro.losses import AbsoluteLoss
    >>> result = optimal_mechanism(3, F(1, 4), AbsoluteLoss())
    >>> result.mechanism.n
    3
    """
    n = check_result_range(n)
    check_alpha(alpha)
    if space not in ("x", "factor"):
        raise ValidationError(f"space must be 'x' or 'factor', got {space!r}")
    members = normalize_side_information(side_information, n)
    table = loss_matrix(loss, n)
    if exact is None:
        exact = (
            isinstance(alpha, (Fraction, int))
            and not isinstance(alpha, bool)
            and is_exact_array(table)
        )
    if exact:
        alpha = as_fraction(alpha, name="alpha")
    else:
        alpha = float(alpha)
        table = table.astype(float)
    program, d_index = build_optimal_lp(n, alpha, table, members)
    size = n + 1
    cache = resolve_cache(solve_cache)
    variant_parts = []
    if refine:
        variant_parts.append("refine:" + canonical_terms(_secondary_terms(n)))
    if space == "factor" and not exact:
        # Exact factor solves are certified against the x-space program,
        # so they legitimately share its cache key. Float factor solves
        # are not certified — keep them in their own entry so a
        # ``space="x"`` caller never gets one served back.
        variant_parts.append("factor-float")
    variant = ";".join(variant_parts)
    key = cache.key(program, variant=variant) if cache is not None else None
    solution = cache.get_key(key) if cache is not None else None
    if solution is None:
        if backend is None:
            backend = choose_backend(exact=exact)
        if refine:
            primary = None
            if space == "factor" and exact:
                # The cheap reparameterized solve pins the primary
                # optimum; only the refined stage pays the full LP.
                primary = solve_factor_certified(
                    program, n, alpha, table, members
                )
            slack = 0 if exact else 1e-9
            _, solution = solve_lexicographic(
                program,
                _secondary_terms(n),
                backend,
                slack=slack,
                primary=primary,
            )
        elif space == "factor":
            if exact:
                solution = solve_factor_certified(
                    program, n, alpha, table, members
                )
            else:
                solution = _solve_factor_float(n, alpha, table, members)
            if solution is None:
                solution = backend.solve(program)
        else:
            solution = backend.solve(program)
        if cache is not None:
            cache.put_key(key, solution)

    flat = solution.values[: size * size]
    if exact:
        matrix = np.empty((size, size), dtype=object)
        matrix.ravel()[:] = flat
    else:
        matrix = np.asarray(flat, dtype=float).reshape(size, size)
        matrix = np.clip(matrix, 0.0, None)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
    mechanism = Mechanism(matrix, name=f"optimal(alpha={alpha})")
    achieved = max(
        mechanism.expected_loss(table, i) for i in members
    )
    return OptimalMechanismResult(
        mechanism=mechanism,
        loss=achieved,
        alpha=alpha,
        side_information=tuple(members),
        refined=bool(refine),
        backend=solution.backend,
    )
