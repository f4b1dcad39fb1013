"""The polytope of alpha-DP mechanisms, and samples from it.

For fixed ``n`` and ``alpha``, the oblivious alpha-DP mechanisms form a
polytope: row-stochasticity equalities plus Definition 2's ratio
inequalities. The paper's optimality statements quantify over this whole
set, so testing them well requires *generic* members, not just the
geometric mechanism and its post-processings (which, by Theorem 2, are a
strict subset — see Appendix B).

:func:`random_private_mechanism` samples vertices of the polytope by
minimizing a random linear objective over it — every call returns an
extreme point, and varying the objective reaches all of them. The
dominance property this enables (benchmarked in
``bench_dominance.py``): for every alpha-DP mechanism ``y`` and every
minimax consumer, interacting with the geometric mechanism is at least
as good as interacting with ``y``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..exceptions import ValidationError
from ..sampling.rng import ensure_generator
from ..solvers.base import LinearProgram, choose_backend
from ..validation import as_fraction, check_alpha, check_result_range
from .mechanism import Mechanism

__all__ = ["dp_polytope_lp", "random_private_mechanism"]


def dp_polytope_lp(n: int, alpha, objective) -> LinearProgram:
    """Build ``min objective . x`` over the alpha-DP polytope.

    Variable layout: ``x[i, r]`` at index ``i * (n+1) + r``. The
    ``objective`` is a dense iterable of ``(n+1)^2`` coefficients.
    """
    n = check_result_range(n)
    check_alpha(alpha)
    size = n + 1
    coefficients = list(objective)
    if len(coefficients) != size * size:
        raise ValidationError(
            f"objective must have {size * size} coefficients, "
            f"got {len(coefficients)}"
        )
    program = LinearProgram(size * size)
    program.set_objective(
        [(k, c) for k, c in enumerate(coefficients) if c != 0]
    )
    for i in range(n):
        for r in range(size):
            upper = i * size + r
            lower = (i + 1) * size + r
            program.add_le([(upper, -1), (lower, alpha)], 0)
            program.add_le([(lower, -1), (upper, alpha)], 0)
    for i in range(size):
        program.add_eq([(i * size + r, 1) for r in range(size)], 1)
    return program


def random_private_mechanism(
    n: int,
    alpha,
    rng=None,
    *,
    exact: bool = True,
    backend=None,
) -> Mechanism:
    """Sample a vertex of the alpha-DP polytope.

    A random integer objective is minimized over the polytope; the
    optimal basic solution is an extreme point. Exact mode keeps the
    vertex coordinates as Fractions so downstream identities stay exact.
    """
    n = check_result_range(n)
    rng = ensure_generator(rng)
    size = n + 1
    if exact:
        alpha = as_fraction(alpha, name="alpha")
        coefficients = [
            Fraction(int(rng.integers(-50, 51)), 7)
            for _ in range(size * size)
        ]
    else:
        alpha = float(alpha)
        coefficients = list(rng.integers(-50, 51, size * size) / 7.0)
    program = dp_polytope_lp(n, alpha, coefficients)
    if backend is None:
        backend = choose_backend(exact=exact)
    solution = backend.solve(program)
    matrix = np.empty((size, size), dtype=object if exact else float)
    for i in range(size):
        for r in range(size):
            matrix[i, r] = solution.values[i * size + r]
    if not exact:
        matrix = np.clip(matrix.astype(float), 0.0, None)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
    return Mechanism(matrix, name=f"dp-vertex(alpha={alpha})")
