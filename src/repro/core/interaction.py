"""Optimal consumer interaction with a deployed mechanism (Section 2.4.3).

A rational minimax consumer observing output ``r`` from a deployed
mechanism ``y`` may reinterpret it through a row-stochastic matrix ``T``,
inducing the mechanism ``x = y @ T``. The *optimal interaction* minimizes
the consumer's worst-case loss over its side-information set:

.. math::

   \\min_{T \\text{ stochastic}} \\; \\max_{i \\in S}
   \\; \\sum_{r'} l(i, r') \\, (y T)_{i, r'}

which this module solves as the paper's LP: an epigraph variable ``d``
bounds each row loss, ``T`` rows sum to one, and all entries are
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import SideInformationError, ValidationError
from ..losses.base import loss_matrix
from ..solvers.base import LinearProgram, choose_backend
from ..solvers.cache import resolve_cache
from ..validation import is_exact_array
from .mechanism import Mechanism

__all__ = ["InteractionResult", "optimal_interaction", "normalize_side_information"]


def normalize_side_information(side_information, n: int) -> list[int]:
    """Normalize side information to a sorted list of admissible results.

    ``None`` means no side information (the full range ``{0..n}``);
    otherwise any iterable of integers within ``[0, n]``.
    """
    if side_information is None:
        return list(range(n + 1))
    members = sorted({int(i) for i in side_information})
    if not members:
        raise SideInformationError("side information must be non-empty")
    if members[0] < 0 or members[-1] > n:
        raise SideInformationError(
            f"side information {members} falls outside [0, {n}]"
        )
    return members


@dataclass(frozen=True)
class InteractionResult:
    """Outcome of an optimal-interaction solve.

    Attributes
    ----------
    kernel:
        The optimal reinterpretation matrix ``T`` (row-stochastic).
    induced:
        The induced mechanism ``y @ T``.
    loss:
        The achieved minimax loss ``max_{i in S} E[l]``.
    per_input_loss:
        Expected loss of the induced mechanism at each ``i`` in ``S``.
    deployed:
        The deployed mechanism the consumer interacted with.
    backend:
        LP backend used.
    """

    kernel: np.ndarray
    induced: Mechanism
    loss: object
    per_input_loss: dict[int, object]
    deployed: Mechanism
    backend: str


def optimal_interaction(
    deployed: Mechanism,
    loss,
    side_information=None,
    *,
    backend=None,
    exact: bool | None = None,
    solve_cache=None,
) -> InteractionResult:
    """Solve the Section 2.4.3 LP for the optimal interaction.

    Parameters
    ----------
    deployed:
        The published mechanism ``y`` the consumer observes.
    loss:
        A :class:`~repro.losses.LossFunction` or explicit loss matrix.
    side_information:
        Iterable of results the consumer knows to be possible, or
        ``None`` for no side information.
    backend:
        Explicit LP backend; chosen automatically when omitted.
    exact:
        Force exact (Fraction) or float arithmetic; inferred from the
        deployed mechanism by default.
    solve_cache:
        Persistent solve cache (see
        :func:`repro.core.optimal.optimal_mechanism`): a
        :class:`~repro.solvers.cache.SolveCache`, a directory, ``None``
        for the process default, or ``False`` to disable. Keyed by the
        canonical content of this interaction LP.

    Returns
    -------
    InteractionResult

    Examples
    --------
    >>> from fractions import Fraction as F
    >>> from repro.core.geometric import GeometricMechanism
    >>> from repro.losses import AbsoluteLoss
    >>> g = GeometricMechanism(3, F(1, 4))
    >>> result = optimal_interaction(g, AbsoluteLoss(), {0, 1, 2, 3})
    >>> result.induced.n
    3
    """
    if not isinstance(deployed, Mechanism):
        deployed = Mechanism(deployed)
    n = deployed.n
    members = normalize_side_information(side_information, n)
    table = loss_matrix(loss, n)
    if exact is None:
        exact = deployed.is_exact and is_exact_array(table)
    if exact:
        deployed_exact = deployed.to_exact()
        y = deployed_exact.matrix
    else:
        y = deployed.to_float().matrix
    size = n + 1

    # Variable layout: T[r, r'] at index r * size + r'; epigraph d last.
    num_vars = size * size + 1
    d_index = size * size
    program = LinearProgram(num_vars)
    program.set_objective([(d_index, 1)])
    for i in members:
        terms = []
        for r in range(size):
            weight_row = y[i, r]
            if weight_row == 0:
                continue
            for r_prime in range(size):
                coeff = weight_row * table[i, r_prime]
                if coeff != 0:
                    terms.append((r * size + r_prime, coeff))
        terms.append((d_index, -1))
        program.add_le(terms, 0)
    for r in range(size):
        program.add_eq(
            [(r * size + r_prime, 1) for r_prime in range(size)], 1
        )
    cache = resolve_cache(solve_cache)
    key = cache.key(program) if cache is not None else None
    solution = cache.get_key(key) if cache is not None else None
    if solution is None:
        if backend is None:
            backend = choose_backend(exact=exact)
        solution = backend.solve(program)
        if cache is not None:
            cache.put_key(key, solution)

    flat = solution.values[: size * size]
    if exact:
        # Exact backends hand back Fractions; a flat object-array fill
        # replaces the old per-entry double loop.
        kernel = np.empty((size, size), dtype=object)
        kernel.ravel()[:] = flat
    else:
        kernel = np.asarray(flat, dtype=float).reshape(size, size)
        kernel = np.clip(kernel, 0.0, None)
        kernel = kernel / kernel.sum(axis=1, keepdims=True)
    induced = (deployed.to_exact() if exact else deployed.to_float()).post_process(
        kernel, name="induced"
    )
    per_input = {i: induced.expected_loss(table, i) for i in members}
    achieved = max(per_input.values())
    return InteractionResult(
        kernel=kernel,
        induced=induced,
        loss=achieved,
        per_input_loss=per_input,
        deployed=deployed,
        backend=solution.backend,
    )
