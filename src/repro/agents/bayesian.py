"""Bayesian information consumers — the GRS09 baseline (Section 2.7).

Ghosh, Roughgarden & Sundararajan (STOC 2009) model consumers with a
*prior* ``p`` over true results and evaluate mechanisms by prior-expected
loss ``sum_i p_i sum_r x[i,r] l(i,r)``. Two structural contrasts with the
minimax model, both surfaced by this module and its benchmarks:

* a Bayesian agent's optimal post-processing is *deterministic* — for
  each observed output it remaps to the single estimate minimizing
  posterior expected loss — whereas minimax agents genuinely randomize;
* the Bayesian bespoke-mechanism LP has a *linear* objective (no
  epigraph variable).

The GRS09 universality result (geometric is simultaneously optimal for
all Bayesian consumers too) is reproduced as a benchmark, since this
paper's Theorem 1 strictly generalizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..core.mechanism import Mechanism
from ..exceptions import ValidationError
from ..losses.base import LossFunction, check_monotone, loss_matrix
from ..solvers.base import LinearProgram, choose_backend
from ..solvers.cache import resolve_cache
from ..validation import as_fraction, check_alpha, check_result_range, is_exact_array

__all__ = [
    "BayesianAgent",
    "BayesianInteraction",
    "bayesian_optimal_mechanism",
]


@dataclass(frozen=True)
class BayesianInteraction:
    """A Bayesian agent's optimal deterministic interaction.

    Attributes
    ----------
    remap:
        ``remap[r]`` is the estimate the agent substitutes for observed
        output ``r``.
    kernel:
        The same remap as a 0/1 stochastic matrix (for composing with
        :meth:`Mechanism.post_process`).
    induced:
        The induced mechanism ``y @ kernel``.
    loss:
        Prior-expected loss of the induced mechanism.
    """

    remap: tuple[int, ...]
    kernel: np.ndarray
    induced: Mechanism
    loss: object


class BayesianAgent:
    """A Bayesian rational consumer with prior ``p`` and loss ``l``.

    Parameters
    ----------
    loss:
        Monotone loss function (same class as minimax agents).
    prior:
        Probability vector of length ``n + 1`` (Fractions keep the
        analysis exact).
    n:
        Maximum query result.
    """

    def __init__(
        self,
        loss: LossFunction,
        prior,
        *,
        n: int,
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        if not isinstance(loss, LossFunction):
            raise ValidationError(
                f"loss must be a LossFunction, got {type(loss).__name__}"
            )
        n = check_result_range(n)
        prior = list(prior)
        if len(prior) != n + 1:
            raise ValidationError(
                f"prior must have length {n + 1}, got {len(prior)}"
            )
        if any(entry < 0 for entry in prior):
            raise ValidationError("prior entries must be >= 0")
        total = sum(prior)
        exact = all(
            isinstance(entry, (int, Fraction)) and not isinstance(entry, bool)
            for entry in prior
        )
        if exact:
            if total != 1:
                raise ValidationError(f"prior sums to {total}, expected 1")
            prior = [as_fraction(entry) for entry in prior]
        else:
            if abs(float(total) - 1.0) > 1e-9:
                raise ValidationError(f"prior sums to {total}, expected 1")
            prior = [float(entry) for entry in prior]
        if validate:
            check_monotone(loss, n)
        self.loss = loss
        self.prior = tuple(prior)
        self.n = n
        self.name = name
        self._exact_prior = exact

    # ------------------------------------------------------------------
    def expected_loss(self, mechanism: Mechanism):
        """Prior-expected loss ``sum_i p_i sum_r x[i,r] l(i,r)``."""
        table = loss_matrix(self.loss, self.n)
        matrix = mechanism.matrix
        return sum(
            self.prior[i] * sum(
                table[i, r] * matrix[i, r] for r in range(self.n + 1)
            )
            for i in range(self.n + 1)
        )

    def best_interaction(self, deployed: Mechanism) -> BayesianInteraction:
        """Optimal deterministic remap: posterior-loss minimization.

        For each observed output ``r`` the agent substitutes
        ``argmin_{r'} sum_i p_i y[i, r] l(i, r')`` (ties break to the
        smallest estimate). No LP is needed — this is the closed-form
        Bayesian decision rule.
        """
        matrix = deployed.matrix
        table = loss_matrix(self.loss, self.n)
        size = self.n + 1
        remap = []
        for r in range(size):
            scores = [
                sum(
                    self.prior[i] * matrix[i, r] * table[i, r_prime]
                    for i in range(size)
                )
                for r_prime in range(size)
            ]
            best = min(range(size), key=lambda j: (scores[j], j))
            remap.append(best)
        exact = deployed.is_exact and self._exact_prior
        kernel = np.zeros((size, size), dtype=object if exact else float)
        if exact:
            kernel[...] = Fraction(0)
        for r, target in enumerate(remap):
            kernel[r, target] = Fraction(1) if exact else 1.0
        induced = deployed.post_process(kernel, name="bayesian-induced")
        return BayesianInteraction(
            remap=tuple(remap),
            kernel=kernel,
            induced=induced,
            loss=self.expected_loss(induced),
        )

    def bespoke_mechanism(
        self, alpha, *, backend=None, exact=None, solve_cache=None
    ):
        """The agent's optimal alpha-DP mechanism (GRS09's LP)."""
        return bayesian_optimal_mechanism(
            self.n,
            alpha,
            self.loss,
            self.prior,
            backend=backend,
            exact=exact,
            solve_cache=solve_cache,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<BayesianAgent{label} n={self.n} loss={self.loss.describe()}>"


def bayesian_optimal_mechanism(
    n: int,
    alpha,
    loss,
    prior,
    *,
    backend=None,
    exact: bool | None = None,
    solve_cache=None,
) -> tuple[Mechanism, object]:
    """Solve GRS09's LP: minimize prior-expected loss under alpha-DP.

    Returns ``(mechanism, optimal_loss)``. The objective is linear in the
    mechanism entries — ``sum_{i,r} p_i l(i,r) x[i,r]`` — subject to the
    same privacy and stochasticity constraints as the minimax LP.
    ``solve_cache`` consults/fills a persistent content-addressed solve
    cache (see :mod:`repro.solvers.cache`) before/after solving.
    """
    n = check_result_range(n)
    check_alpha(alpha)
    table = loss_matrix(loss, n)
    prior = list(prior)
    if len(prior) != n + 1:
        raise ValidationError(
            f"prior must have length {n + 1}, got {len(prior)}"
        )
    if exact is None:
        exact = (
            isinstance(alpha, (Fraction, int))
            and not isinstance(alpha, bool)
            and is_exact_array(table)
            and all(
                isinstance(entry, (int, Fraction))
                and not isinstance(entry, bool)
                for entry in prior
            )
        )
    if exact:
        alpha = as_fraction(alpha, name="alpha")
        prior = [as_fraction(entry) for entry in prior]
    else:
        alpha = float(alpha)
        table = np.vectorize(float)(table)
        prior = [float(entry) for entry in prior]
    size = n + 1
    program = LinearProgram(size * size)
    objective = []
    for i in range(size):
        for r in range(size):
            coeff = prior[i] * table[i, r]
            if coeff != 0:
                objective.append((i * size + r, coeff))
    program.set_objective(objective)
    for i in range(n):
        for r in range(size):
            upper = i * size + r
            lower = (i + 1) * size + r
            program.add_le([(upper, -1), (lower, alpha)], 0)
            program.add_le([(lower, -1), (upper, alpha)], 0)
    for i in range(size):
        program.add_eq([(i * size + r, 1) for r in range(size)], 1)
    cache = resolve_cache(solve_cache)
    key = cache.key(program) if cache is not None else None
    solution = cache.get_key(key) if cache is not None else None
    if solution is None:
        if backend is None:
            backend = choose_backend(exact=exact)
        solution = backend.solve(program)
        if cache is not None:
            cache.put_key(key, solution)
    matrix = np.empty((size, size), dtype=object if exact else float)
    for i in range(size):
        for r in range(size):
            matrix[i, r] = solution.values[i * size + r]
    if not exact:
        matrix = np.clip(matrix.astype(float), 0.0, None)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
    mechanism = Mechanism(matrix, name=f"bayes-optimal(alpha={alpha})")
    achieved = sum(
        prior[i] * sum(table[i, r] * matrix[i, r] for r in range(size))
        for i in range(size)
    )
    return mechanism, achieved
