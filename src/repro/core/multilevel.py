"""Multi-level, collusion-resistant release (Algorithm 1, Lemmas 3-4).

To serve consumers at privacy levels ``alpha_1 < ... < alpha_k`` (least
to most private), Algorithm 1 publishes a *chain* of results: ``r_1`` is
drawn from ``G_{n,alpha_1}`` on the true count, and each subsequent
``r_{i+1}`` is drawn by re-randomizing ``r_i`` through the kernel
``T_{alpha_i, alpha_{i+1}} = G_{alpha_i}^{-1} G_{alpha_{i+1}}`` (a
stochastic matrix by Lemma 3). Marginally each ``r_i`` is distributed as
``G_{n,alpha_i}``; jointly, everything after ``r_1`` is a function of
``r_1`` plus independent coins, so a coalition learns no more about the
database than its least-private member (Lemma 4). Each draw, the first
level and every chain step, walks the exact alias table of its kernel
row (:mod:`repro.sampling.alias`), so the chain serves Lemma 3's
kernels exactly.

The naive alternative — ``k`` independent geometric releases — leaks:
the joint ratio between adjacent counts degrades to the *product*
``alpha_1 ... alpha_k``. :func:`naive_independent_release_alpha` computes
that degradation for the contrast benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..exceptions import ValidationError
from ..sampling.rng import ensure_generator
from ..validation import check_alpha, check_index, check_result_range
from .derivability import privacy_chain_kernel
from .geometric import GeometricMechanism
from .mechanism import Mechanism

__all__ = [
    "MultiLevelRelease",
    "CollusionCheck",
    "naive_independent_release_alpha",
]


@dataclass(frozen=True)
class CollusionCheck:
    """Result of verifying Lemma 4 for one coalition.

    Attributes
    ----------
    coalition:
        Indices (0-based into the level list) of colluding consumers.
    required_alpha:
        The level the joint view must satisfy: ``alpha`` of the
        least-private member, ``min(coalition)``'s level.
    achieved_alpha:
        The tightest privacy level of the coalition's joint mechanism.
    holds:
        ``achieved_alpha >= required_alpha``.
    """

    coalition: tuple[int, ...]
    required_alpha: object
    achieved_alpha: object
    holds: bool


class MultiLevelRelease:
    """Algorithm 1: correlated release at multiple privacy levels.

    Parameters
    ----------
    n:
        Maximum query result.
    alphas:
        Strictly increasing privacy levels ``alpha_1 < ... < alpha_k``
        (Fractions keep everything exact).

    Examples
    --------
    >>> from fractions import Fraction as F
    >>> release = MultiLevelRelease(3, [F(1, 4), F(1, 2)])
    >>> results = release.release(2, rng=42)
    >>> len(results)
    2
    """

    def __init__(self, n: int, alphas) -> None:
        self.n = check_result_range(n)
        levels = list(alphas)
        if len(levels) < 1:
            raise ValidationError("at least one privacy level is required")
        for alpha in levels:
            check_alpha(alpha)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValidationError(
                "privacy levels must be strictly increasing "
                "(least private first)"
            )
        self.alphas = tuple(levels)
        self._mechanisms = tuple(
            GeometricMechanism(self.n, alpha) for alpha in levels
        )
        self._kernels = tuple(
            Mechanism(privacy_chain_kernel(self.n, a, b), validate=False)
            for a, b in zip(levels, levels[1:])
        )

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.alphas)

    def mechanism(self, level: int) -> GeometricMechanism:
        """The marginal mechanism ``G_{n, alpha_level}`` (0-based level)."""
        return self._mechanisms[level]

    def kernel(self, level: int) -> np.ndarray:
        """The kernel carrying level ``level`` to ``level + 1``."""
        return self._kernels[level].matrix

    # ------------------------------------------------------------------
    def release(self, true_result: int, rng=None) -> list[int]:
        """Draw one correlated release ``[r_1, ..., r_k]``.

        ``r_1`` samples ``G_{alpha_1}`` on the true result; each later
        ``r_{i+1}`` samples row ``r_i`` of the chain kernel. Every step
        walks that row's alias table (:meth:`Mechanism.sample`).
        """
        true_result = check_index(true_result, self.n, name="true_result")
        rng = ensure_generator(rng)
        results = [self._mechanisms[0].sample(true_result, rng)]
        for kernel in self._kernels:
            results.append(kernel.sample(results[-1], rng))
        return results

    def release_many(
        self, true_result: int, count: int, rng=None
    ) -> np.ndarray:
        """Draw ``count`` independent correlated releases, shape (count, k)."""
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        rng = ensure_generator(rng)
        return np.array(
            [self.release(true_result, rng) for _ in range(count)]
        )

    # ------------------------------------------------------------------
    def joint_distribution(self, true_result: int) -> dict[tuple[int, ...], object]:
        """Exact joint law of ``(r_1, ..., r_k)`` given the true result.

        Enumerates all ``(n+1)^k`` tuples — intended for the small
        instances used in verification. Exact when the levels are exact.
        """
        true_result = check_index(true_result, self.n, name="true_result")
        size = self.n + 1
        first = self._mechanisms[0].matrix[true_result]
        kernels = [kernel.matrix for kernel in self._kernels]
        joint: dict[tuple[int, ...], object] = {}
        for tuple_outputs in itertools.product(range(size), repeat=self.num_levels):
            probability = first[tuple_outputs[0]]
            for step, kernel in enumerate(kernels):
                probability = probability * kernel[
                    tuple_outputs[step], tuple_outputs[step + 1]
                ]
                if probability == 0:
                    break
            if probability != 0:
                joint[tuple_outputs] = probability
        return joint

    def coalition_mechanism(self, coalition) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The joint mechanism seen by a coalition.

        Returns ``(outputs, matrix)`` where ``outputs`` enumerates the
        coalition's possible joint observations and ``matrix[i, t]`` is
        the probability of observation ``outputs[t]`` when the true
        result is ``i``.
        """
        members = sorted({int(c) for c in coalition})
        if not members:
            raise ValidationError("coalition must be non-empty")
        if members[0] < 0 or members[-1] >= self.num_levels:
            raise ValidationError(
                f"coalition {members} references unknown levels"
            )
        size = self.n + 1
        outputs = list(itertools.product(range(size), repeat=len(members)))
        index = {pattern: t for t, pattern in enumerate(outputs)}
        exact = all(
            isinstance(alpha, (Fraction, int)) for alpha in self.alphas
        )
        matrix = np.zeros(
            (size, len(outputs)), dtype=object if exact else float
        )
        if exact:
            matrix[...] = Fraction(0)
        for i in range(size):
            for pattern, probability in self.joint_distribution(i).items():
                observed = tuple(pattern[m] for m in members)
                matrix[i, index[observed]] += probability
        return outputs, matrix

    def verify_collusion_resistance(self, coalition) -> CollusionCheck:
        """Verify Lemma 4 for one coalition by direct computation.

        The coalition's joint mechanism must be ``alpha_{min}``-DP where
        ``min`` is its least-private member.
        """
        from .privacy import tightest_alpha  # deferred: avoids cycle

        members = tuple(sorted({int(c) for c in coalition}))
        _, matrix = self.coalition_mechanism(members)
        required = self.alphas[members[0]]
        achieved = tightest_alpha(matrix)
        return CollusionCheck(
            coalition=members,
            required_alpha=required,
            achieved_alpha=achieved,
            holds=achieved >= required,
        )

    def verify_all_coalitions(self) -> list[CollusionCheck]:
        """Verify Lemma 4 for every non-empty coalition (2^k - 1 checks)."""
        checks = []
        for r in range(1, self.num_levels + 1):
            for coalition in itertools.combinations(range(self.num_levels), r):
                checks.append(self.verify_collusion_resistance(coalition))
        return checks

    def __repr__(self) -> str:
        return (
            f"<MultiLevelRelease n={self.n} "
            f"alphas={[str(a) for a in self.alphas]}>"
        )


def naive_independent_release_alpha(alphas) -> object:
    """Joint privacy level of k *independent* geometric releases.

    Each release is ``alpha_i``-DP; because the noise draws are
    independent, the joint likelihood ratio between adjacent counts can
    reach ``prod_i alpha_i`` — strictly worse than ``alpha_1`` whenever
    ``k > 1``. This is the collusion degradation Algorithm 1 avoids.
    """
    levels = list(alphas)
    if not levels:
        raise ValidationError("at least one privacy level is required")
    product = None
    for alpha in levels:
        check_alpha(alpha)
        product = alpha if product is None else product * alpha
    return product
