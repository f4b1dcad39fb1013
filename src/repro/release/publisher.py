"""Single-level publication of count-query results.

The non-interactive setting the paper targets (Section 1): a statistic is
computed once and *published* — to mass media, a report, the Internet —
for consumers whose loss functions and side information are unknown at
release time. By Theorem 1 the right mechanism to deploy is geometric;
the publisher does exactly that and records everything an auditor needs.

Every release is drawn by the one exact walk of
:mod:`repro.sampling.alias` over per-row alias tables: O(1) per sample,
one vectorized tick per batch, and the law served is the kernel row
exactly, caps included (the range-restricted geometric rows fold the
unbounded noise tails into the cap outputs, Definition 4). Without an
artifact the tables are those of the memoized
:func:`~repro.core.geometric.cached_geometric_mechanism`. A publisher can
also be constructed from a compiled
:class:`~repro.release.artifacts.MechanismArtifact`
(:meth:`Publisher.from_artifact`), in which case the kernel and tables
come straight from the verified artifact and no mechanism is ever
rebuilt in the serving process.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..core.geometric import cached_geometric_mechanism
from ..core.mechanism import Mechanism
from ..db.database import Database
from ..db.engine import QueryEngine
from ..db.queries import CountQuery
from ..exceptions import ValidationError
from ..sampling.alias import RowAliasSampler
from ..sampling.rng import ensure_generator

__all__ = ["PublishedStatistic", "Publisher"]


@dataclass(frozen=True)
class PublishedStatistic:
    """One published aggregate statistic.

    Attributes
    ----------
    query_description:
        Human-readable description of what was counted.
    value:
        The published (perturbed) count.
    alpha:
        Privacy level of the release.
    n:
        Database size (the public result range is ``{0..n}``).
    """

    query_description: str
    value: int
    alpha: object
    n: int


class Publisher:
    """Publishes geometric-mechanism releases for one database.

    Single statistics go through :meth:`publish`; query batches should
    use :meth:`publish_batch`, which draws all noise via one vectorized
    alias-table gather while keeping each release distributed
    identically to :meth:`publish`.

    Parameters
    ----------
    database:
        The sensitive database.
    alpha:
        Default privacy level for releases.
    artifact:
        Optional compiled :class:`~repro.release.artifacts.MechanismArtifact`
        to deploy instead of constructing the mechanism here; its ``n``
        must match the database and its ``alpha`` overrides the
        ``alpha`` argument. See :meth:`from_artifact`.
    """

    def __init__(self, database: Database, alpha, *, artifact=None) -> None:
        if not isinstance(database, Database):
            raise ValidationError(
                f"expected a Database, got {type(database).__name__}"
            )
        self._engine = QueryEngine(database)
        if artifact is not None:
            if artifact.n != database.size:
                raise ValidationError(
                    f"artifact is compiled for n={artifact.n}, database "
                    f"has size {database.size}"
                )
            if alpha is not None and Fraction(alpha) != artifact.alpha:
                raise ValidationError(
                    f"artifact privacy level {artifact.alpha} does not "
                    f"match requested alpha {alpha}"
                )
            self.alpha = artifact.alpha
            self._mechanism = artifact.mechanism()
            self._sampler = artifact.sampler
        else:
            self.alpha = alpha
            self._mechanism = cached_geometric_mechanism(database.size, alpha)
            self._sampler = self._mechanism.sampler()

    @classmethod
    def from_artifact(cls, database: Database, artifact) -> "Publisher":
        """Deploy a precompiled artifact: the zero-solve publish path.

        The serving process never touches an LP solver or even the
        mechanism constructor — kernel and alias tables come from the
        (verifiable) artifact as compiled by ``repro compile``.
        """
        return cls(database, None, artifact=artifact)

    @property
    def n(self) -> int:
        """Database size / maximum count."""
        return self._engine.database.size

    @property
    def mechanism(self) -> Mechanism:
        """The deployed geometric mechanism."""
        return self._mechanism

    @property
    def sampler(self) -> RowAliasSampler:
        """The deployed per-row alias sampler (the batch hot path)."""
        return self._sampler

    def publish(self, query: CountQuery, rng=None) -> PublishedStatistic:
        """Evaluate ``query`` and release one geometric perturbation.

        Draws through the same alias tables as :meth:`publish_batch`
        (:meth:`RowAliasSampler.sample_one`, the scalar form of the one
        walk): no per-release noise sampling or clipping, and no
        distributional drift between the scalar and batch paths — both
        serve the kernel row, folded tail mass of Definition 4 included,
        exactly.
        """
        if not isinstance(query, CountQuery):
            raise ValidationError(
                f"expected CountQuery, got {type(query).__name__}"
            )
        rng = ensure_generator(rng)
        true_value = self._engine.answer_exact(query)
        value = self._sampler.sample_one(true_value, rng)
        return PublishedStatistic(
            query_description=query.describe(),
            value=value,
            alpha=self.alpha,
            n=self.n,
        )

    def publish_many(
        self, query: CountQuery, count: int, rng=None
    ) -> list[PublishedStatistic]:
        """Release ``count`` independent perturbations of one query.

        Intended for calibration experiments only — publishing many
        independent releases of the same statistic composes privacy loss
        (each release is a fresh alpha-DP computation) and is exactly the
        collusion weakness Algorithm 1 exists to avoid.
        """
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        rng = ensure_generator(rng)
        return [self.publish(query, rng) for _ in range(count)]

    def publish_batch(
        self, queries: Iterable[CountQuery], rng=None
    ) -> list[PublishedStatistic]:
        """Release one geometric perturbation per query, vectorized.

        The fast path for heavy traffic: evaluates every query exactly,
        then draws every release in one alias-table gather — O(1) work
        per sample (see :class:`repro.sampling.alias.RowAliasSampler`).
        The walk serves each row's range-restricted geometric law
        exactly, cap outputs carrying the folded tail mass of
        Definition 4, so each release is distributed identically to
        :meth:`publish`. With a
        seeded ``rng`` the batch is reproducible: the same seed and
        query batch yield identical releases.

        Like :meth:`publish_many`, releasing many statistics composes
        privacy loss; the per-release guarantee is alpha-DP.
        """
        queries = list(queries)
        for query in queries:
            if not isinstance(query, CountQuery):
                raise ValidationError(
                    f"expected CountQuery, got {type(query).__name__}"
                )
        if not queries:
            return []
        rng = ensure_generator(rng)
        true_values = np.array(
            [self._engine.answer_exact(query) for query in queries],
            dtype=np.int64,
        )
        published = self._sampler.sample(true_values, rng)
        return [
            PublishedStatistic(
                query_description=query.describe(),
                value=int(value),
                alpha=self.alpha,
                n=self.n,
            )
            for query, value in zip(queries, published)
        ]
