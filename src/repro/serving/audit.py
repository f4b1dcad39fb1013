"""Online auditing of live serving traffic.

:mod:`repro.release.audit` audits a mechanism offline by driving it with
its own traffic; a serving process gets audit traffic for free. The
:class:`OnlineAuditor` Bernoulli-samples a slice of every executed batch
(``rate``), accumulates per-deployment ``(true result, response)``
counts, and on :meth:`sweep` replays the counts against the law each
deployment *claims* to implement:

* ``geometric`` deployments are checked against an **independent
  re-derivation** of the two-sided-geometric law via the vectorized
  :func:`repro.sampling.geometric.two_sided_geometric_pmf` (interior
  cells) and the closed-form folded tails (cap cells, Definition 4) —
  computed from the *spec*, never from the artifact's own kernel. A
  tampered kernel whose digest was re-forged therefore still diverges
  from the replayed law and is flagged once enough responses accumulate;
* ``optimal`` deployments are checked against the artifact's
  certificate-verified kernel (the bespoke LP solution has no closed
  form to re-derive without a solver; its optimality proof is replayed
  at load time instead).

The comparison is a seed-stable chi-square: per sampled input row, cells
with expected count >= ``MIN_EXPECTED`` contribute individually and the
thin tail cells are pooled into one bucket (the standard guard against
tiny-expectation blow-ups), then the statistic is compared to
``dof + sigmas * sqrt(2 * dof)`` — at the default ``sigmas = 10`` a
false flag is a > 10-sigma event, while a mechanism serving a genuinely
different law overshoots by orders of magnitude (asserted in
``benchmarks/bench_serving.py``, which injects a tampered kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from ..sampling.geometric import two_sided_geometric_pmf
from ..sampling.rng import ensure_generator
from ..validation import check_setting

__all__ = ["AuditFinding", "OnlineAuditor", "expected_response_matrix"]

#: Cells below this expected count are pooled into one tail bucket per
#: row before the chi-square is computed.
MIN_EXPECTED = 5.0


def expected_response_matrix(spec) -> np.ndarray:
    """The float response law a ``geometric`` deployment must follow.

    Re-derived from ``(n, alpha)`` alone — Definition 4 with the
    unbounded tails folded into the caps — so it is an independent
    witness against the served kernel, not a copy of it.
    """
    if spec.kind != "geometric":
        raise ValidationError(
            "expected_response_matrix re-derives the geometric law; "
            f"got a {spec.kind!r} spec"
        )
    n = spec.n
    alpha = float(spec.alpha)
    size = n + 1
    inputs = np.arange(size)
    offsets = inputs[None, :] - inputs[:, None]
    expected = two_sided_geometric_pmf(alpha, offsets.ravel()).reshape(
        size, size
    )
    powers = alpha ** np.abs(offsets)
    expected[:, 0] = powers[:, 0] / (1.0 + alpha)
    expected[:, n] = powers[:, n] / (1.0 + alpha)
    expected.setflags(write=False)
    return expected


@dataclass(frozen=True)
class AuditFinding:
    """Outcome of one deployment's audit sweep.

    ``flagged`` is only ever ``True`` when ``sufficient`` is — an
    under-sampled deployment is reported as unaudited, not as clean.
    """

    key: str
    kind: str
    samples: int
    sufficient: bool
    statistic: float
    limit: float
    dof: int
    flagged: bool


class _Deployment:
    __slots__ = ("key", "kind", "expected", "counts", "samples")

    def __init__(self, key: str, kind: str, expected: np.ndarray) -> None:
        self.key = key
        self.kind = kind
        self.expected = expected
        self.counts = np.zeros(expected.shape, dtype=np.int64)
        self.samples = 0


class OnlineAuditor:
    """Accumulates sampled serving responses and replays them per sweep.

    Parameters
    ----------
    rate:
        Bernoulli sampling probability per response. ``0`` disables the
        hook entirely (``observe`` is then O(1) and touches nothing);
        ``1`` audits every response.
    min_samples:
        Per-deployment sample floor below which a sweep reports the
        deployment as not-yet-sufficient instead of judging it.
    sigmas:
        Flag threshold in chi-square standard deviations above the mean.
    rng:
        Seed or generator for the sampling slice (seeded in tests and
        benchmarks so audit verdicts are reproducible).
    """

    def __init__(
        self,
        *,
        rate: float = 0.05,
        min_samples: int = 2000,
        sigmas: float = 10.0,
        rng=None,
    ) -> None:
        self.rate = float(check_setting("audit_rate", rate))
        if min_samples < 1:
            raise ValidationError(
                f"min_samples must be >= 1, got {min_samples}"
            )
        if sigmas <= 0:
            raise ValidationError(f"sigmas must be > 0, got {sigmas}")
        self.min_samples = int(min_samples)
        self.sigmas = float(sigmas)
        self._rng = ensure_generator(rng)
        self._deployments: dict[int, _Deployment] = {}
        self.last_findings: tuple[AuditFinding, ...] = ()

    def register(self, index: int, artifact) -> None:
        """Start auditing a deployment served under batcher ``index``.

        Geometric deployments get the independently re-derived law;
        optimal deployments the certificate-verified kernel view.
        """
        spec = artifact.spec
        if spec.kind == "geometric":
            expected = expected_response_matrix(spec)
        else:
            expected = artifact.float_matrix
        self._deployments[int(index)] = _Deployment(
            spec.key(), spec.kind, expected
        )

    @property
    def samples(self) -> int:
        """Total responses accumulated across deployments."""
        return sum(d.samples for d in self._deployments.values())

    def observe(
        self, tables: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> int:
        """Sample one executed batch into the audit counts.

        Vectorized: one Bernoulli mask over the batch, then one
        ``np.add.at`` scatter per distinct deployment present in the
        sampled slice. Returns the number of responses recorded.
        """
        if self.rate <= 0.0 or not self._deployments:
            return 0
        size = len(values)
        if self.rate >= 1.0:
            picked = np.ones(size, dtype=bool)
        else:
            picked = self._rng.random(size) < self.rate
        if not picked.any():
            return 0
        tables = np.asarray(tables)[picked]
        rows = np.asarray(rows)[picked]
        values = np.asarray(values)[picked]
        recorded = 0
        for index in np.unique(tables):
            deployment = self._deployments.get(int(index))
            if deployment is None:
                continue
            mask = tables == index
            np.add.at(deployment.counts, (rows[mask], values[mask]), 1)
            count = int(mask.sum())
            deployment.samples += count
            recorded += count
        return recorded

    def _judge(self, deployment: _Deployment) -> AuditFinding:
        statistic = 0.0
        dof = 0
        for i in range(deployment.counts.shape[0]):
            observed = deployment.counts[i]
            total = int(observed.sum())
            if total == 0:
                continue
            expected = deployment.expected[i] * total
            heavy = expected >= MIN_EXPECTED
            if heavy.any():
                statistic += float(
                    ((observed[heavy] - expected[heavy]) ** 2
                     / expected[heavy]).sum()
                )
            tail_expected = float(expected[~heavy].sum())
            tail_observed = int(observed[~heavy].sum())
            buckets = int(heavy.sum())
            if tail_expected > 0.0:
                statistic += (
                    (tail_observed - tail_expected) ** 2 / tail_expected
                )
                buckets += 1
            dof += max(buckets - 1, 0)
        sufficient = deployment.samples >= self.min_samples and dof > 0
        limit = (
            dof + self.sigmas * math.sqrt(2.0 * dof) if dof else math.inf
        )
        return AuditFinding(
            key=deployment.key,
            kind=deployment.kind,
            samples=deployment.samples,
            sufficient=sufficient,
            statistic=statistic,
            limit=limit,
            dof=dof,
            flagged=bool(sufficient and statistic > limit),
        )

    def sweep(self) -> tuple[AuditFinding, ...]:
        """Replay every deployment's accumulated counts; cache findings."""
        self.last_findings = tuple(
            self._judge(deployment)
            for deployment in self._deployments.values()
        )
        return self.last_findings

    def flagged(self) -> tuple[AuditFinding, ...]:
        """Findings from the latest sweep that flagged a deployment."""
        return tuple(f for f in self.last_findings if f.flagged)
