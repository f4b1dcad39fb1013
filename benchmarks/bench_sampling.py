"""Benchmark: O(1) alias-table sampling at line rate.

PR 6 replaces the two-sided-geometric hot path (two ``rng.geometric``
draws plus a clip per release) with precomputed per-row Walker/Vose
alias tables (:mod:`repro.sampling.alias`): one uniform, two flat
gathers, and a compare per sample, batched across heterogeneous true
results — and, via :class:`repro.sampling.alias.HeterogeneousAliasSampler`,
across deployments with different ``n`` and ``alpha`` in one fused tick.

Measured here:

* ``alias_samples_per_second`` — batched :class:`RowAliasSampler`
  throughput on geometric rows (the ``publish_batch`` hot path);
* ``legacy_samples_per_second`` — the pre-PR-6 path for the same batch:
  ``sample_two_sided_geometric`` noise plus ``np.clip``;
* ``heterogeneous_samples_per_second`` — one fused tick across three
  deployments of different sizes and privacy levels.

Correctness is asserted in every mode (``--quick`` included):

* every alias table's :meth:`cell_probabilities` equals the exact
  rational ``G_{n,alpha}`` row **bit-for-bit**, including the boundary
  columns that fold the unbounded noise tails (Definition 4), and the
  interior cells match :func:`two_sided_geometric_pmf` exactly;
* chi-square goodness-of-fit of alias draws against the exact pmf, and
  statistical equivalence between the alias path and the legacy
  noise-plus-clip path under fixed seeds (both paths chi-square-consistent
  with the same exact law, small total-variation gap between them).

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_sampling.py``
(``--quick`` for a CI smoke run; ``--check`` to fail when the full-mode
throughput floor — **>= 1e7 alias samples/sec batched** — is missed; in
quick mode ``--check`` enforces the exactness and statistical assertions
only). Emits a ``BENCH {json}`` line and writes
``benchmarks/out/BENCH_sampling.json``.
"""

import sys
import time
from fractions import Fraction

import numpy as np

from _report import emit, emit_bench, parse_args

from repro.core.geometric import cached_geometric_mechanism, geometric_matrix
from repro.sampling.alias import HeterogeneousAliasSampler
from repro.sampling.geometric import (
    sample_two_sided_geometric,
    two_sided_geometric_pmf,
)

#: Full-mode acceptance floor: batched alias sampling at line rate.
SAMPLES_PER_SECOND_FLOOR = 1e7


def best_of(fn, repeats=3):
    """Minimum wall time of ``repeats`` runs plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def check_exactness():
    """Alias tables encode the exact mechanism rows bit-for-bit."""
    cells = 0
    for n, alpha in [
        (3, Fraction(1, 4)),
        (5, Fraction(1, 3)),
        (10, Fraction(2, 3)),
        (17, Fraction(3, 5)),
    ]:
        matrix = geometric_matrix(n, alpha)
        sampler = cached_geometric_mechanism(n, alpha).sampler()
        assert sampler.is_exact()
        for i in range(n + 1):
            reconstructed = sampler.tables[i].cell_probabilities()
            expected = list(matrix[i])
            assert reconstructed == expected, (
                f"alias row {i} of G_{{{n},{alpha}}} diverged from the "
                "exact kernel row"
            )
            # Interior columns obey the unbounded two-sided law exactly;
            # boundary columns carry the folded tail mass of Definition 4.
            for r in range(1, n):
                assert reconstructed[r] == two_sided_geometric_pmf(
                    alpha, r - i
                )
            for r in (0, n):
                assert reconstructed[r] == alpha ** abs(r - i) / (1 + alpha)
            cells += n + 1
    return {"rows_checked": cells // 1, "bit_exact": True}


def _chi_square(observed, expected_pmf, total):
    expected = np.asarray(
        [float(p) for p in expected_pmf]
    ) * total
    return float(((observed - expected) ** 2 / expected).sum())


def check_statistics(draws_per_row):
    """Chi-square fit + fixed-seed equivalence vs the legacy sampler."""
    n, alpha = 9, Fraction(1, 3)
    matrix = geometric_matrix(n, alpha)
    sampler = cached_geometric_mechanism(n, alpha).sampler()
    # dof = n per row; a chi-square statistic this far above the mean has
    # p < 1e-6, so a pass is a strong (yet non-flaky, seeded) fit check.
    limit = n + 10.0 * np.sqrt(2.0 * n)
    worst_alias = worst_legacy = 0.0
    worst_tv = 0.0
    for i in (0, n // 2, n):
        rng = np.random.default_rng(20_100 + i)
        alias_draws = sampler.sample(
            np.full(draws_per_row, i, dtype=np.int64), rng
        )
        rng = np.random.default_rng(20_100 + i)
        noise = sample_two_sided_geometric(
            float(alpha), rng, draws_per_row
        )
        legacy_draws = np.clip(i + noise, 0, n)
        alias_counts = np.bincount(alias_draws, minlength=n + 1)
        legacy_counts = np.bincount(legacy_draws, minlength=n + 1)
        chi_alias = _chi_square(alias_counts, matrix[i], draws_per_row)
        chi_legacy = _chi_square(legacy_counts, matrix[i], draws_per_row)
        tv = 0.5 * float(
            np.abs(alias_counts - legacy_counts).sum()
        ) / draws_per_row
        assert chi_alias < limit, (
            f"alias draws for row {i} fail the exact law: "
            f"chi2={chi_alias:.1f} >= {limit:.1f}"
        )
        assert chi_legacy < limit, (
            f"legacy draws for row {i} fail the exact law: "
            f"chi2={chi_legacy:.1f} >= {limit:.1f}"
        )
        assert tv < 0.02, (
            f"alias vs legacy empirical gap too large for row {i}: "
            f"TV={tv:.4f}"
        )
        worst_alias = max(worst_alias, chi_alias)
        worst_legacy = max(worst_legacy, chi_legacy)
        worst_tv = max(worst_tv, tv)
    return {
        "n": n,
        "alpha": str(alpha),
        "draws_per_row": draws_per_row,
        "chi_square_limit": limit,
        "worst_alias_chi_square": worst_alias,
        "worst_legacy_chi_square": worst_legacy,
        "worst_total_variation_gap": worst_tv,
    }


def bench_throughput(n, alpha, batch, repeats):
    """Batched alias sampling vs the legacy noise-plus-clip path."""
    sampler = cached_geometric_mechanism(n, alpha).sampler()
    rows = np.random.default_rng(7).integers(0, n + 1, size=batch)
    rng = np.random.default_rng(11)
    alias_seconds, alias_out = best_of(
        lambda: sampler.sample(rows, rng), repeats=repeats
    )
    rng = np.random.default_rng(11)
    legacy_seconds, legacy_out = best_of(
        lambda: np.clip(
            rows + sample_two_sided_geometric(float(alpha), rng, batch),
            0,
            n,
        ),
        repeats=repeats,
    )
    assert alias_out.min() >= 0 and alias_out.max() <= n
    assert legacy_out.min() >= 0 and legacy_out.max() <= n
    return {
        "n": n,
        "alpha": str(alpha),
        "batch": batch,
        "alias_seconds": alias_seconds,
        "legacy_seconds": legacy_seconds,
        "alias_samples_per_second": batch / alias_seconds,
        "legacy_samples_per_second": batch / legacy_seconds,
        "alias_vs_legacy": legacy_seconds / alias_seconds,
    }


def bench_heterogeneous(batch, repeats):
    """One fused tick across deployments of mixed size and alpha."""
    deployments = [
        (5, Fraction(1, 3)),
        (20, Fraction(1, 2)),
        (50, Fraction(2, 3)),
    ]
    fused = HeterogeneousAliasSampler(
        cached_geometric_mechanism(n, alpha).sampler()
        for n, alpha in deployments
    )
    seed_rng = np.random.default_rng(13)
    tables = seed_rng.integers(0, len(deployments), size=batch)
    sizes = np.array([n + 1 for n, _ in deployments], dtype=np.int64)
    rows = seed_rng.integers(0, sizes[tables])
    rng = np.random.default_rng(17)
    seconds, out = best_of(
        lambda: fused.sample(tables, rows, rng), repeats=repeats
    )
    assert out.min() >= 0 and (out < sizes[tables]).all()
    return {
        "deployments": [
            {"n": n, "alpha": str(alpha)} for n, alpha in deployments
        ],
        "batch": batch,
        "seconds": seconds,
        "heterogeneous_samples_per_second": batch / seconds,
    }


def main(argv=None):
    args = parse_args(
        argv, __doc__,
        "exit nonzero when the full-mode throughput floor "
        "(>= 1e7 alias samples/sec) is missed; quick mode still "
        "enforces bit-exactness and the statistical assertions",
    )

    if args.quick:
        batch, repeats, draws_per_row = 200_000, 3, 120_000
    else:
        batch, repeats, draws_per_row = 4_000_000, 5, 400_000

    exactness = check_exactness()
    statistics = check_statistics(draws_per_row)
    throughput = [
        bench_throughput(n, alpha, batch, repeats)
        for n, alpha in [(10, Fraction(1, 3)), (100, Fraction(1, 2))]
    ]
    heterogeneous = bench_heterogeneous(batch, repeats)

    results = {
        "exactness": exactness,
        "statistics": statistics,
        "throughput": throughput,
        "heterogeneous": heterogeneous,
        "targets": {"alias_samples_per_second": SAMPLES_PER_SECOND_FLOOR},
    }

    lines = ["alias-table sampling vs legacy two-sided-geometric + clip:"]
    for row in throughput:
        lines.append(
            "  n={n} alpha={alpha} batch={batch}: alias "
            "{alias_samples_per_second:12.3e}/s vs legacy "
            "{legacy_samples_per_second:12.3e}/s "
            "({alias_vs_legacy:4.1f}x)".format(**row)
        )
    lines.append(
        "  heterogeneous tick ({count} deployments, batch={batch}): "
        "{heterogeneous_samples_per_second:12.3e}/s".format(
            count=len(heterogeneous["deployments"]), **heterogeneous
        )
    )
    lines.append(
        "  exactness: {rows} alias rows reconstruct the exact rational "
        "kernel bit-for-bit (asserted)".format(rows=exactness["rows_checked"])
    )
    lines.append(
        "  statistics: worst chi2 alias={worst_alias_chi_square:.1f} "
        "legacy={worst_legacy_chi_square:.1f} (limit "
        "{chi_square_limit:.1f}), worst alias-vs-legacy TV gap "
        "{worst_total_variation_gap:.4f} (asserted)".format(**statistics)
    )
    emit("sampling", "\n".join(lines))
    emit_bench("sampling", results, quick=args.quick)

    if args.check and not args.quick:
        failures = [
            f"alias throughput n={row['n']}: "
            f"{row['alias_samples_per_second']:.2e}/s < "
            f"{SAMPLES_PER_SECOND_FLOOR:.0e}/s"
            for row in throughput
            if row["alias_samples_per_second"] < SAMPLES_PER_SECOND_FLOOR
        ]
        if failures:
            print("sampling targets missed: " + "; ".join(failures))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
