"""Benchmark: derivability-reparameterized (factor-space) LP solving.

Theorem 2 proves every minimax-optimal mechanism factors through the
geometric mechanism as ``x = G @ T`` with ``T`` row-stochastic, so the
Section 2.5 LP can be solved over ``(T, d)`` where the ``Theta(n^2)``
privacy block collapses into non-negativity and only ``Theta(n)`` rows
remain. This benchmark measures that reformulation against the PR 2
certify-first hybrid on Table-1-style instances (absolute loss, full
side information):

* ``hybrid_seconds`` — the PR 2 baseline: ``HybridBackend`` on the full
  x-space program;
* ``factor_solve_seconds`` — the reparameterized solve: build the
  factor program, direct-HiGHS solve with basis extraction, exact
  vertex reconstruction, and the exact map back to mechanism space;
* ``factor_certified_seconds`` — the same plus the exact x-space
  primal/dual certificate (the correctness gate the production path
  runs; ``None`` is never tolerated here).

Optimal losses must be bit-identical across both paths (``168/415`` for
the Table 1 cell), and every factor-space solution must pass the
certificate. A second benchmark runs a universality sweep twice against
one persistent :class:`repro.solvers.cache.SolveCache` directory and
asserts the warm run performs **zero LP solves** (cache misses == 0).

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_reparam.py``
(``--quick`` for a CI smoke run, ``--check`` to fail when the full-mode
speedup floor — factor solve >= 3x hybrid at n >= 6 — is missed; in
quick mode ``--check`` enforces the exactness, certificate, and
warm-cache assertions only). Emits a ``BENCH {json}`` line, writes
``benchmarks/out/BENCH_reparam.json``, and archives a report.
"""

import sys
import tempfile
import time
from fractions import Fraction

from _report import emit, emit_bench, parse_args

from repro.analysis.sweeps import universality_sweep
from repro.core.optimal import build_optimal_lp, factor_space_candidate
from repro.losses import AbsoluteLoss, SquaredLoss
from repro.losses.base import loss_matrix
from repro.solvers.cache import SolveCache
from repro.solvers.hybrid import HybridBackend, certify_solution
from repro.solvers.scipy_backend import has_direct_highs


def best_of(fn, repeats=3):
    """Minimum wall time of ``repeats`` runs plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def bench_instance(n, alpha, *, repeats=3, require_certified=False):
    table = loss_matrix(AbsoluteLoss(), n)
    members = list(range(n + 1))
    program, _ = build_optimal_lp(n, alpha, table, members)
    factor_program, _ = build_optimal_lp(
        n, alpha, table, members, space="factor"
    )

    hybrid_backend = HybridBackend()
    hybrid_seconds, hybrid = best_of(
        lambda: hybrid_backend.solve(program), repeats=repeats
    )
    if require_certified:
        # Full mode only: comparing against a hybrid run that routed
        # through the simplex fallback would flatter the speedup.
        assert hybrid_backend.last_path == "certified", (
            f"expected a certified hybrid baseline at n={n}, got "
            f"{hybrid_backend.last_path}"
        )

    def factor_solve():
        candidate = factor_space_candidate(n, alpha, table, members)
        assert candidate is not None, (
            f"factor-space solve failed at n={n} (direct HiGHS basis "
            f"unavailable or degenerate)"
        )
        return candidate

    factor_seconds, candidate = best_of(factor_solve, repeats=repeats)

    def certify():
        certified = certify_solution(
            program, candidate.values, name="factor-certified"
        )
        assert certified is not None, (
            f"x-space certificate failed at n={n}: the factor-space "
            f"solution could not be proven optimal"
        )
        return certified

    certify_seconds, certified = best_of(certify, repeats=repeats)

    assert candidate.objective == hybrid.objective, (
        f"factor-space optimum diverged at n={n}: "
        f"{candidate.objective} != {hybrid.objective}"
    )
    assert certified.objective == hybrid.objective
    total = factor_seconds + certify_seconds
    return {
        "n": n,
        "alpha": str(alpha),
        "x_rows": program.num_constraints(),
        "factor_rows": factor_program.num_constraints(),
        "objective": str(candidate.objective),
        "hybrid_seconds": hybrid_seconds,
        "factor_solve_seconds": factor_seconds,
        "factor_certify_seconds": certify_seconds,
        "factor_certified_seconds": total,
        "factor_solve_vs_hybrid": hybrid_seconds / factor_seconds,
        "factor_certified_vs_hybrid": hybrid_seconds / total,
        "hybrid_path": hybrid_backend.last_path,
    }


def bench_warm_cache(quick):
    """Sweep twice against one cache directory; warm run = zero solves."""
    sizes = (2, 3) if quick else (3, 4, 5)
    cases = [
        (n, alpha, loss, None)
        for n in sizes
        for alpha in (Fraction(1, 2), Fraction(1, 3))
        for loss in (AbsoluteLoss(), SquaredLoss())
    ]
    with tempfile.TemporaryDirectory() as directory:
        cold_cache = SolveCache(directory)
        cold_start = time.perf_counter()
        cold_records = universality_sweep(
            cases, exact=True, solve_cache=cold_cache
        )
        cold_seconds = time.perf_counter() - cold_start
        warm_cache = SolveCache(directory)  # fresh stats, shared directory
        warm_start = time.perf_counter()
        warm_records = universality_sweep(
            cases, exact=True, solve_cache=warm_cache
        )
        warm_seconds = time.perf_counter() - warm_start
    assert warm_cache.stats["misses"] == 0, (
        f"warm sweep still solved LPs: {warm_cache.stats}"
    )
    assert warm_cache.stats["hits"] == 2 * len(cases)
    assert [
        (record.bespoke_loss, record.interaction_loss, record.holds)
        for record in cold_records
    ] == [
        (record.bespoke_loss, record.interaction_loss, record.holds)
        for record in warm_records
    ], "warm-cache sweep records diverged from the cold run"
    assert all(record.holds for record in warm_records)
    return {
        "cells": len(cases),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "cold_stats": dict(cold_cache.stats),
        "warm_stats": dict(warm_cache.stats),
        "warm_lp_solves": warm_cache.stats["misses"],
    }


def main(argv=None):
    args = parse_args(
        argv, __doc__,
        "exit nonzero when full-mode speedup targets are missed "
        "(quick mode still enforces exactness, certificates, and the "
        "zero-solve warm cache)",
    )

    if not has_direct_highs():
        print(
            "bench_reparam: direct HiGHS bindings unavailable in this "
            "scipy build; factor-space fast path cannot run"
        )
        return 1 if args.check else 0

    if args.quick:
        instances = [(3, Fraction(1, 4)), (4, Fraction(1, 3))]
        repeats = 3
    else:
        instances = [
            (3, Fraction(1, 4)),
            (6, Fraction(1, 3)),
            (7, Fraction(1, 3)),
            (9, Fraction(1, 3)),
        ]
        repeats = 5

    rows = [
        bench_instance(
            n, alpha, repeats=repeats, require_certified=not args.quick
        )
        for n, alpha in instances
    ]
    table1 = next(row for row in rows if row["n"] == 3)
    assert table1["objective"] == "168/415", (
        f"Table 1 cell objective {table1['objective']} != 168/415"
    )
    warm = bench_warm_cache(args.quick)

    targets = {
        # Acceptance: the reparameterized solve beats the PR 2 hybrid by
        # >= 3x on every benched Table-1-style instance with n >= 6.
        "factor_solve_vs_hybrid_at_n6plus": 3.0,
    }
    results = {
        "instances": rows,
        "warm_cache_sweep": warm,
        "targets": targets,
    }

    lines = [
        "derivability-reparameterized (factor-space) LP solves vs PR 2 hybrid:",
    ]
    for row in rows:
        lines.append(
            "  n={n} ({x_rows} x-rows -> {factor_rows} factor-rows, "
            "optimum {objective}): hybrid {hybrid_seconds:8.4f}s -> "
            "factor solve {factor_solve_seconds:8.4f}s "
            "({factor_solve_vs_hybrid:5.1f}x), "
            "+certificate {factor_certified_seconds:8.4f}s "
            "({factor_certified_vs_hybrid:5.1f}x)".format(**row)
        )
    lines.append(
        "  all optimal losses bit-identical and every factor solution "
        "passed the exact x-space primal/dual certificate (asserted)"
    )
    lines.append(
        "  warm-cache sweep ({cells} cells): cold {cold_seconds:.3f}s -> "
        "warm {warm_seconds:.3f}s ({warm_speedup:.1f}x), "
        "warm LP solves: {warm_lp_solves}".format(**warm)
    )
    emit("reparam", "\n".join(lines))
    emit_bench("reparam", results, quick=args.quick)

    if args.check and not args.quick:
        failures = []
        floor = targets["factor_solve_vs_hybrid_at_n6plus"]
        for row in rows:
            if row["n"] >= 6 and row["factor_solve_vs_hybrid"] < floor:
                failures.append(
                    f"factor solve at n={row['n']}: "
                    f"{row['factor_solve_vs_hybrid']:.1f}x < {floor:.0f}x"
                )
        if failures:
            print("reparam targets missed: " + "; ".join(failures))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
