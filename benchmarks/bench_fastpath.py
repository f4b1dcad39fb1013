"""Benchmark: vectorized fast paths vs the loop-based references.

Tracks the perf trajectory of the mechanism pipeline's fast paths:

* float ``geometric_matrix`` built by numpy broadcasting vs the
  O(n^2)-Python-ops loop construction (target: >= 20x at n=512);
* ``worst_case_loss`` with the cached loss table and vectorized row sums
  vs the old rebuild-the-table-per-row evaluation (target: >= 10x at
  n=256);
* ``Publisher.publish_batch`` (one vectorized noise draw for the whole
  batch) vs a sequential ``publish`` loop over 10k queries;
* fraction-free (Bareiss) exact ``inverse`` vs naive Fraction
  Gauss-Jordan;

and re-asserts that the exact (Fraction) outputs are bit-identical to
the loop constructions.

Standalone: ``PYTHONPATH=src python benchmarks/bench_fastpath.py``
(add ``--quick`` for a CI smoke run, ``--check`` to fail when full-mode
targets are missed). Emits a ``BENCH {json}`` line for dashboards and
archives a human-readable report under ``benchmarks/out/``.
"""

import sys
import time
from fractions import Fraction

import numpy as np

from _report import emit, emit_bench, parse_args

from repro.core.geometric import (
    GeometricMechanism,
    _geometric_matrix_loops,
    geometric_matrix,
)
from repro.db.generators import flu_population, flu_query
from repro.linalg.rational import RationalMatrix
from repro.linalg.toeplitz import kms_matrix
from repro.losses import AbsoluteLoss
from repro.losses.base import loss_matrix
from repro.release.publisher import Publisher


def best_of(fn, repeats=3):
    """Minimum wall time of ``repeats`` runs (steady-state timing)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def reference_worst_case_loss(mechanism, loss, rows=None):
    """The pre-refactor evaluation: rebuilds the loss table per row.

    ``rows`` limits the evaluation to the first ``rows`` rows so the
    benchmark can time a slice of the quadratic-per-row reference and
    extrapolate instead of spending minutes in the old code path.
    """
    matrix = mechanism.matrix
    size = mechanism.size
    rows = size if rows is None else min(rows, size)
    return max(
        sum(
            loss_matrix(loss, mechanism.n)[i, r] * matrix[i, r]
            for r in range(size)
        )
        for i in range(rows)
    )


def reference_inverse(matrix: RationalMatrix) -> RationalMatrix:
    """The pre-refactor naive Fraction Gauss-Jordan inverse."""
    size = matrix.shape[0]
    work = [
        list(row) + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix.rows())
    ]
    for col in range(size):
        pivot_row = next(r for r in range(col, size) if work[r][col] != 0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [entry / pivot for entry in work[col]]
        for r in range(size):
            if r == col or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [
                entry - factor * top for entry, top in zip(work[r], work[col])
            ]
    return RationalMatrix([row[size:] for row in work])


def bench_geometric_matrix(n):
    loops = best_of(lambda: _geometric_matrix_loops(n, 0.5), repeats=3)
    vectorized = best_of(lambda: geometric_matrix(n, 0.5), repeats=9)
    return {
        "n": n,
        "loop_seconds": loops,
        "vectorized_seconds": vectorized,
        "speedup": loops / vectorized,
    }


def bench_worst_case_loss(n, sample_rows=8):
    mechanism = GeometricMechanism(n, 0.5)
    loss = AbsoluteLoss()
    # Time the old path on a slice of rows and scale up: it is linear in
    # the row count (each row rebuilds the full O(n^2) loss table).
    sample_rows = min(sample_rows, mechanism.size)
    sampled = best_of(
        lambda: reference_worst_case_loss(mechanism, loss, rows=sample_rows),
        repeats=1,
    )
    old = sampled * mechanism.size / sample_rows
    mechanism.worst_case_loss(loss)  # warm the shared loss-table cache
    new = best_of(lambda: mechanism.worst_case_loss(loss), repeats=5)
    return {
        "n": n,
        "rebuild_seconds_extrapolated": old,
        "cached_vectorized_seconds": new,
        "speedup": old / new,
    }


def bench_publish_batch(batch_size):
    publisher = Publisher(flu_population(40, 3), Fraction(1, 2))
    queries = [flu_query()] * batch_size
    rng_batch = np.random.default_rng(0)
    batch = best_of(
        lambda: publisher.publish_batch(queries, rng_batch), repeats=1
    )
    rng_loop = np.random.default_rng(0)
    sequential = best_of(
        lambda: [publisher.publish(query, rng_loop) for query in queries],
        repeats=1,
    )
    return {
        "batch_size": batch_size,
        "sequential_seconds": sequential,
        "batch_seconds": batch,
        "speedup": sequential / batch,
    }


def bench_exact_inverse(size):
    matrix = kms_matrix(size, Fraction(3, 7))
    naive = best_of(lambda: reference_inverse(matrix), repeats=1)
    bareiss = best_of(matrix.inverse, repeats=3)
    assert matrix.inverse() == reference_inverse(matrix)
    return {
        "size": size,
        "naive_seconds": naive,
        "bareiss_seconds": bareiss,
        "speedup": naive / bareiss,
    }


def check_exact_bit_identity(n, alpha):
    vectorized = geometric_matrix(n, alpha)
    loops = _geometric_matrix_loops(n, alpha)
    identical = bool((vectorized == loops).all())
    assert identical, "exact geometric_matrix diverged from the loop build"
    return {"n": n, "alpha": str(alpha), "bit_identical": identical}


def main(argv=None):
    args = parse_args(
        argv, __doc__,
        "exit nonzero when full-mode speedup targets are missed",
    )

    if args.quick:
        sizes = {"geometric": 128, "worst_case": 48, "batch": 2000, "kms": 12}
    else:
        sizes = {"geometric": 512, "worst_case": 256, "batch": 10000, "kms": 24}

    results = {
        "geometric_matrix_float": bench_geometric_matrix(sizes["geometric"]),
        "worst_case_loss_float": bench_worst_case_loss(sizes["worst_case"]),
        "publish_batch": bench_publish_batch(sizes["batch"]),
        "exact_inverse_bareiss": bench_exact_inverse(sizes["kms"]),
        "exact_bit_identity": check_exact_bit_identity(64, Fraction(1, 3)),
        "targets": {
            "geometric_matrix_float": 20.0,
            "worst_case_loss_float": 10.0,
        },
    }

    lines = [
        "fast-path speedups (loop/reference vs vectorized/cached):",
        "  geometric_matrix float n={n}: {speedup:8.1f}x "
        "({loop_seconds:.4f}s -> {vectorized_seconds:.6f}s)".format(
            **results["geometric_matrix_float"]
        ),
        "  worst_case_loss  float n={n}: {speedup:8.1f}x "
        "({rebuild_seconds_extrapolated:.4f}s extrapolated -> "
        "{cached_vectorized_seconds:.6f}s)".format(
            **results["worst_case_loss_float"]
        ),
        "  publish_batch  {batch_size} queries: {speedup:8.1f}x "
        "({sequential_seconds:.4f}s -> {batch_seconds:.6f}s)".format(
            **results["publish_batch"]
        ),
        "  exact inverse (KMS {size}x{size}): {speedup:8.1f}x "
        "({naive_seconds:.4f}s -> {bareiss_seconds:.6f}s)".format(
            **results["exact_inverse_bareiss"]
        ),
        "  exact geometric_matrix n=64 bit-identical: {0}".format(
            results["exact_bit_identity"]["bit_identical"]
        ),
    ]
    emit("fastpath", "\n".join(lines))
    emit_bench("fastpath", results, quick=args.quick)

    if args.check and not args.quick:
        failures = []
        for key, target in results["targets"].items():
            speedup = results[key]["speedup"]
            if speedup < target:
                failures.append(f"{key}: {speedup:.1f}x < {target:.0f}x")
        if failures:
            print("fastpath targets missed: " + "; ".join(failures))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
