"""Benchmark: exact LP solve latency across solver backends.

Times the Section 2.5 bespoke-optimal LP (the workhorse behind every
theorem check) on three exact backends:

* ``legacy-fraction-simplex`` — the pre-refactor reference: a dense
  Fraction tableau paying per-entry gcd normalization on every pivot
  (preserved here, like the other reference implementations in this
  suite, so the speedup trajectory stays measurable);
* ``exact-simplex`` — the integer fraction-free (Bareiss/Edmonds
  pivoting) tableau;
* ``hybrid-certified`` — certify-first: float HiGHS solve, exact sparse
  basis reconstruction, exact primal/dual certificate.

All three must agree exactly: objectives are compared as Fractions, and
the simplex variants (which share pivot rules) must match entry-for-
entry; the hybrid's certified vertex is checked against the simplex
vertex on the paper-style instances, where the optimum is unique.

Standalone: ``PYTHONPATH=src:benchmarks python benchmarks/bench_lp_solvers.py``
(``--quick`` for a CI smoke run, ``--check`` to fail when full-mode
speedup targets are missed; in quick mode ``--check`` only enforces the
exactness assertions). Emits a ``BENCH {json}`` line and archives a
report under ``benchmarks/out/``.
"""

import sys
import time
from fractions import Fraction

from _report import emit, emit_bench, parse_args

from repro.core.optimal import build_optimal_lp
from repro.losses import AbsoluteLoss
from repro.losses.base import loss_matrix
from repro.solvers.base import LinearProgram, LPSolution, coerce_exact
from repro.solvers.hybrid import HybridBackend
from repro.solvers.simplex import ExactSimplexBackend
from repro.exceptions import (
    InfeasibleProgramError,
    SolverError,
    UnboundedProgramError,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def best_of(fn, repeats=3):
    """Minimum wall time of ``repeats`` runs plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


# ---------------------------------------------------------------------------
# Pre-refactor reference: dense Fraction tableau (per-entry gcd per pivot).
# ---------------------------------------------------------------------------
class _LegacyTableau:
    def __init__(self, rows, basis, num_columns):
        self.rows = rows
        self.basis = basis
        self.num_columns = num_columns
        self.objective = []

    def set_objective(self, costs):
        reduced = list(costs) + [_ZERO]
        for row_index, basic_var in enumerate(self.basis):
            coeff = reduced[basic_var]
            if coeff != 0:
                row = self.rows[row_index]
                for j in range(self.num_columns + 1):
                    reduced[j] -= coeff * row[j]
        self.objective = reduced

    def objective_value(self):
        return -self.objective[self.num_columns]

    def pivot(self, pivot_row, pivot_col):
        row = self.rows[pivot_row]
        inv = _ONE / row[pivot_col]
        self.rows[pivot_row] = [entry * inv for entry in row]
        row = self.rows[pivot_row]
        for other_index, other in enumerate(self.rows):
            if other_index == pivot_row or other[pivot_col] == 0:
                continue
            factor = other[pivot_col]
            self.rows[other_index] = [
                entry - factor * pivot_entry
                for entry, pivot_entry in zip(other, row)
            ]
        if self.objective and self.objective[pivot_col] != 0:
            factor = self.objective[pivot_col]
            self.objective = [
                entry - factor * pivot_entry
                for entry, pivot_entry in zip(self.objective, row)
            ]
        self.basis[pivot_row] = pivot_col

    def run(self, allowed_columns):
        allowed = sorted(allowed_columns)
        stall_budget = 12 * (len(self.rows) + 1)
        stalled = 0
        last_objective = self.objective_value()
        use_bland = False
        while True:
            entering = self._entering_column(allowed, use_bland)
            if entering is None:
                return
            pivot_row = None
            best_ratio = None
            for row_index, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff <= 0:
                    continue
                ratio = row[self.num_columns] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (
                        ratio == best_ratio
                        and self.basis[row_index] < self.basis[pivot_row]
                    )
                ):
                    best_ratio = ratio
                    pivot_row = row_index
            if pivot_row is None:
                raise UnboundedProgramError("unbounded")
            self.pivot(pivot_row, entering)
            objective = self.objective_value()
            if objective == last_objective:
                stalled += 1
                if stalled >= stall_budget:
                    use_bland = True
            else:
                stalled = 0
                use_bland = False
                last_objective = objective

    def _entering_column(self, allowed, use_bland):
        if use_bland:
            return next((j for j in allowed if self.objective[j] < 0), None)
        entering = None
        most_negative = _ZERO
        for j in allowed:
            if self.objective[j] < most_negative:
                most_negative = self.objective[j]
                entering = j
        return entering


class LegacyFractionSimplex:
    """The pre-refactor exact backend, kept verbatim as the baseline."""

    name = "legacy-fraction-simplex"

    def solve(self, program: LinearProgram) -> LPSolution:
        tableau, structural = self._build(program)
        self._phase_one(tableau)
        costs = [_ZERO] * tableau.num_columns
        for var, coeff in program.objective_terms:
            costs[var] += coerce_exact(coeff)
        tableau.set_objective(costs)
        tableau.run(range(self._artificial_start))
        solution = [_ZERO] * program.num_vars
        for row_index, basic_var in enumerate(tableau.basis):
            if basic_var < program.num_vars:
                solution[basic_var] = tableau.rows[row_index][
                    tableau.num_columns
                ]
        return LPSolution(
            values=solution,
            objective=tableau.objective_value(),
            backend=self.name,
        )

    def _build(self, program):
        num_structural = program.num_vars
        prepared = []
        for terms, rhs in program.le_constraints:
            dense = [_ZERO] * num_structural
            for var, coeff in terms:
                dense[var] += coerce_exact(coeff)
            rhs = coerce_exact(rhs)
            if rhs < 0:
                prepared.append(([-e for e in dense], -rhs, "ge"))
            else:
                prepared.append((dense, rhs, "le"))
        for terms, rhs in program.eq_constraints:
            dense = [_ZERO] * num_structural
            for var, coeff in terms:
                dense[var] += coerce_exact(coeff)
            rhs = coerce_exact(rhs)
            if rhs < 0:
                dense = [-e for e in dense]
                rhs = -rhs
            prepared.append((dense, rhs, "eq"))
        num_slack = sum(1 for _, _, k in prepared if k in ("le", "ge"))
        num_artificial = sum(1 for _, _, k in prepared if k in ("ge", "eq"))
        total = num_structural + num_slack + num_artificial
        slack_cursor = num_structural
        artificial_cursor = num_structural + num_slack
        self._artificial_start = artificial_cursor
        rows, basis = [], []
        for dense, rhs, kind in prepared:
            row = list(dense) + [_ZERO] * (num_slack + num_artificial)
            row.append(rhs)
            if kind == "le":
                row[slack_cursor] = _ONE
                basis.append(slack_cursor)
                slack_cursor += 1
            elif kind == "ge":
                row[slack_cursor] = -_ONE
                slack_cursor += 1
                row[artificial_cursor] = _ONE
                basis.append(artificial_cursor)
                artificial_cursor += 1
            else:
                row[artificial_cursor] = _ONE
                basis.append(artificial_cursor)
                artificial_cursor += 1
            rows.append(row)
        if not rows:
            raise SolverError("program has no constraints")
        return _LegacyTableau(rows, basis, total), num_structural

    def _phase_one(self, tableau):
        artificial_start = self._artificial_start
        total = tableau.num_columns
        if artificial_start == total:
            return
        costs = [_ZERO] * total
        for j in range(artificial_start, total):
            costs[j] = _ONE
        tableau.set_objective(costs)
        tableau.run(range(artificial_start))
        if tableau.objective_value() != 0:
            raise InfeasibleProgramError("infeasible")
        removable = []
        for row_index, basic_var in enumerate(tableau.basis):
            if basic_var < artificial_start:
                continue
            row = tableau.rows[row_index]
            pivot_col = next(
                (j for j in range(artificial_start) if row[j] != 0), None
            )
            if pivot_col is None:
                removable.append(row_index)
            else:
                tableau.pivot(row_index, pivot_col)
        for row_index in sorted(removable, reverse=True):
            del tableau.rows[row_index]
            del tableau.basis[row_index]


# ---------------------------------------------------------------------------
def optimal_lp_instance(n, alpha):
    table = loss_matrix(AbsoluteLoss(), n)
    program, _ = build_optimal_lp(n, alpha, table, list(range(n + 1)))
    return program


def bench_instance(n, alpha, *, with_legacy=True, require_certified=False):
    program = optimal_lp_instance(n, alpha)
    integer_seconds, integer = best_of(
        lambda: ExactSimplexBackend().solve(program), repeats=3
    )
    hybrid_backend = HybridBackend()
    hybrid_seconds, hybrid = best_of(
        lambda: hybrid_backend.solve(program), repeats=3
    )
    if require_certified:
        # Full mode only: the speedup targets are meaningless if the
        # solve routed through the simplex fallback. Fallback stays a
        # legitimate outcome for smoke runs (it is exact either way).
        assert hybrid_backend.last_path == "certified", (
            f"expected certification at n={n}, got "
            f"{hybrid_backend.last_path}"
        )
    assert hybrid.objective == integer.objective, "exact objectives diverged"
    assert hybrid.values == integer.values, (
        "hybrid vertex diverged from the simplex vertex"
    )
    result = {
        "n": n,
        "alpha": str(alpha),
        "num_vars": program.num_vars,
        "num_constraints": program.num_constraints(),
        "integer_simplex_seconds": integer_seconds,
        "hybrid_seconds": hybrid_seconds,
        "hybrid_vs_integer": integer_seconds / hybrid_seconds,
        "solve_path": hybrid_backend.last_path,
    }
    if with_legacy:
        legacy_seconds, legacy = best_of(
            lambda: LegacyFractionSimplex().solve(program), repeats=1
        )
        assert legacy.objective == integer.objective
        assert legacy.values == integer.values, (
            "integer pivoting diverged from the Fraction tableau"
        )
        result["legacy_fraction_seconds"] = legacy_seconds
        result["integer_vs_legacy"] = legacy_seconds / integer_seconds
        result["hybrid_vs_legacy"] = legacy_seconds / hybrid_seconds
    return result


def main(argv=None):
    args = parse_args(
        argv, __doc__,
        "exit nonzero when full-mode speedup targets are missed "
        "(quick mode still enforces the exact-equality assertions)",
    )

    if args.quick:
        instances = [(3, Fraction(1, 4)), (4, Fraction(1, 3))]
    else:
        instances = [
            (4, Fraction(1, 3)),
            (6, Fraction(1, 3)),
            (7, Fraction(1, 3)),
        ]

    rows = [
        bench_instance(
            n, alpha, with_legacy=True, require_certified=not args.quick
        )
        for n, alpha in instances
    ]
    targets = {
        # Acceptance: certify-first beats the (already integer-pivoting)
        # exact simplex by >= 5x on every benched instance with n >= 6.
        "hybrid_vs_integer_at_n6plus": 5.0,
        "integer_vs_legacy": 5.0,
    }
    results = {
        "instances": rows,
        "targets": targets,
    }

    lines = ["exact LP solve latency (Section 2.5 bespoke-optimal LP):"]
    for row in rows:
        lines.append(
            "  n={n} ({num_vars} vars, {num_constraints} rows): "
            "legacy {legacy_fraction_seconds:8.4f}s -> "
            "integer simplex {integer_simplex_seconds:8.4f}s "
            "({integer_vs_legacy:5.1f}x) -> "
            "hybrid {hybrid_seconds:8.4f}s "
            "({hybrid_vs_integer:5.1f}x vs simplex, "
            "{hybrid_vs_legacy:6.1f}x vs legacy, "
            "{solve_path})".format(**row)
        )
    lines.append("  all backends exact-identical: True (asserted)")
    emit("lp_solvers", "\n".join(lines))
    emit_bench("lp_solvers", results, quick=args.quick)

    if args.check and not args.quick:
        failures = []
        for row in rows:
            if row["n"] >= 6 and row["hybrid_vs_integer"] < targets[
                "hybrid_vs_integer_at_n6plus"
            ]:
                failures.append(
                    f"hybrid at n={row['n']}: "
                    f"{row['hybrid_vs_integer']:.1f}x < 5x"
                )
            if row["integer_vs_legacy"] < targets["integer_vs_legacy"]:
                failures.append(
                    f"integer simplex at n={row['n']}: "
                    f"{row['integer_vs_legacy']:.1f}x < 5x"
                )
        if failures:
            print("lp-solver targets missed: " + "; ".join(failures))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
