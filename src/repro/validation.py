"""Shared argument-validation helpers.

These helpers centralize the checks that appear across the library:
privacy parameters, result ranges, probability vectors and stochastic
matrices. They raise :class:`repro.exceptions.ValidationError` (or a
subclass) with actionable messages.

Two numeric regimes coexist in the library:

* *exact* — entries are :class:`fractions.Fraction` (or :class:`int`);
  validation is performed with exact comparisons;
* *float* — entries are floats / numpy floats; validation uses an
  absolute tolerance ``ATOL``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from numbers import Rational

import numpy as np

from .exceptions import NotStochasticError, ValidationError

__all__ = [
    "ATOL",
    "check_alpha",
    "check_result_range",
    "check_index",
    "check_probability_vector",
    "check_row_stochastic",
    "check_setting",
    "is_exact_array",
    "as_fraction",
    "as_fraction_matrix",
    "as_float_matrix",
]

#: Absolute tolerance used for float-regime stochasticity and privacy checks.
ATOL: float = 1e-9

#: The range of each bounded serving setting, by its
#: :class:`~repro.serving.ServerConfig` field name, as an interval. The
#: config checks every one here, and so does the layer that takes the
#: setting as its own argument (the batcher, auditor, tracer, admission
#: controller and WAL breaker).
SETTING_RANGES = {
    "batch_window": "[0, inf)", "batch_max": "[1, inf)",
    "audit_rate": "[0, 1]", "trace_rate": "[0, 1]", "trace_ring": "[0, inf)",
    "queue_depth": "[0, inf)", "shed_deadline": "[0, inf)",
    "breaker_cooldown": "(0, inf)", "audit_every": "[0, inf)",
    "drain_deadline": "[0, inf)",
}


def check_setting(name: str, value):
    """Return ``value`` if it lies in setting ``name``'s interval in
    :data:`SETTING_RANGES`; raise :class:`ValidationError` if not."""
    interval = SETTING_RANGES[name]
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above_low = low <= value if interval[0] == "[" else low < value
    if not (above_low and value <= high):
        raise ValidationError(f"{name} must lie in {interval}, got {value!r}")
    return value


def check_alpha(alpha: object, *, allow_endpoints: bool = False) -> None:
    """Validate a privacy parameter ``alpha``.

    The paper's privacy parameter lives in ``[0, 1]``: ``alpha = 0`` means
    no privacy and ``alpha = 1`` means absolute privacy (Section 2.1).
    Most constructions require the open interval ``(0, 1)``.

    Parameters
    ----------
    alpha:
        The candidate privacy parameter (float or Fraction).
    allow_endpoints:
        When true, accept ``alpha`` equal to 0 or 1.

    Raises
    ------
    ValidationError
        If ``alpha`` is not a real number in the required interval.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, Fraction)):
        raise ValidationError(
            f"alpha must be a real number in [0, 1], got {alpha!r}"
        )
    if isinstance(alpha, float) and not np.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    low_ok = alpha >= 0 if allow_endpoints else alpha > 0
    high_ok = alpha <= 1 if allow_endpoints else alpha < 1
    if not (low_ok and high_ok):
        interval = "[0, 1]" if allow_endpoints else "(0, 1)"
        raise ValidationError(f"alpha must lie in {interval}, got {alpha!r}")


def check_result_range(n: object) -> int:
    """Validate the maximum count ``n`` and return it as an ``int``.

    The result set of a count query over a database with ``n`` rows is
    ``N = {0, ..., n}``; mechanisms are ``(n+1) x (n+1)`` matrices.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return n


def check_index(value: object, n: int, *, name: str = "index") -> int:
    """Validate that ``value`` is an integer in ``{0, ..., n}``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not 0 <= value <= n:
        raise ValidationError(
            f"{name} must lie in [0, {n}], got {value}"
        )
    return value


def is_exact_array(matrix: np.ndarray) -> bool:
    """Return ``True`` if ``matrix`` holds exact (Rational) entries.

    An object-dtype array whose entries are all :class:`numbers.Rational`
    (``int`` or :class:`~fractions.Fraction`) is considered exact.
    """
    if matrix.dtype != object:
        return False
    return all(isinstance(entry, Rational) for entry in matrix.flat)


def as_fraction(value: object, *, name: str = "value") -> Fraction:
    """Convert ``value`` to an exact :class:`~fractions.Fraction`.

    Floats are converted via :meth:`Fraction.limit_denominator` only when
    they are exactly representable; otherwise an error is raised, because
    silently rationalizing a float would hide precision bugs.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, float):
        # Every float is technically an exact binary rational, but a value
        # like 0.1 converts to 3602879701896397/2**55 — almost never what
        # the caller meant. Accept only "clean" dyadic values (denominator
        # a small power of two, e.g. 0.5, 0.25, 0.375).
        exact = Fraction(value)
        denominator = exact.denominator
        if denominator <= 4096 and denominator & (denominator - 1) == 0:
            return exact
        raise ValidationError(
            f"{name}={value!r} is a float without a small exact binary "
            "value; pass a Fraction for exact-arithmetic APIs"
        )
    raise ValidationError(f"{name} must be rational, got {value!r}")


def as_fraction_matrix(rows: Iterable[Iterable[object]]) -> np.ndarray:
    """Build an object-dtype numpy matrix of Fractions from nested data."""
    data = [[as_fraction(entry) for entry in row] for row in rows]
    if not data:
        raise ValidationError("matrix must have at least one row")
    width = len(data[0])
    if width == 0 or any(len(row) != width for row in data):
        raise ValidationError("matrix rows must be non-empty and equal-length")
    out = np.empty((len(data), width), dtype=object)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            out[i, j] = entry
    return out


def as_float_matrix(matrix: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Convert matrix-like data to a 2-D float64 numpy array."""
    out = np.asarray(
        [[float(entry) for entry in row] for row in np.asarray(matrix, dtype=object)]
    )
    if out.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got ndim={out.ndim}")
    return out


def check_probability_vector(
    vector: np.ndarray, *, exact: bool | None = None, name: str = "vector"
) -> None:
    """Validate that ``vector`` is a probability distribution.

    Parameters
    ----------
    vector:
        1-D array of probabilities.
    exact:
        Force exact (``True``) or tolerant (``False``) comparison; by
        default inferred from the array dtype.
    """
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={vector.ndim}")
    if exact is None:
        exact = is_exact_array(vector)
    total = sum(vector.tolist())
    if exact:
        if any(entry < 0 for entry in vector.tolist()):
            raise NotStochasticError(f"{name} has a negative entry")
        if total != 1:
            raise NotStochasticError(f"{name} sums to {total}, expected 1")
    else:
        values = vector.astype(float)
        if (values < -ATOL).any():
            raise NotStochasticError(f"{name} has a negative entry")
        if abs(float(values.sum()) - 1.0) > max(ATOL, ATOL * len(values)):
            raise NotStochasticError(
                f"{name} sums to {float(values.sum())!r}, expected 1"
            )


def check_row_stochastic(
    matrix: np.ndarray, *, exact: bool | None = None, name: str = "matrix"
) -> None:
    """Validate that every row of ``matrix`` is a probability distribution.

    Raises
    ------
    NotStochasticError
        With the index of the first offending row.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={matrix.ndim}")
    if exact is None:
        exact = is_exact_array(matrix)
    for i in range(matrix.shape[0]):
        try:
            check_probability_vector(
                matrix[i], exact=exact, name=f"{name} row {i}"
            )
        except NotStochasticError as err:
            raise NotStochasticError(str(err), row=i) from None
