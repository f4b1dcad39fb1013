"""Persistent, content-addressed LP solve cache.

Every exact theorem check bottoms out in a handful of canonical linear
programs, and sweeps re-solve the same programs across runs, processes,
and machines. :class:`SolveCache` stores solved programs keyed by a
SHA-256 hash of the *canonical program text* — objective, constraint
rows, and right-hand sides, with every coefficient serialized losslessly
(``Fraction`` as ``p/q``, floats as C99 hex) — so a cache entry can never
go stale: any change to the program changes its key.

The store is a :class:`repro.storage.DirectoryStore`: a directory of
JSON files (two-level fan-out on the key prefix), each written
atomically and durably by :func:`repro.storage.write_durable`, so
concurrent readers and writers — in particular the ``workers=`` process
pools of :mod:`repro.analysis.sweeps` — share one cache directory
safely: racing writers of the same key write identical bytes, and
readers never observe a partial file. A small bounded in-memory layer
sits above the directory for repeated hits inside one process.

A process-wide default cache can be enabled by setting the
``REPRO_CACHE_DIR`` environment variable (or
:func:`set_default_cache`); callers opt out per call by passing
``solve_cache=False``.
"""

from __future__ import annotations

import hashlib
import operator
from fractions import Fraction

from ..exceptions import ValidationError
from ..storage import DirectoryStore, gc_directory
from .base import LinearProgram, LPSolution

__all__ = [
    "SolveCache",
    "canonical_key",
    "canonical_terms",
    "default_cache",
    "set_default_cache",
    "resolve_cache",
    "encode_number",
    "decode_number",
    "gc_directory",
]

#: Bump when the on-disk payload or canonical text changes shape.
_FORMAT_VERSION = 1

#: Environment variable enabling the process-wide default cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _encode_number(value) -> str:
    """Lossless, regime-tagged text form of an LP coefficient.

    Exact and float values that compare equal (``Fraction(1, 2)`` vs
    ``0.5``) must encode differently — they describe different programs.
    """
    if isinstance(value, Fraction):
        return f"F{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return f"i{int(value)}"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value.hex()}"
    try:  # numpy integer scalars and other index-able integrals
        return f"i{operator.index(value)}"
    except TypeError:
        pass
    raise ValidationError(
        f"cannot canonically serialize LP coefficient {value!r} "
        f"of type {type(value).__name__}"
    )


def _decode_number(text: str):
    kind, payload = text[0], text[1:]
    if kind == "F":
        numerator, denominator = payload.split("/")
        return Fraction(int(numerator), int(denominator))
    if kind == "i":
        return int(payload)
    if kind == "f":
        return float.fromhex(payload)
    raise ValidationError(f"unknown cached coefficient encoding {text!r}")


#: Public names for the lossless coefficient codec. The compiled
#: mechanism artifacts of :mod:`repro.release.artifacts` serialize their
#: exact kernels, sampling thresholds, and certificate duals with the
#: same regime-tagged encoding, so one codec governs every store.
encode_number = _encode_number
decode_number = _decode_number


def canonical_terms(terms) -> str:
    """Canonical text of a sparse ``(variable, coeff)`` term list."""
    return ",".join(f"{var}:{_encode_number(coeff)}" for var, coeff in terms)


def canonical_key(program: LinearProgram, *, variant: str = "") -> str:
    """Content hash of a program (plus an optional caller variant tag).

    The hash covers the variable count, objective, and every constraint
    row with its exact coefficients and right-hand side, so two programs
    share a key iff they are the same program — stale cache entries are
    impossible by construction. ``variant`` lets callers separate
    different *solves* of the same program (e.g. the Lemma 5 refined
    solve) into distinct entries.
    """
    parts = [f"v{_FORMAT_VERSION}", f"n{program.num_vars}"]
    parts.append("min " + canonical_terms(program.objective_terms))
    for terms, rhs in program.le_constraints:
        parts.append(canonical_terms(terms) + "<=" + _encode_number(rhs))
    for terms, rhs in program.eq_constraints:
        parts.append(canonical_terms(terms) + "==" + _encode_number(rhs))
    if variant:
        parts.append("variant " + variant)
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()




class SolveCache(DirectoryStore):
    """Directory-backed, content-addressed store of exact LP solutions.

    Parameters
    ----------
    path:
        Cache directory (created lazily on first store).

    Attributes
    ----------
    stats:
        ``{"hits", "misses", "stores"}`` counters for this instance —
        the warm-sweep benchmark asserts ``misses == 0`` on a second
        run, i.e. zero LP solves.
    """

    env = CACHE_DIR_ENV
    memory_entries = 1024
    metric = (
        "repro_solve_cache_total",
        "Solve-cache lookups and stores, by result.",
        "result",
    )

    def key(self, program: LinearProgram, *, variant: str = "") -> str:
        """Content key for ``program`` (see :func:`canonical_key`)."""
        return canonical_key(program, variant=variant)

    def decode(self, payload, key: str) -> LPSolution:
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _FORMAT_VERSION
        ):
            raise ValidationError(
                f"solve-cache entry is not format version {_FORMAT_VERSION}"
            )
        try:
            return LPSolution(
                values=[_decode_number(value) for value in payload["values"]],
                objective=_decode_number(payload["objective"]),
                backend=str(payload["backend"]),
            )
        except (KeyError, TypeError, IndexError) as err:
            raise ValidationError(
                f"solve-cache entry is damaged: {err!r}"
            ) from None

    def get_key(self, key: str) -> LPSolution | None:
        """Return the cached solution for ``key``, or ``None``."""
        cached = self._lookup(key)
        if cached is None:
            return None
        return LPSolution(
            values=list(cached.values),
            objective=cached.objective,
            backend=cached.backend,
        )

    def get(
        self, program: LinearProgram, *, variant: str = ""
    ) -> LPSolution | None:
        """Return the cached solution for ``program``, or ``None``."""
        return self.get_key(self.key(program, variant=variant))

    def put_key(self, key: str, solution: LPSolution) -> None:
        """Persist ``solution`` under ``key`` (atomic and durable)."""
        self._write(key, solution, {
            "version": _FORMAT_VERSION,
            "objective": _encode_number(solution.objective),
            "values": [_encode_number(value) for value in solution.values],
            "backend": solution.backend,
        })

    def put(
        self,
        program: LinearProgram,
        solution: LPSolution,
        *,
        variant: str = "",
    ) -> None:
        """Persist the solution of ``program``."""
        self.put_key(self.key(program, variant=variant), solution)


default_cache = SolveCache.default
set_default_cache = SolveCache.set_default
resolve_cache = SolveCache.resolve
