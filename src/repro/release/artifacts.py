"""Compiled mechanism artifacts: the deployable unit of the pipeline.

The solver stack (PRs 1/2/5) made Table-1-style optimal-mechanism solves
a low-milliseconds affair; what a *serving* process needs is to never
run a solver at all. A :class:`MechanismArtifact` packages everything a
consumer process touches at publish time:

* the **exact rational kernel** — the mechanism matrix over ``Fraction``;
* the **float matrix** (derived, ``kernel.astype(float)``), the view
  the online auditor compares bespoke deployments against;
* per-row **alias sampling tables** with exact rational thresholds
  (:class:`repro.sampling.alias.AliasTable`), so publishing is O(1)
  lookups per draw and the draw serves the kernel exactly. The
  range-restricted geometric rows already fold the unbounded
  two-sided-geometric tail mass into the cap outputs ``{0, n}``
  exactly, so no tail is ever truncated;
* the **optimality certificate** — for bespoke LP-solved mechanisms, the
  exact strong-duality dual vector of
  :func:`repro.solvers.hybrid.find_certificate`, replayable offline by
  :func:`repro.solvers.hybrid.replay_certificate` with *zero* LP solves.

Artifacts are versioned and content-addressed: the store file is keyed
by the SHA-256 of the canonical spec (so consumers look up by
``(kind, n, alpha, loss, side)``), and the payload carries a SHA-256
digest of its own canonical content, so corruption and tampering are
detected on load and by ``repro cache verify``. Serialization uses the
same lossless regime-tagged number codec as
:class:`repro.solvers.cache.SolveCache` (``Fraction`` as ``p/q``),
writes are atomic ``os.replace``, and a bounded in-memory layer (same
insertion-ordered eviction policy as
:func:`repro.losses.base.cached_loss_matrix`) sits above the directory.

Lifecycle (see ``repro compile`` / ``repro cache verify`` /
``repro cache gc`` in :mod:`repro.cli`)::

    compile  — pre-build artifacts over an (n, alpha, loss) grid,
               reusing the persistent SolveCache for any LP work;
    verify   — replay every stored certificate and re-derive every
               sampling table's pmf against the exact law;
    publish  — Publisher.from_artifact: zero-solve, alias-table
               sampling at line rate.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

try:  # POSIX advisory locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from ..exceptions import SolverError, ValidationError
from ..losses import AbsoluteLoss, SquaredLoss, ZeroOneLoss
from ..losses.base import cached_loss_matrix
from ..sampling.alias import AliasTable, RowAliasSampler
from ..sampling.geometric import two_sided_geometric_pmf
from ..solvers.cache import decode_number, encode_number, gc_directory
from ..solvers.hybrid import find_certificate, replay_certificate
from ..validation import as_fraction, check_alpha, check_result_range

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ARTIFACT_DIR_ENV",
    "ArtifactSpec",
    "MechanismArtifact",
    "ArtifactStore",
    "ArtifactVerification",
    "compile_artifact",
    "verify_artifact",
    "named_loss",
    "LOSS_NAMES",
    "default_artifact_store",
    "set_default_artifact_store",
    "resolve_artifact_store",
    "clear_artifact_memory",
]

#: Bump when the payload shape changes; readers reject other versions.
ARTIFACT_FORMAT_VERSION = 1

#: Environment variable enabling the process-wide default store.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Artifacts kept in each store's in-memory layer (they are O(n^2)
#: objects each, so the bound is tighter than SolveCache's).
_MEMORY_ENTRIES = 32

#: Named losses an artifact spec may reference. Artifacts must be
#: rebuildable from their spec alone, so only registry losses — not
#: arbitrary callables — are compilable.
LOSS_NAMES = {
    "absolute": AbsoluteLoss,
    "squared": SquaredLoss,
    "zero-one": ZeroOneLoss,
}


def named_loss(name: str):
    """Instantiate a registry loss by its canonical name."""
    try:
        return LOSS_NAMES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown loss name {name!r}; compilable losses: "
            f"{sorted(LOSS_NAMES)}"
        ) from None


@dataclass(frozen=True)
class ArtifactSpec:
    """What an artifact *is for* — the lookup key of the store.

    Attributes
    ----------
    kind:
        ``"geometric"`` (the universally optimal deployment, Theorem 1)
        or ``"optimal"`` (a bespoke Section 2.5 LP solution).
    n:
        Maximum query result.
    alpha:
        Privacy level (always exact — artifacts are the trusted tier).
    loss:
        Registry loss name for ``kind="optimal"``; ``None`` otherwise.
    side:
        Sorted admissible results for ``kind="optimal"`` (``None`` means
        the full range); always ``None`` for geometric artifacts.
    """

    kind: str
    n: int
    alpha: Fraction
    loss: str | None = None
    side: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("geometric", "optimal"):
            raise ValidationError(
                f"artifact kind must be 'geometric' or 'optimal', "
                f"got {self.kind!r}"
            )
        check_result_range(self.n)
        object.__setattr__(self, "alpha", as_fraction(self.alpha, name="alpha"))
        check_alpha(self.alpha)
        if self.kind == "optimal":
            if self.loss not in LOSS_NAMES:
                raise ValidationError(
                    f"optimal artifacts need a registry loss name, got "
                    f"{self.loss!r}"
                )
            if self.side is not None:
                members = tuple(sorted(int(i) for i in self.side))
                if not members or any(
                    not 0 <= i <= self.n for i in members
                ):
                    raise ValidationError(
                        f"side information must be a non-empty subset of "
                        f"[0, {self.n}]"
                    )
                object.__setattr__(self, "side", members)
        else:
            if self.loss is not None or self.side is not None:
                raise ValidationError(
                    "geometric artifacts take no loss/side information"
                )

    def members(self) -> list[int]:
        """Admissible results as a concrete list."""
        if self.side is None:
            return list(range(self.n + 1))
        return list(self.side)

    def canonical(self) -> str:
        """Canonical text form (the content under the spec key)."""
        side = (
            "all" if self.side is None else ",".join(map(str, self.side))
        )
        return (
            f"v{ARTIFACT_FORMAT_VERSION} {self.kind} n={self.n} "
            f"alpha={encode_number(self.alpha)} loss={self.loss or '-'} "
            f"side={side}"
        )

    def key(self) -> str:
        """SHA-256 content key of the spec."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "alpha": encode_number(self.alpha),
            "loss": self.loss,
            "side": None if self.side is None else list(self.side),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ArtifactSpec":
        return cls(
            kind=payload["kind"],
            n=int(payload["n"]),
            alpha=decode_number(payload["alpha"]),
            loss=payload.get("loss"),
            side=(
                None
                if payload.get("side") is None
                else tuple(int(i) for i in payload["side"])
            ),
        )


def _payload_digest(payload: dict) -> str:
    """SHA-256 of the canonical payload text (sans the digest field)."""
    content = {k: v for k, v in payload.items() if k != "digest"}
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class MechanismArtifact:
    """A compiled, deployable mechanism (see module docstring).

    Build with :func:`compile_artifact` or load from an
    :class:`ArtifactStore`; not constructed by hand.
    """

    __slots__ = (
        "spec",
        "kernel",
        "loss_value",
        "certificate",
        "_sampler",
        "_float_matrix",
    )

    def __init__(
        self, spec: ArtifactSpec, kernel: np.ndarray, *,
        loss_value=None, certificate=None, sampler=None,
    ) -> None:
        self.spec = spec
        size = spec.n + 1
        if kernel.shape != (size, size):
            raise ValidationError(
                f"kernel shape {kernel.shape} does not match n={spec.n}"
            )
        self.kernel = kernel
        self.loss_value = loss_value
        self.certificate = certificate
        if sampler is None:
            sampler = RowAliasSampler.from_matrix(kernel)
        self._sampler = sampler
        self._float_matrix = None

    # -- derived views -------------------------------------------------
    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def alpha(self) -> Fraction:
        return self.spec.alpha

    @property
    def sampler(self) -> RowAliasSampler:
        """The O(1) per-draw alias sampler over the kernel rows; its walk
        serves the kernel exactly."""
        return self._sampler

    @property
    def float_matrix(self) -> np.ndarray:
        """Float64 view of the kernel (derived, cached)."""
        if self._float_matrix is None:
            matrix = self.kernel.astype(float)
            matrix.setflags(write=False)
            self._float_matrix = matrix
        return self._float_matrix

    def mechanism(self):
        """The kernel wrapped as a :class:`repro.core.mechanism.Mechanism`."""
        from ..core.mechanism import Mechanism  # deferred: avoids cycle

        return Mechanism(
            self.kernel,
            name=f"artifact:{self.spec.kind}(n={self.n}, alpha={self.alpha})",
            validate=False,
        )

    def key(self) -> str:
        return self.spec.key()

    # -- serialization -------------------------------------------------
    def to_payload(self) -> dict:
        payload = {
            "version": ARTIFACT_FORMAT_VERSION,
            "spec": self.spec.to_json(),
            "kernel": [
                [encode_number(cell) for cell in row] for row in self.kernel
            ],
            "tables": {
                "thresholds": [
                    [encode_number(t) for t in table.exact_thresholds]
                    for table in self._sampler.tables
                ],
                "alias": [
                    [int(a) for a in table.alias]
                    for table in self._sampler.tables
                ],
            },
            "loss_value": (
                None if self.loss_value is None
                else encode_number(self.loss_value)
            ),
            "certificate": (
                None if self.certificate is None
                else {
                    "objective": encode_number(
                        self.certificate["objective"]
                    ),
                    "duals": [
                        [int(row), encode_number(value)]
                        for row, value in sorted(
                            self.certificate["duals"].items()
                        )
                    ],
                }
            ),
        }
        payload["digest"] = _payload_digest(payload)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "MechanismArtifact":
        """Decode a payload; raises :class:`ValidationError` when damaged."""
        if not isinstance(payload, dict):
            raise ValidationError("artifact payload must be a JSON object")
        version = payload.get("version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ValidationError(
                f"artifact format version {version!r} is not supported "
                f"(expected {ARTIFACT_FORMAT_VERSION})"
            )
        digest = payload.get("digest")
        if digest != _payload_digest(payload):
            raise ValidationError(
                "artifact digest mismatch: content is corrupted"
            )
        try:
            spec = ArtifactSpec.from_json(payload["spec"])
            size = spec.n + 1
            kernel = np.empty((size, size), dtype=object)
            rows = payload["kernel"]
            if len(rows) != size:
                raise ValidationError(
                    f"kernel has {len(rows)} rows, expected {size}"
                )
            for i, row in enumerate(rows):
                if len(row) != size:
                    raise ValidationError(
                        f"kernel row {i} has {len(row)} cells"
                    )
                for j, cell in enumerate(row):
                    kernel[i, j] = decode_number(cell)
            tables = [
                AliasTable.from_parts(
                    [decode_number(t) for t in thresholds], alias
                )
                for thresholds, alias in zip(
                    payload["tables"]["thresholds"],
                    payload["tables"]["alias"],
                )
            ]
            sampler = RowAliasSampler(tables)
            loss_value = (
                None if payload.get("loss_value") is None
                else decode_number(payload["loss_value"])
            )
            certificate = None
            if payload.get("certificate") is not None:
                certificate = {
                    "objective": decode_number(
                        payload["certificate"]["objective"]
                    ),
                    "duals": {
                        int(row): decode_number(value)
                        for row, value in payload["certificate"]["duals"]
                    },
                }
        except (KeyError, TypeError, IndexError) as err:
            raise ValidationError(
                f"artifact payload is structurally damaged: {err}"
            ) from None
        return cls(
            spec, kernel,
            loss_value=loss_value, certificate=certificate, sampler=sampler,
        )

    def __repr__(self) -> str:
        return (
            f"<MechanismArtifact {self.spec.kind} n={self.n} "
            f"alpha={self.alpha} loss={self.spec.loss}>"
        )


def compile_artifact(
    kind: str,
    n: int,
    alpha,
    *,
    loss: str | None = None,
    side=None,
    solve_cache=None,
) -> MechanismArtifact:
    """Compile a deployable artifact from scratch.

    ``kind="geometric"`` needs no LP at all: the exact kernel is
    ``G_{n,alpha}`` and its optimality for *every* consumer is
    Theorem 1 (re-checked at verify time against the exact pmf law).
    ``kind="optimal"`` solves the Section 2.5 LP once (through the
    persistent ``solve_cache`` when given, so re-compiles are free) and
    then extracts a strong-duality certificate that ``repro cache
    verify`` can replay forever without a solver.
    """
    from ..core.geometric import geometric_matrix  # deferred: avoids cycle

    spec = ArtifactSpec(
        kind=kind,
        n=n,
        alpha=as_fraction(alpha, name="alpha"),
        loss=loss,
        side=None if side is None else tuple(sorted(int(i) for i in side)),
    )
    if spec.kind == "geometric":
        kernel = geometric_matrix(spec.n, spec.alpha)
        return MechanismArtifact(spec, kernel)

    from ..core.optimal import build_optimal_lp, optimal_mechanism

    result = optimal_mechanism(
        spec.n,
        spec.alpha,
        named_loss(spec.loss),
        spec.side,
        exact=True,
        solve_cache=solve_cache,
    )
    kernel = result.mechanism.matrix
    table = cached_loss_matrix(named_loss(spec.loss), spec.n)
    program, _ = build_optimal_lp(
        spec.n, spec.alpha, table, spec.members()
    )
    values = list(kernel.ravel()) + [result.loss]
    found = find_certificate(program, values)
    if found is None:
        raise SolverError(
            f"could not extract an optimality certificate for "
            f"{spec.canonical()}; refusing to compile an unprovable "
            f"artifact"
        )
    objective, duals = found
    return MechanismArtifact(
        spec,
        kernel,
        loss_value=result.loss,
        certificate={"objective": objective, "duals": duals},
    )


@dataclass(frozen=True)
class ArtifactVerification:
    """Outcome of replaying one artifact's proofs.

    ``checks`` lists every check that ran; ``failures`` the subset that
    failed (empty iff ``ok``).
    """

    key: str
    kind: str
    ok: bool
    checks: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()
    detail: str = ""


def _verify_geometric_kernel(artifact: MechanismArtifact) -> list[str]:
    """Exact pmf-law agreement for ``G_{n,alpha}``; returns failures.

    Independent re-derivation from Definition 1/4 — *not* a comparison
    against :func:`geometric_matrix`: interior cells must equal
    ``two_sided_geometric_pmf(alpha, r - i)`` exactly, and the cap cells
    ``{0, n}`` must carry exactly the interior mass plus the folded
    unbounded tail ``alpha^{|r-i|+1}/(1+alpha) * ...`` — closed form
    ``alpha^{|r-i|} / (1+alpha)`` — so tail-cap mass accounting is
    checked bit-for-bit.
    """
    failures = []
    n, alpha = artifact.n, artifact.alpha
    kernel = artifact.kernel
    for i in range(n + 1):
        for r in range(n + 1):
            distance = abs(r - i)
            if r in (0, n):
                expected = alpha**distance / (1 + alpha)
            else:
                expected = two_sided_geometric_pmf(alpha, r - i)
            if kernel[i, r] != expected:
                failures.append(
                    f"kernel[{i},{r}] != exact geometric law "
                    f"({kernel[i, r]} vs {expected})"
                )
                return failures  # one witness is enough
    return failures


def verify_artifact(artifact: MechanismArtifact) -> ArtifactVerification:
    """Replay every proof an artifact carries; zero LP solves.

    * every kind: row sums of the kernel are exactly 1; each alias
      table's exact cell probabilities reconstruct its kernel row
      bit-for-bit — and those are the law the sampler's exact walk
      serves, so the draw provably serves the kernel;
    * ``geometric``: the kernel equals the exact two-sided-geometric
      law with tail mass folded into the caps (Definition 4);
    * ``optimal``: the Section 2.5 LP is *rebuilt* (construction only —
      no solver) and the stored strong-duality certificate is replayed
      by :func:`repro.solvers.hybrid.replay_certificate`, proving the
      stored kernel optimal with the stored loss.
    """
    t0 = time.perf_counter()
    report = _verify_artifact(artifact)
    _observe_seconds(
        "repro_artifact_verify_seconds",
        "Load/startup artifact verification time (certificate replay).",
        time.perf_counter() - t0,
    )
    return report


def _observe_seconds(name: str, help: str, seconds: float) -> None:
    from ..obs.metrics import default_registry

    default_registry().histogram(name, help).observe(seconds)


def _verify_artifact(artifact: MechanismArtifact) -> ArtifactVerification:
    checks: list[str] = []
    failures: list[str] = []
    spec = artifact.spec

    checks.append("row-stochastic")
    for i in range(artifact.n + 1):
        if sum(artifact.kernel[i]) != 1:
            failures.append(f"kernel row {i} does not sum to 1")
            break

    checks.append("alias-tables-exact")
    if not artifact.sampler.is_exact():
        failures.append("sampler is missing exact thresholds")
    else:
        for i, table in enumerate(artifact.sampler.tables):
            if table.cell_probabilities() != list(artifact.kernel[i]):
                failures.append(
                    f"alias table row {i} does not reconstruct the kernel "
                    f"row"
                )
                break

    if spec.kind == "geometric":
        checks.append("geometric-pmf-law")
        failures.extend(_verify_geometric_kernel(artifact))
    else:
        checks.append("certificate-replay")
        if artifact.certificate is None or artifact.loss_value is None:
            failures.append("optimal artifact is missing its certificate")
        else:
            from ..core.optimal import build_optimal_lp  # deferred

            table = cached_loss_matrix(named_loss(spec.loss), spec.n)
            program, _ = build_optimal_lp(
                spec.n, spec.alpha, table, spec.members()
            )
            values = list(artifact.kernel.ravel()) + [artifact.loss_value]
            objective = replay_certificate(
                program, values, artifact.certificate["duals"]
            )
            if objective is None:
                failures.append("certificate replay failed")
            elif objective != artifact.certificate["objective"]:
                failures.append(
                    "certified objective disagrees with the stored one"
                )
            elif objective != artifact.loss_value:
                failures.append(
                    "certified objective disagrees with the stored loss"
                )

    return ArtifactVerification(
        key=artifact.key(),
        kind=spec.kind,
        ok=not failures,
        checks=tuple(checks),
        failures=tuple(failures),
    )


@contextlib.contextmanager
def _advisory_lock(path: Path):
    """Hold an exclusive advisory ``flock`` on ``path``.

    Cross-process (each holder opens its own descriptor) and blocking;
    degrades to a no-op where ``fcntl`` does not exist, keeping the
    store usable — just without cross-process write serialization — on
    non-POSIX platforms.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


#: Every live store, so :func:`repro.clear_caches` can drop all
#: in-memory artifact layers without holding stores alive.
_LIVE_STORES: "weakref.WeakSet[ArtifactStore]" = weakref.WeakSet()


def clear_artifact_memory() -> None:
    """Drop the in-memory layer of every live :class:`ArtifactStore`."""
    for store in list(_LIVE_STORES):
        store.clear_memory()


class ArtifactStore:
    """Directory-backed, spec-addressed store of compiled artifacts.

    Mirrors :class:`repro.solvers.cache.SolveCache`: two-level fan-out
    on the spec key, atomic writes, a bounded in-memory layer, and
    ``stats`` counters. Loading validates version and content digest;
    damaged entries behave as misses on :meth:`get` and are reported by
    :meth:`verify_all`.

    Writes and GC take a store-wide advisory file lock (:meth:`lock`),
    and :meth:`get_or_compile` holds a per-spec lock across its
    miss-compile-store window, re-checking the directory once inside —
    so N server workers racing to warm the same spec perform **one**
    compile between them instead of N, and eviction never interleaves
    with a write. Reads stay lock-free: entries are content-addressed
    and replaced atomically, so a reader sees either the old complete
    entry, the new complete entry, or a miss.
    """

    def __init__(self, path) -> None:
        self.path = Path(path).expanduser()
        self._memory: dict[str, MechanismArtifact] = {}
        self.stats = {"hits": 0, "misses": 0, "stores": 0, "compiles": 0}
        _LIVE_STORES.add(self)

    def _entry_path(self, key: str) -> Path:
        return self.path / key[:2] / f"{key}.json"

    @staticmethod
    def _count(op: str) -> None:
        # Mirror the per-instance stats into the process-default
        # registry so a serving scrape covers artifact-store behaviour.
        from ..obs.metrics import default_registry

        default_registry().counter(
            "repro_artifact_store_total",
            "Artifact-store operations, by op.",
            labels=("op",),
        ).labels(op).inc()

    # -- lookup --------------------------------------------------------
    def get(self, spec: ArtifactSpec) -> MechanismArtifact | None:
        """Return the stored artifact for ``spec``, or ``None``."""
        key = spec.key()
        artifact = self._memory.get(key)
        if artifact is None:
            artifact = self._load(key)
            if artifact is not None and artifact.spec != spec:
                artifact = None  # key collision or tampered spec
            if artifact is not None:
                self._remember(key, artifact)
        if artifact is None:
            self.stats["misses"] += 1
            self._count("miss")
            return None
        self.stats["hits"] += 1
        self._count("hit")
        return artifact

    def get_or_compile(
        self, spec: ArtifactSpec, *, solve_cache=None
    ) -> MechanismArtifact:
        """Load ``spec``'s artifact, compiling and storing on a miss.

        The miss path is compile-once across workers: a per-spec
        advisory lock is held while compiling, and the directory is
        re-checked after acquiring it, so a racer that lost the lock
        race loads the winner's entry instead of re-solving.
        """
        artifact = self.get(spec)
        if artifact is None:
            key = spec.key()
            with self.lock(key):
                artifact = self._load(key)
                if artifact is not None and artifact.spec != spec:
                    artifact = None
                if artifact is not None:
                    self._remember(key, artifact)
                else:
                    artifact = compile_artifact(
                        spec.kind,
                        spec.n,
                        spec.alpha,
                        loss=spec.loss,
                        side=spec.side,
                        solve_cache=solve_cache,
                    )
                    self.put(artifact)
                    self.stats["compiles"] += 1
                    self._count("compile")
        return artifact

    # -- locking -------------------------------------------------------
    def lock(self, name: str = "store"):
        """Exclusive cross-process advisory lock scoped to this store.

        ``name`` picks the lock file: the default is the store-wide
        write/GC lock; :meth:`get_or_compile` passes the spec key for a
        per-spec compile lock. Lock files live under ``.locks/`` inside
        the store directory and are never GC'd (they are empty).
        """
        return _advisory_lock(self.path / ".locks" / f"{name}.lock")

    # -- store ---------------------------------------------------------
    def put(self, artifact: MechanismArtifact) -> None:
        """Persist ``artifact`` (atomic replace, under the store lock)."""
        key = artifact.key()
        payload = artifact.to_payload()
        entry = self._entry_path(key)
        with self.lock():
            entry.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                mode="w",
                dir=entry.parent,
                prefix=f".{key[:8]}-",
                suffix=".tmp",
                delete=False,
            )
            try:
                with handle:
                    json.dump(payload, handle)
                    # Durable before visible: fsync the bytes, replace,
                    # then fsync the directory entry — a crash right
                    # after `put` returns must never leave a truncated
                    # artifact where load-time verification expected a
                    # complete one.
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(handle.name, entry)
                try:
                    fd = os.open(entry.parent, os.O_RDONLY)
                except OSError:  # pragma: no cover - platform-dependent
                    fd = -1
                if fd >= 0:
                    try:
                        os.fsync(fd)
                    finally:
                        os.close(fd)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        self._remember(key, artifact)
        self.stats["stores"] += 1
        self._count("store")

    # -- maintenance ---------------------------------------------------
    def keys(self) -> list[str]:
        """Spec keys of every entry on disk (sorted)."""
        if not self.path.is_dir():
            return []
        return sorted(entry.stem for entry in self.path.rglob("*.json"))

    def load_key(self, key: str) -> MechanismArtifact | None:
        """Load the entry stored under ``key``; ``None`` if missing/damaged.

        Unlike :meth:`get` this needs no spec — the serving layer's
        load-everything startup path iterates :meth:`keys` with it.
        """
        return self._load(key)

    def verify_all(self) -> list[ArtifactVerification]:
        """Replay proofs for every on-disk entry (zero LP solves).

        Structurally damaged entries (unparseable JSON, bad digest,
        unsupported version) are reported as failed verifications
        rather than skipped.
        """
        reports = []
        for key in self.keys():
            entry = self._entry_path(key)
            try:
                payload = json.loads(entry.read_text())
                artifact = MechanismArtifact.from_payload(payload)
            except (OSError, ValueError, ValidationError) as err:
                reports.append(
                    ArtifactVerification(
                        key=key,
                        kind="?",
                        ok=False,
                        checks=("load",),
                        failures=(f"load failed: {err}",),
                    )
                )
                continue
            if artifact.key() != key:
                reports.append(
                    ArtifactVerification(
                        key=key,
                        kind=artifact.spec.kind,
                        ok=False,
                        checks=("load",),
                        failures=("entry filed under a foreign spec key",),
                    )
                )
                continue
            reports.append(verify_artifact(artifact))
        return reports

    def gc(
        self,
        *,
        max_entries: int | None = None,
        max_age_days: float | None = None,
    ) -> int:
        """Evict on-disk artifacts (see :func:`repro.solvers.cache.gc_directory`).

        Holds the store-wide advisory lock so eviction never interleaves
        with a concurrent worker's :meth:`put`.
        """
        with self.lock():
            removed = gc_directory(
                self.path, max_entries=max_entries, max_age_days=max_age_days
            )
        self._memory.clear()
        return removed

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the directory is untouched)."""
        self._memory.clear()

    # -- internals -----------------------------------------------------
    def _load(self, key: str) -> MechanismArtifact | None:
        entry = self._entry_path(key)
        t0 = time.perf_counter()
        try:
            payload = json.loads(entry.read_text())
            artifact = MechanismArtifact.from_payload(payload)
        except (OSError, ValueError, ValidationError):
            return None
        _observe_seconds(
            "repro_artifact_load_seconds",
            "On-disk artifact load + decode time.",
            time.perf_counter() - t0,
        )
        return artifact

    def _remember(self, key: str, artifact: MechanismArtifact) -> None:
        if len(self._memory) >= _MEMORY_ENTRIES:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = artifact

    def __repr__(self) -> str:
        return (
            f"<ArtifactStore {str(self.path)!r} "
            f"hits={self.stats['hits']} misses={self.stats['misses']} "
            f"stores={self.stats['stores']}>"
        )


#: Module default: unresolved sentinel until first use.
_UNSET = object()
_default_store = _UNSET


def default_artifact_store() -> ArtifactStore | None:
    """The process-wide default store (``REPRO_ARTIFACT_DIR``), or ``None``."""
    global _default_store
    if _default_store is _UNSET:
        directory = os.environ.get(ARTIFACT_DIR_ENV)
        _default_store = ArtifactStore(directory) if directory else None
    return _default_store


def set_default_artifact_store(store) -> None:
    """Install a process-wide default store (``None`` disables)."""
    global _default_store
    if store is None or isinstance(store, ArtifactStore):
        _default_store = store
    else:
        _default_store = ArtifactStore(store)


def resolve_artifact_store(store) -> ArtifactStore | None:
    """Normalize a ``store=`` argument (mirrors ``resolve_cache``)."""
    if store is None:
        return default_artifact_store()
    if store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)
