"""Durable files: one filesystem seam, one atomic writer, one store.

Every file the library keeps across restarts is written by
:func:`write_durable` — the ledger's ``snapshot.json`` and
``meta.json`` (its journal is appended, never replaced) and every entry
of the two directory stores:

* :class:`LedgerFS` — the filesystem operations a durable write
  performs, as a seam. The chaos harness substitutes
  :class:`repro.serving.faults.FaultyFS` to inject torn writes, short
  writes, ``ENOSPC`` and fsync failures at exactly these call sites.
* :func:`write_durable` — a temporary file beside the target, fsync,
  rename over the target, then fsync the directory: a reader sees the
  old file or the new one, never part of one, and a crash after the
  call returns cannot lose the new one.
* :class:`DirectoryStore` — a content-addressed directory of JSON
  entries (two-level fan-out on the key's hex prefix) with a bounded
  in-memory layer, ``stats`` counters mirrored into the process-default
  metrics registry, one decode rule, and one process-default store read
  from an environment variable. :class:`repro.solvers.cache.SolveCache`
  and :class:`repro.release.artifacts.ArtifactStore` are its two
  subclasses. Entries are content-addressed, so racing writers of one
  key write identical bytes, and readers never see part of an entry:
  concurrent processes can share one directory.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import tempfile
import time
import weakref
from pathlib import Path

from .exceptions import ValidationError

__all__ = [
    "DirectoryStore",
    "LedgerFS",
    "REAL_FS",
    "clear_store_memory",
    "gc_directory",
    "write_durable",
]


class LedgerFS:
    """The filesystem operations a durable write performs, as a seam.

    ``write`` treats a short write as an ``OSError`` so the caller's
    rollback path handles real-world partial writes the same way as
    injected ones.
    """

    def open_append(self, path):
        return open(path, "ab", buffering=0)

    def write(self, handle, data: bytes) -> None:
        written = handle.write(data)
        if written is not None and written != len(data):
            raise OSError(
                errno.EIO, f"short write: {written}/{len(data)} bytes"
            )

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def truncate(self, handle, size: int) -> None:
        handle.truncate(size)

    def replace(self, source, destination) -> None:
        os.replace(source, destination)

    def fsync_dir(self, path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


REAL_FS = LedgerFS()


def write_durable(path: Path, data: bytes, fs: LedgerFS = REAL_FS) -> None:
    """Replace ``path`` by ``data`` atomically and durably."""
    handle = tempfile.NamedTemporaryFile(
        mode="wb", dir=path.parent, prefix=f".{path.name}-", suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            fs.write(handle, data)
            handle.flush()
            fs.fsync(handle)
        fs.replace(handle.name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        raise
    fs.fsync_dir(path.parent)


def gc_directory(
    path, *, max_entries: int | None = None, max_age_days: float | None = None
) -> int:
    """Evict entries from a directory-of-JSON store; returns count removed.

    Entries older than ``max_age_days`` (by mtime) are removed first;
    then, when ``max_entries`` is set, the oldest survivors are removed
    until at most that many remain. Content-addressed entries are never
    *stale*, so GC is purely a disk-budget tool. Concurrent removals are
    tolerated (missing files are skipped).
    """
    if max_entries is not None and max_entries < 0:
        raise ValidationError(
            f"max_entries must be >= 0, got {max_entries}"
        )
    if max_age_days is not None and max_age_days < 0:
        raise ValidationError(
            f"max_age_days must be >= 0, got {max_age_days}"
        )
    root = Path(path).expanduser()
    if not root.is_dir():
        return 0
    entries = []
    for entry in root.rglob("*.json"):
        try:
            entries.append((entry.stat().st_mtime, entry))
        except OSError:
            continue
    entries.sort(key=lambda pair: pair[0])
    doomed = []
    if max_age_days is not None:
        cutoff = time.time() - max_age_days * 86400.0
        doomed = [entry for mtime, entry in entries if mtime < cutoff]
        entries = [pair for pair in entries if pair[0] >= cutoff]
    if max_entries is not None:
        excess = max(0, len(entries) - max_entries)
        doomed += [entry for _, entry in entries[:excess]]
    removed = 0
    for entry in doomed:
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    return removed


#: Every live store, so :func:`clear_store_memory` reaches them all
#: without holding any alive.
_LIVE: "weakref.WeakSet[DirectoryStore]" = weakref.WeakSet()

#: Each store class's resolved process default; a class is absent until
#: its first :meth:`DirectoryStore.default`.
_DEFAULTS: dict = {}

#: The metric label each ``stats`` counter is mirrored under.
_LABELS = {"hits": "hit", "misses": "miss", "stores": "store",
           "compiles": "compile"}


def clear_store_memory() -> None:
    """Drop the in-memory layer of every live store."""
    for store in list(_LIVE):
        store.clear_memory()


class DirectoryStore:
    """A directory of JSON entries filed under a hex content key.

    A subclass names its process-default directory variable (``env``),
    its memory bound (``memory_entries``), the counter its ``stats`` are
    mirrored into (``metric``: name, help, label) and its decode rule
    (:meth:`decode`). Every read of an entry goes through :meth:`read`
    and every write through :meth:`_write`.
    """

    env: str
    memory_entries: int
    metric: tuple
    stat_names = ("hits", "misses", "stores")

    def __init__(self, path) -> None:
        self.path = Path(path).expanduser()
        self._memory: dict = {}
        self.stats = dict.fromkeys(self.stat_names, 0)
        _LIVE.add(self)

    def decode(self, payload, key: str):
        """The value an entry's JSON ``payload`` filed under ``key``
        holds; raises :class:`ValidationError` saying what is wrong."""
        raise NotImplementedError

    def _entry_path(self, key: str) -> Path:
        return self.path / key[:2] / f"{key}.json"

    def _count(self, stat: str) -> None:
        # Resolved per call: stores are off the hot path, and tests
        # swap the default registry.
        from .obs.metrics import default_registry

        self.stats[stat] += 1
        name, help, label = self.metric
        default_registry().counter(name, help, labels=(label,)).labels(
            _LABELS[stat]
        ).inc()

    def _remember(self, key: str, value) -> None:
        if len(self._memory) >= self.memory_entries:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = value

    # -- the one read and the one write --------------------------------
    def read(self, key: str):
        """Decode the entry under ``key``; raises ``OSError`` or
        ``ValueError`` with the reason it cannot be used."""
        return self.decode(json.loads(self._entry_path(key).read_bytes()), key)

    def load_key(self, key: str):
        """The entry under ``key``, or ``None`` when missing or damaged."""
        try:
            return self.read(key)
        except (OSError, ValueError):
            return None

    def _lookup(self, key: str):
        value = self._memory.get(key)
        if value is None:
            value = self.load_key(key)
            if value is not None:
                self._remember(key, value)
        self._count("misses" if value is None else "hits")
        return value

    def _write(self, key: str, value, payload: dict) -> None:
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        write_durable(entry, json.dumps(payload).encode("ascii"))
        self._remember(key, value)
        self._count("stores")

    # -- maintenance ---------------------------------------------------
    def keys(self) -> list[str]:
        """Keys of every entry on disk (sorted)."""
        if not self.path.is_dir():
            return []
        return sorted(entry.stem for entry in self.path.rglob("*.json"))

    def gc(
        self,
        *,
        max_entries: int | None = None,
        max_age_days: float | None = None,
    ) -> int:
        """Evict on-disk entries (see :func:`gc_directory`).

        The in-memory layer is dropped too, so evicted entries cannot be
        served from memory afterwards.
        """
        removed = gc_directory(
            self.path, max_entries=max_entries, max_age_days=max_age_days
        )
        self._memory.clear()
        return removed

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the directory is untouched)."""
        self._memory.clear()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {str(self.path)!r} "
            f"hits={self.stats['hits']} misses={self.stats['misses']} "
            f"stores={self.stats['stores']}>"
        )

    # -- the process default -------------------------------------------
    @classmethod
    def default(cls):
        """The process-wide default store (the directory named by the
        class's environment variable), or ``None``."""
        if cls not in _DEFAULTS:
            directory = os.environ.get(cls.env)
            _DEFAULTS[cls] = cls(directory) if directory else None
        return _DEFAULTS[cls]

    @classmethod
    def set_default(cls, store) -> None:
        """Install the process-wide default: a store, a directory path,
        or ``None`` to disable (and stop consulting the environment)."""
        if store is not None and not isinstance(store, cls):
            store = cls(store)
        _DEFAULTS[cls] = store

    @classmethod
    def resolve(cls, store):
        """Normalize a store argument: ``None`` means the process
        default, ``False`` none, a path-like a store on that directory,
        and a store is used as-is."""
        if store is None:
            return cls.default()
        if store is False:
            return None
        return store if isinstance(store, cls) else cls(store)
