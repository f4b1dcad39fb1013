"""The ``repro obs`` subcommands: rank burners, tail spans, export.

Each command reads from one of two sources:

* ``--server http://host:port`` — a live :class:`MechanismServer`, via
  its observability routes (``/obs/burn``, ``/trace/recent``,
  ``/metrics``), fetched with stdlib :mod:`urllib`;
* at-rest artifacts — a ``--ledger-dir`` WAL directory (``top``: the
  replay a restarting server performs, read-only; a path with no
  ledger is refused) or a ``--trace-dir`` JSONL span log (``tail``).

Kept apart from :mod:`repro.cli` so the argparse layer stays a thin
dispatcher and these helpers are unit-testable without a process.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from ..exceptions import ReproError
from .budget import burn_rows_from_dir, floor_proximity

__all__ = ["obs_top", "obs_tail", "obs_export"]

_TIMEOUT = 10.0


def _fetch(url: str) -> bytes:
    try:
        with urllib.request.urlopen(url, timeout=_TIMEOUT) as response:
            return response.read()
    except (urllib.error.URLError, OSError, ValueError) as err:
        raise ReproError(f"could not fetch {url}: {err}") from err


def _fetch_json(url: str) -> dict:
    data = _fetch(url)
    try:
        return json.loads(data)
    except ValueError as err:
        raise ReproError(f"{url} did not return JSON: {err}") from err


def _base(server: str) -> str:
    server = server.rstrip("/")
    if not server.startswith(("http://", "https://")):
        server = f"http://{server}"
    return server


def _format_rows(rows: list[dict], users: int, proximity: dict) -> str:
    lines = [
        f"{'user':<20} {'releases':>8} {'cumulative':>14} "
        f"{'spent':>7} {'left':>6} {'last alpha':>12}"
    ]
    for row in rows:
        remaining = row["remaining_charges"]
        lines.append(
            f"{row['user']:<20} {row['releases']:>8} "
            f"{row['cumulative_alpha']:>14} "
            f"{row['spent_fraction'] * 100:>6.1f}% "
            f"{'inf' if remaining is None else remaining:>6} "
            f"{str(row['last_alpha']):>12}"
        )
    if not rows:
        lines.append("  (no releases recorded)")
    near = ", ".join(
        f"<={k}: {count}" for k, count in sorted(proximity.items())
    )
    lines.append(
        f"{users} user(s); within k charges of the floor: {near or 'n/a'}"
    )
    return "\n".join(lines)


def obs_top(
    *, server: str | None = None, ledger_dir=None, limit: int = 20
) -> str:
    """Rank users by budget burn, live or from a WAL directory."""
    if server is not None:
        payload = _fetch_json(f"{_base(server)}/obs/burn?limit={int(limit)}")
        return _format_rows(
            payload.get("rows", []),
            payload.get("users", 0),
            {
                int(k): v
                for k, v in payload.get("floor_proximity", {}).items()
            },
        )
    if ledger_dir is None:
        raise ReproError("obs top needs --server or --ledger-dir")
    rows = burn_rows_from_dir(ledger_dir)
    return _format_rows(
        [row.to_dict() for row in rows[: int(limit)]],
        len(rows),
        floor_proximity(rows),
    )


def _tail_file(trace_dir, limit: int) -> list[dict]:
    import pathlib

    path = pathlib.Path(trace_dir) / "trace.jsonl"
    if not path.is_file():
        raise ReproError(f"no trace log at {path}")
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn tail of a live log
    return records[-limit:][::-1]


def _format_spans(records: list[dict]) -> str:
    if not records:
        return "(no spans recorded)"
    lines = []
    for record in records:
        attrs = record.get("attrs") or {}
        extras = " ".join(f"{k}={v}" for k, v in attrs.items())
        lines.append(
            f"{record.get('ts', 0):.6f} {record.get('name', '?'):<16} "
            f"{record.get('dur_ms', 0):>9.3f}ms "
            f"trace={record.get('trace', '?')}"
            + (f" {extras}" if extras else "")
        )
    return "\n".join(lines)


def obs_tail(
    *,
    server: str | None = None,
    trace_dir=None,
    limit: int = 20,
    name: str | None = None,
    trace: str | None = None,
) -> str:
    """Newest-first spans from a live ring buffer or a JSONL log."""
    limit = int(limit)
    if server is not None:
        query = f"limit={limit}"
        if name:
            query += f"&name={name}"
        if trace:
            query += f"&trace={trace}"
        payload = _fetch_json(f"{_base(server)}/trace/recent?{query}")
        return _format_spans(payload.get("spans", []))
    if trace_dir is None:
        raise ReproError("obs tail needs --server or --trace-dir")
    records = _tail_file(trace_dir, max(limit * 10, limit))
    if name is not None:
        records = [r for r in records if r.get("name") == name]
    if trace is not None:
        records = [r for r in records if r.get("trace") == trace]
    return _format_spans(records[:limit])


def obs_export(
    *, server: str, format: str = "prometheus", out=None
) -> str:
    """Dump a live server's metrics (Prometheus text or legacy JSON)."""
    base = _base(server)
    if format == "prometheus":
        text = _fetch(f"{base}/metrics?format=prometheus").decode("utf-8")
    elif format == "json":
        text = json.dumps(_fetch_json(f"{base}/metrics"), indent=2)
    else:
        raise ReproError(
            f"format must be 'prometheus' or 'json', got {format!r}"
        )
    if out is not None:
        import pathlib

        path = pathlib.Path(out)
        path.write_text(text, encoding="utf-8")
        return f"wrote {len(text.splitlines())} line(s) to {path}"
    return text.rstrip("\n")
