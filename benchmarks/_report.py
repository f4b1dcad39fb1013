"""Shared reporting helpers for the benchmark suite.

Each benchmark regenerates one of the paper's artifacts and calls
:func:`emit` with the rows/series the paper reports; the text is printed
(visible with ``pytest -s``) and archived under ``benchmarks/out/`` so
EXPERIMENTS.md can reference stable files.

Perf benchmarks additionally call :func:`emit_bench` with their
machine-readable results: the dict is printed as the grep-able
``BENCH {json}`` line dashboards already consume *and* written to
``benchmarks/out/BENCH_<name>.json``, which CI uploads as an artifact —
so the speedup trajectory is preserved per run instead of living only
in scrollback. Every such file starts from the same ``header``: what
ran, and on what.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess

import numpy as np

OUT_DIR = pathlib.Path(__file__).parent / "out"


def emit(name: str, text: str) -> None:
    """Print a reproduction report and archive it to benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def parse_args(argv, doc: str, check: str) -> argparse.Namespace:
    """The command line of every perf benchmark: ``--quick`` for a CI
    smoke run, and ``--check``, whose help ``check`` names the targets
    it enforces."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for a CI smoke run"
    )
    parser.add_argument("--check", action="store_true", help=check)
    return parser.parse_args(argv)


def _commit() -> str | None:
    """``git rev-parse HEAD`` of this checkout, or ``None`` outside one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def emit_bench(name: str, results: dict, *, quick: bool) -> None:
    """Print the ``BENCH`` line and archive BENCH_<name>.json, both led
    by the common ``header``: the core count, the Python and numpy
    versions, the commit, and quick or full."""
    OUT_DIR.mkdir(exist_ok=True)
    results = {
        "header": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": _commit(),
            "quick": quick,
        },
        **results,
    }
    print("BENCH " + json.dumps(results))
    (OUT_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
