"""The serving process of the HTTP workloads: ``repro serve`` as an
operator runs it, plus an end-of-run report for the benchmark.

    python3 perfbench/serve.py --report R.json [--spans S.npz] -- \\
        serve --store DIR --port 0 [--ledger-dir DIR --floor F] ...

Everything after ``--`` goes to the ``repro`` command line unchanged, so
the server runs with ``repro serve`` defaults. This wrapper only watches
from outside: it keeps a reference to the ``MechanismServer`` the CLI
builds, notes the store's compile counters once the store is loaded, and
— after ``SIGTERM`` has drained the server — runs a final
``server.audit()`` and writes the report. With ``--spans`` it also
installs the layer tracer (``perfbench.layers``) before the server is
built and writes the spans out at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    # Run as a script: import this package from the checkout root and
    # repro from its src/, instead of from this directory.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]


def peak_rss_kb() -> int:
    """This process's memory high-water mark (``VmHWM``), in KiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="benchmark serving process")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:split])

    from repro import cli
    from repro.serving.server import MechanismServer

    from perfbench.layers import Tracer

    tracer = Tracer().install() if args.spans else None
    servers = []
    loaded_stats = {}
    original_init = MechanismServer.__init__
    original_load = MechanismServer.load_store

    def init(self, *a, **kw):
        original_init(self, *a, **kw)
        servers.append(self)

    def load_store(self):
        loaded = original_load(self)
        loaded_stats.update(self.store.stats)
        return loaded

    MechanismServer.__init__ = init
    MechanismServer.load_store = load_store
    code = cli.main(argv[split + 1:])
    report = {"exit": code, "peak_rss_kb": peak_rss_kb()}
    if servers:
        server = servers[-1]
        findings = server.audit()
        report.update(
            store_stats_loaded=loaded_stats,
            store_stats_exit=dict(server.store.stats),
            audit=[
                {"key": f.key[:12], "kind": f.kind, "samples": f.samples,
                 "sufficient": f.sufficient, "flagged": f.flagged}
                for f in findings
            ],
            metrics=dict(server.metrics),
            batcher={k: v for k, v in server.batcher.stats.items()
                     if not isinstance(v, dict)},
            ledger=server.ledgers.stats(),
        )
    if tracer is not None:
        tracer.uninstall()
        tracer.log.save(args.spans)
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
