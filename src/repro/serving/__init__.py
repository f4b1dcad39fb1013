"""Mechanism serving: the ``repro serve`` subsystem.

The top of the compile → verify → publish → **serve** lifecycle: an
asyncio micro-batched statistic service that deploys compiled
:class:`~repro.release.artifacts.MechanismArtifact` entries (zero LP
solves on the request path, verification replayed at load), fuses
concurrent queries across heterogeneous deployments into single
alias-table gathers, accounts per-user privacy budgets concurrently,
and feeds a sampled slice of live responses through an online audit
replay of the geometric law.

See :mod:`repro.serving.server` for the architecture overview and
``benchmarks/bench_serving.py`` for the load-generator harness.
"""

from .audit import AuditFinding, OnlineAuditor, expected_response_matrix
from .batching import MicroBatcher
from .client import HTTPServingClient, InProcessClient
from .config import DEGRADED_MODES, ServerConfig
from .fallback import fallback_spec, resolve_fallbacks
from .faults import (
    CRASH_POINTS,
    FLEET_FAULTS,
    FaultInjector,
    FaultyFS,
    FlakyEndpoint,
    InjectedCrash,
    fsync_storm,
)
from .overload import (
    WAL_FAILURE_POLICIES,
    AdmissionController,
    ShedDecision,
    WALCircuitBreaker,
)
from .server import MechanismServer
from .supervisor import ServingSupervisor, make_listen_socket

__all__ = [
    "AuditFinding",
    "OnlineAuditor",
    "expected_response_matrix",
    "MicroBatcher",
    "HTTPServingClient",
    "InProcessClient",
    "MechanismServer",
    "ServerConfig",
    "ServingSupervisor",
    "make_listen_socket",
    "AdmissionController",
    "ShedDecision",
    "WALCircuitBreaker",
    "WAL_FAILURE_POLICIES",
    "DEGRADED_MODES",
    "fallback_spec",
    "resolve_fallbacks",
    "CRASH_POINTS",
    "FLEET_FAULTS",
    "FaultInjector",
    "FaultyFS",
    "FlakyEndpoint",
    "InjectedCrash",
    "fsync_storm",
]
