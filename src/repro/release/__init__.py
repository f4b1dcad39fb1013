"""Publication layer: publishers, multi-level releases, privacy audits.

Where :mod:`repro.core` proves things about mechanism *matrices*, this
subpackage operates at deployment granularity: publishing results from
real databases, serving consumers at several trust levels (the paper's
government-report vs Internet-report scenario), auditing deployed
mechanisms empirically from samples, simulating collusion attacks
against naive multi-release schemes — and compiling mechanisms into
versioned, content-addressed, certificate-carrying artifacts
(:mod:`repro.release.artifacts`) so serving processes never touch a
solver.
"""

from .artifacts import (
    ArtifactSpec,
    ArtifactStore,
    ArtifactVerification,
    MechanismArtifact,
    compile_artifact,
    default_artifact_store,
    resolve_artifact_store,
    set_default_artifact_store,
    verify_artifact,
)
from .audit import AuditReport, empirical_alpha, empirical_mechanism_matrix
from .collusion import (
    AveragingAttackResult,
    averaging_attack,
    compare_release_strategies,
)
from .durable_ledger import (
    ChargeDecision,
    DurableLedger,
    LedgerCorruptionError,
    LedgerUnavailableError,
    MemoryLedgerBook,
    UserBudget,
    verify_ledger_dir,
)
from .ledger import (
    BudgetExceededError,
    LedgerEntry,
    PrivacyLedger,
)
from .multilevel import MultiLevelPublisher, TieredRelease
from .publisher import PublishedStatistic, Publisher

__all__ = [
    "Publisher",
    "PublishedStatistic",
    "MultiLevelPublisher",
    "TieredRelease",
    "AuditReport",
    "empirical_alpha",
    "empirical_mechanism_matrix",
    "averaging_attack",
    "AveragingAttackResult",
    "compare_release_strategies",
    "PrivacyLedger",
    "LedgerEntry",
    "BudgetExceededError",
    "DurableLedger",
    "MemoryLedgerBook",
    "ChargeDecision",
    "UserBudget",
    "LedgerUnavailableError",
    "LedgerCorruptionError",
    "verify_ledger_dir",
    "ArtifactSpec",
    "ArtifactStore",
    "ArtifactVerification",
    "MechanismArtifact",
    "compile_artifact",
    "verify_artifact",
    "default_artifact_store",
    "set_default_artifact_store",
    "resolve_artifact_store",
]
