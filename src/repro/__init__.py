"""repro — Universally Optimal Privacy Mechanisms for Minimax Agents.

A full reproduction of Gupte & Sundararajan, PODS 2010 (arXiv:1001.2767):
the geometric mechanism, minimax information consumers, optimal-mechanism
and optimal-interaction linear programs, the derivability
characterization (Theorem 2), universal optimality (Theorem 1), and
collusion-resistant multi-level release (Algorithm 1) — plus the
database, agent, solver and analysis substrates they stand on.

Quickstart
----------
>>> from fractions import Fraction
>>> import repro
>>> g = repro.GeometricMechanism(3, Fraction(1, 4))
>>> agent = repro.MinimaxAgent(repro.AbsoluteLoss(), None, n=3)
>>> interaction = agent.best_interaction(g)           # Section 2.4.3 LP
>>> bespoke = agent.bespoke_mechanism(Fraction(1, 4)) # Section 2.5 LP
>>> interaction.loss == bespoke.loss                  # Theorem 1
True
"""

from .agents import (
    BayesianAgent,
    MinimaxAgent,
    SideInformation,
    bayesian_optimal_mechanism,
)
from .core import (
    APPENDIX_B_ALPHA,
    GeometricMechanism,
    Mechanism,
    MultiLevelRelease,
    UnboundedGeometricMechanism,
    alpha_to_epsilon,
    appendix_b_mechanism,
    analyze_structure,
    assert_differentially_private,
    check_derivability,
    compose_with_geometric,
    derivation_factor,
    derive_mechanism,
    cached_geometric_mechanism,
    epsilon_to_alpha,
    geometric_matrix,
    gprime_inverse,
    gprime_matrix,
    is_derivable_from_geometric,
    is_differentially_private,
    optimal_interaction,
    optimal_mechanism,
    privacy_chain_kernel,
    randomized_response_mechanism,
    tightest_alpha,
    truncated_laplace_mechanism,
    verify_appendix_b,
)
from .db import (
    CountQuery,
    Database,
    QueryEngine,
    Schema,
)
from .exceptions import (
    InfeasibleProgramError,
    LossFunctionError,
    NotDerivableError,
    NotPrivateError,
    NotStochasticError,
    QueryError,
    ReproError,
    SchemaError,
    SideInformationError,
    SolverError,
    UnboundedProgramError,
    ValidationError,
)
from .losses import (
    AbsoluteLoss,
    CappedLoss,
    LossFunction,
    cached_loss_matrix,
    PowerLoss,
    SquaredLoss,
    TabularLoss,
    ThresholdLoss,
    ZeroOneLoss,
)
from .release import (
    ArtifactSpec,
    ArtifactStore,
    MechanismArtifact,
    MultiLevelPublisher,
    Publisher,
    compile_artifact,
    empirical_alpha,
    set_default_artifact_store,
    verify_artifact,
)
from .obs import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    burn_rows_from_book,
    burn_rows_from_dir,
    default_registry,
)
from .serving import InProcessClient, MechanismServer, MicroBatcher, OnlineAuditor
from .solvers import SolveCache, set_default_cache

__version__ = "1.0.0"


def clear_caches() -> None:
    """Reset every in-memory memoization layer the library maintains.

    Long-lived serving processes call this for memory hygiene: it clears
    the memoized loss tables, the shared LP constraint blocks, the
    geometric-mechanism (with their alias tables) and ``G'``-inverse
    caches, the in-memory tier of every live artifact store,
    and the in-memory tier of the default persistent solve cache.
    On-disk solve-cache and artifact entries are untouched (they are
    content-addressed and never stale).
    """
    from .core.geometric import (
        _cached_geometric_mechanism,
        _gprime_inverse_cached,
    )
    from .core.optimal import _shared_constraint_blocks
    from .losses import clear_loss_table_cache
    from .release.artifacts import clear_artifact_memory
    from .solvers.cache import default_cache

    _cached_geometric_mechanism.cache_clear()
    _gprime_inverse_cached.cache_clear()
    _shared_constraint_blocks.cache_clear()
    clear_loss_table_cache()
    clear_artifact_memory()
    default = default_cache()
    if default is not None:
        default.clear_memory()

__all__ = [
    "__version__",
    # mechanisms
    "Mechanism",
    "GeometricMechanism",
    "UnboundedGeometricMechanism",
    "geometric_matrix",
    "cached_geometric_mechanism",
    "gprime_inverse",
    "gprime_matrix",
    "truncated_laplace_mechanism",
    "randomized_response_mechanism",
    # privacy
    "alpha_to_epsilon",
    "epsilon_to_alpha",
    "is_differentially_private",
    "assert_differentially_private",
    "tightest_alpha",
    # derivability / characterization
    "is_derivable_from_geometric",
    "check_derivability",
    "derivation_factor",
    "derive_mechanism",
    "compose_with_geometric",
    "privacy_chain_kernel",
    "analyze_structure",
    # LPs
    "optimal_interaction",
    "optimal_mechanism",
    "bayesian_optimal_mechanism",
    # multi-level release
    "MultiLevelRelease",
    "MultiLevelPublisher",
    "Publisher",
    "empirical_alpha",
    # appendix artifacts
    "APPENDIX_B_ALPHA",
    "appendix_b_mechanism",
    "verify_appendix_b",
    # agents
    "MinimaxAgent",
    "BayesianAgent",
    "SideInformation",
    # caching / compiled artifacts
    "SolveCache",
    "set_default_cache",
    "clear_caches",
    "ArtifactSpec",
    "ArtifactStore",
    "MechanismArtifact",
    "compile_artifact",
    "verify_artifact",
    "set_default_artifact_store",
    # serving
    "MechanismServer",
    "InProcessClient",
    "MicroBatcher",
    "OnlineAuditor",
    # observability
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "default_registry",
    "burn_rows_from_book",
    "burn_rows_from_dir",
    # losses
    "LossFunction",
    "cached_loss_matrix",
    "AbsoluteLoss",
    "SquaredLoss",
    "ZeroOneLoss",
    "PowerLoss",
    "ThresholdLoss",
    "CappedLoss",
    "TabularLoss",
    # database substrate
    "Schema",
    "Database",
    "CountQuery",
    "QueryEngine",
    # exceptions
    "ReproError",
    "ValidationError",
    "NotStochasticError",
    "NotPrivateError",
    "NotDerivableError",
    "SolverError",
    "InfeasibleProgramError",
    "UnboundedProgramError",
    "SchemaError",
    "QueryError",
    "SideInformationError",
    "LossFunctionError",
]
