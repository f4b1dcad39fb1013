"""Random sampling utilities.

Samplers for the noise distributions used by the library's mechanisms,
plus seeding helpers. All samplers take an explicit
:class:`numpy.random.Generator` so experiments are reproducible.

Every release drawn from a kernel row — by the publisher, the server,
:meth:`repro.core.mechanism.Mechanism.sample` or a multi-level chain —
walks the exact alias tables of :mod:`repro.sampling.alias`, one draw
rule in a vector and a scalar form. :mod:`repro.sampling.geometric`
keeps Definition 1's law and the unbounded two-sided geometric sampler
(difference of two one-sided geometrics), which has no finite row.
"""

from .alias import AliasTable, HeterogeneousAliasSampler, RowAliasSampler
from .geometric import (
    sample_geometric_failures,
    sample_two_sided_geometric,
    two_sided_geometric_pmf,
)
from .rng import ensure_generator

__all__ = [
    "AliasTable",
    "RowAliasSampler",
    "HeterogeneousAliasSampler",
    "ensure_generator",
    "sample_geometric_failures",
    "sample_two_sided_geometric",
    "two_sided_geometric_pmf",
]
