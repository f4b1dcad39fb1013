"""Shared fixtures for the test-suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.geometric import GeometricMechanism


@pytest.fixture(autouse=True)
def _no_ambient_solve_cache(monkeypatch):
    """Keep a developer's ``REPRO_CACHE_DIR`` out of the test-suite.

    Tests exercise the persistent solve cache only through explicit
    ``solve_cache=``/``cache_dir=`` arguments; an ambient default would
    make solve counts and backend provenance nondeterministic.
    """
    import repro.storage as storage_module

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    # Forget every resolved process-default store.
    monkeypatch.setattr(storage_module, "_DEFAULTS", {})


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(20100115)  # the paper's arXiv date


@pytest.fixture
def alpha_quarter() -> Fraction:
    return Fraction(1, 4)


@pytest.fixture
def alpha_half() -> Fraction:
    return Fraction(1, 2)


@pytest.fixture
def g3_quarter() -> GeometricMechanism:
    """The paper's Table 1 geometric mechanism ``G_{3,1/4}``."""
    return GeometricMechanism(3, Fraction(1, 4))


@pytest.fixture
def g3_half() -> GeometricMechanism:
    """The Appendix B geometric mechanism ``G_{3,1/2}``."""
    return GeometricMechanism(3, Fraction(1, 2))


SMALL_ALPHAS = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]
SMALL_SIZES = [1, 2, 3, 4]
