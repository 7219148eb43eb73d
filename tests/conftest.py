"""Shared fixtures: small censuses are cheap enough to build per session."""

import tracemalloc

import numpy as np
import pytest

from orbitcount.lattice import enumerate_pruned

GOLDEN = (1.0 + 5.0**0.5) / 2.0


@pytest.fixture(scope="session")
def census1():
    return enumerate_pruned(1.0)


@pytest.fixture(scope="session")
def census2():
    return enumerate_pruned(2.0)


@pytest.fixture(scope="session")
def census4():
    return enumerate_pruned(4.0)


@pytest.fixture(scope="session")
def census8():
    return enumerate_pruned(8.0)


@pytest.fixture
def peak_bytes():
    """The peak traced allocation of a call ``fn()``."""

    def measure(fn) -> int:
        # numpy reports its buffers to tracemalloc, so this counts them too
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
