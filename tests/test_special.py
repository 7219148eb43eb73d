"""Modified Bessel K_1 against the frozen high-precision reference table.

tests/data/k1_reference.csv is generated by tools/gen_k1_reference.py from
the integral representation at 30 significant digits, cross-checked there
against an independent implementation.  Production code never reads it.
"""

from pathlib import Path

import numpy as np
import pytest

from orbitcount.errors import DomainError
from orbitcount.special import K1_CROSSOVER, bessel_k1

REFERENCE = Path(__file__).parent / "data" / "k1_reference.csv"


@pytest.fixture(scope="module")
def table():
    data = np.genfromtxt(REFERENCE, delimiter=",", skip_header=1)
    assert data.shape == (1000, 2)
    return data[:, 0], data[:, 1]


def test_reference_grid_relative_error(table):
    x, ref = table
    rel = np.abs(bessel_k1(x) - ref) / np.abs(ref)
    assert float(rel.max()) <= 1e-12


def test_crossover_is_seamless(table):
    x, ref = table
    near = (x > K1_CROSSOVER - 0.5) & (x < K1_CROSSOVER + 0.5)
    rel = np.abs(bessel_k1(x[near]) - ref[near]) / ref[near]
    assert float(rel.max()) <= 1e-13
    # both branches, one point each side, from the same smooth function.
    # Extrapolate linearly from two upper-branch points back across the
    # seam so the function's own slope cancels; any residual is a jump.
    h = 1e-9
    a = bessel_k1(K1_CROSSOVER - h)
    b1 = bessel_k1(K1_CROSSOVER + h)
    b3 = bessel_k1(K1_CROSSOVER + 3 * h)
    pred = 2.0 * b1 - b3
    assert abs(a - pred) / a <= 1e-12


def test_domain_error():
    with pytest.raises(DomainError):
        bessel_k1(0.0)
    with pytest.raises(DomainError):
        bessel_k1(np.array([1.0, -2.0]))


def test_hard_underflow_region():
    # e^{-x} is sub-denormal past ~746; the value collapses to 0
    assert bessel_k1(800.0) == 0.0


def test_shapes():
    assert np.isscalar(bessel_k1(1.5)) or np.ndim(bessel_k1(1.5)) == 0
    out = bessel_k1(np.ones((3, 4)))
    assert out.shape == (3, 4)


def test_monotone_decreasing(table):
    x, _ = table
    vals = bessel_k1(x)
    assert np.all(np.diff(vals) < 0)
