"""Modified Bessel K_1 against the frozen high-precision reference table.

tests/data/k1_reference.csv is generated by tools/gen_k1_reference.py from
the integral representation at 30 significant digits, cross-checked there
against an independent implementation.  Production code never reads it.
"""

from pathlib import Path

import math

import numpy as np
import pytest

from orbitcount.errors import InputError
from orbitcount.special import EULER_GAMMA, K1_CROSSOVER, K1_HARD_UNDERFLOW, bessel_k1

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
    with pytest.raises(InputError, match="needs finite x > 0"):
        bessel_k1(0.0)
    with pytest.raises(InputError, match="needs finite x > 0"):
        bessel_k1(np.array([1.0, -2.0]))


def test_hard_underflow_region():
    # e^{-x} is sub-denormal past ~746; the value collapses to 0
    assert bessel_k1(800.0) == 0.0


def test_shapes():
    assert np.isscalar(bessel_k1(1.5)) or np.ndim(bessel_k1(1.5)) == 0
    out = bessel_k1(np.ones((3, 4)))
    assert out.shape == (3, 4)


def _mixed_lanes():
    # series, CF2 and underflow lanes, both switch points exactly and their
    # neighbours, shuffled so converged lanes sit between live ones
    x = np.concatenate([
        np.geomspace(1e-6, 900.0, 400),
        [K1_CROSSOVER, np.nextafter(K1_CROSSOVER, 0.0), np.nextafter(K1_CROSSOVER, 9.0)],
        [K1_HARD_UNDERFLOW, np.nextafter(K1_HARD_UNDERFLOW, 0.0), 746.5, 800.0, 1e300],
    ])
    return np.random.default_rng(13).permutation(x)


def test_lanes_are_independent():
    x = _mixed_lanes()
    got = bessel_k1(x)
    one_by_one = np.array([bessel_k1(np.float64(v)) for v in x])
    assert got.view(np.int64).tolist() == one_by_one.view(np.int64).tolist()
    assert np.all(got[x > K1_HARD_UNDERFLOW] == 0.0)
    assert np.all(got[x <= K1_HARD_UNDERFLOW - 1.0] > 0.0)


def _one_point_k1(x: float) -> float:
    """The same series and CF2 as a plain-float loop on one point: the test
    oracle for the array path's operation order."""
    eps = 2.2204460492503131e-16
    if x > K1_HARD_UNDERFLOW:
        return 0.0
    if x <= K1_CROSSOVER:
        q, term, h = 0.25 * x * x, 1.0, 1.0 - 2.0 * EULER_GAMMA
        s_i1, s_psi, k = term, h * term, 0
        while True:
            k += 1
            term *= q / (k * (k + 1))
            h += 1.0 / k + 1.0 / (k + 1)
            s_i1 += term
            s_psi += h * term
            if term * max(h, 1.0) < eps * (abs(s_psi) + abs(s_i1)):
                return 1.0 / x + math.log(0.5 * x) * (0.5 * x * s_i1) - 0.25 * x * s_psi
    b = 2.0 * (1.0 + x)
    d = h = delh = 1.0 / b
    q1, q2, q, c, a = 0.0, 1.0, 0.25, 0.25, -0.25
    s = 1.0 + q * delh
    for i in range(2, 20001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) <= eps:
            break
    k0 = math.sqrt(math.pi / (2.0 * x)) / s
    return k0 * (x + 0.5 - 0.25 * h) / x * math.exp(-x)


def test_array_path_equals_a_one_point_loop():
    # a dense series range too: numpy's log differs from math.log on a few
    x = np.concatenate([_mixed_lanes(), np.linspace(1e-3, K1_CROSSOVER, 10000)])
    want = np.array([_one_point_k1(v) for v in x.tolist()])
    assert bessel_k1(x).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_two_dimensional_input_keeps_shape_and_values():
    x = _mixed_lanes()[:408].reshape(17, 24)
    got = bessel_k1(x)
    assert got.shape == (17, 24)
    assert got.view(np.int64).tolist() == bessel_k1(x.ravel()).reshape(17, 24).view(np.int64).tolist()
    assert np.ndim(bessel_k1(np.array(2.0))) == 0
    assert bessel_k1(np.empty((0, 3))).shape == (0, 3)


def test_monotone_decreasing(table):
    x, _ = table
    vals = bessel_k1(x)
    assert np.all(np.diff(vals) < 0)
