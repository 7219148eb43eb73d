"""Modified Bessel K_1 against the frozen high-precision reference table.

tests/data/k1_reference.csv is generated by tools/gen_k1_reference.py from
the integral representation at 30 significant digits, cross-checked there
against an independent implementation.  Production code never reads it.

The table cannot hold K_1 tighter than its 1e-12 gate shows: its x are
decimal strings, and rounding one to a double moves K_1 by about
|x K_1'(x) / K_1(x)| ~ x times the rounding, so on (2.7, 700] both the
Chebyshev branch and the continued fraction before it read up to 5.5e-14
against it.  The Chebyshev branch is therefore checked against mpmath at
the float x itself (at x ~ 645 it is 9.8e-17 from it), and its embedded
coefficients against tools/gen_k1_chebyshev.py.
"""

import sys
from pathlib import Path

import math

import mpmath as mp
import numpy as np
import pytest

from orbitcount.errors import InputError
from orbitcount.special import (
    _K1_CHEB,
    _SERIES,
    K1_CROSSOVER,
    bessel_k1,
)

REFERENCE = Path(__file__).parent / "data" / "k1_reference.csv"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import gen_k1_chebyshev  # noqa: E402


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
    # e^{-x} is sub-denormal past ~745.13; the value collapses to 0
    assert bessel_k1(800.0) == 0.0


def test_chebyshev_lanes_reach_the_end_of_the_float_range():
    # every x > K1_CROSSOVER is a Chebyshev lane: where math.exp(-x) is 0.0
    # (past about 745.13) the lane is exactly 0.0, the value a separate zero
    # lane past 746 used to give
    x = np.concatenate([
        np.linspace(700.0, 760.0, 60001)[1:],
        [746.0, np.nextafter(746.0, 0.0), np.nextafter(746.0, 800.0), 745.13, 745.14,
         800.0, 1e10, 1e300, 1.7e308, np.finfo(float).max],
    ])
    got = bessel_k1(x)
    want = np.array([_one_point_k1(v) for v in x.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    zero = np.array([math.exp(-v) == 0.0 for v in x.tolist()])
    assert zero[x > 745.14].all() and not zero[x < 745.13].any()
    assert np.all(got[zero] == 0.0) and np.all(got[x <= 740.0] > 0.0)


@pytest.mark.parametrize("x", [5e-324, 1e-310, 5.5e-309])
def test_past_the_float_range_near_0_is_inf(x):
    # K_1(x) ~ 1/x overflows below about 5.6e-309: +inf, with no exception
    # (log(x/2) has no float at 5e-324) and no warning (pytest makes one an
    # error), in a 0-d call and among finite lanes alike
    assert bessel_k1(x) == math.inf
    lanes = bessel_k1(np.array([x, 5.6e-309, 1.0, 800.0]))
    assert lanes[0] == math.inf and np.all(np.isfinite(lanes[1:]))
    assert lanes[1] == _one_point_k1(5.6e-309)


def test_shapes():
    assert np.isscalar(bessel_k1(1.5)) or np.ndim(bessel_k1(1.5)) == 0
    out = bessel_k1(np.ones((3, 4)))
    assert out.shape == (3, 4)


def _mixed_lanes():
    # series and Chebyshev lanes, the switch point exactly and its
    # neighbours, lanes where 1/x overflows and where e^{-x} underflows,
    # shuffled so the branches' lanes interleave
    x = np.concatenate([
        np.geomspace(1e-6, 900.0, 400),
        [K1_CROSSOVER, np.nextafter(K1_CROSSOVER, 0.0), np.nextafter(K1_CROSSOVER, 9.0)],
        [746.0, np.nextafter(746.0, 0.0), 746.5, 800.0, 1e300, 1.7e308],
        [5e-324, 5.5e-309, 5.6e-309],
    ])
    return np.random.default_rng(13).permutation(x)


def test_lanes_are_independent():
    x = _mixed_lanes()
    got = bessel_k1(x)
    one_by_one = np.array([bessel_k1(np.float64(v)) for v in x])
    assert got.view(np.int64).tolist() == one_by_one.view(np.int64).tolist()
    assert np.all(got[x > 746.0] == 0.0) and np.all(got[x < 5.6e-309] == math.inf)
    assert np.all(np.isfinite(got[x >= 5.6e-309])) and np.all(got[x <= 740.0] > 0.0)


def _one_point_k1(x: float) -> float:
    """The same Horner and Clenshaw sums as a plain-float loop on one point:
    the test oracle for the array path's operation order."""
    inv = 1.0 / x  # inf below about 5.6e-309, with no sums after it
    if x <= K1_CROSSOVER:
        if inv == math.inf:
            return inv
        q, p, s = 0.25 * x * x, 0.0, 0.0
        for a, b in _SERIES:
            p, s = p * q + a, s * q + b
        return inv + math.log(0.5 * x) * (0.5 * x * p) - 0.25 * x * s
    t = 2.0 * (K1_CROSSOVER / x) - 1.0
    b1 = b2 = 0.0
    for c in _K1_CHEB[:0:-1]:
        b1, b2 = (t + t) * b1 - b2 + c, b1
    return (t * b1 - b2 + 0.5 * _K1_CHEB[0]) / math.sqrt(x) * math.exp(-x)


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


def test_chebyshev_table_is_the_generated_one():
    # about 1 s: 64 besselk values and the cosine transform at 40 digits
    coef = gen_k1_chebyshev.coefficients()
    assert len(_K1_CHEB) == gen_k1_chebyshev.TERMS
    assert tuple(float(c) for c in coef[:len(_K1_CHEB)]) == _K1_CHEB
    # the first dropped term is far below half an ulp of g >= sqrt(pi/2)
    assert abs(float(coef[len(_K1_CHEB)])) < 2.5e-18


def test_chebyshev_branch_against_mpmath_at_the_float_x():
    rng = np.random.default_rng(38)
    x = np.concatenate([
        np.geomspace(np.nextafter(K1_CROSSOVER, 9.0), 700.0, 200),
        rng.uniform(K1_CROSSOVER, 10.0, 100), rng.uniform(10.0, 700.0, 100),
    ])
    got = bessel_k1(x)
    with mp.workdps(30):
        worst = max(abs(mp.mpf(float(v)) / mp.besselk(1, mp.mpf(float(t))) - 1)
                    for t, v in zip(x, got))
    assert worst <= 1e-15


def test_series_branch_against_mpmath_at_the_float_x():
    x = np.concatenate([np.linspace(0.0, K1_CROSSOVER, 1000)[1:],
                        [np.nextafter(K1_CROSSOVER, 0.0), 1e-6, 1e-3]])
    got = bessel_k1(x)
    with mp.workdps(30):
        worst = max(abs(mp.mpf(float(v)) / mp.besselk(1, mp.mpf(float(t))) - 1)
                    for t, v in zip(x, got))
    assert worst <= 1e-14


def test_series_pairs_are_the_ascending_coefficients():
    # a_k = 1/(k! (k+1)!) and h_k = psi(k+1) + psi(k+2), to a few ulps of the
    # float recurrences, k = 16 .. 0; the first dropped term is negligible
    assert len(_SERIES) == 17
    with mp.workdps(30):
        for k, (a, b) in zip(range(16, -1, -1), _SERIES):
            ak = 1 / (mp.factorial(k) * mp.factorial(k + 1))
            assert abs(a / ak - 1) < 1e-15
            assert abs(b / (ak * (mp.digamma(k + 1) + mp.digamma(k + 2))) - 1) < 1e-14
        x = mp.mpf(K1_CROSSOVER)
        q, k = x * x / 4, 17
        ak = q**k / (mp.factorial(k) * mp.factorial(k + 1))
        dropped = x / 2 * mp.log(x / 2) * ak - x / 4 * (mp.digamma(k + 1) + mp.digamma(k + 2)) * ak
        assert abs(dropped / mp.besselk(1, x)) < 1e-24
