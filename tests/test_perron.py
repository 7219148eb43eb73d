"""Smoothing kernel, its contour representation, and the smoothed census
count built from them."""

import math

import numpy as np
import pytest

from orbitcount.errors import CoverageError, InputError
from orbitcount.perron import (
    SmoothingParams,
    kernel_denominator,
    perron_contour_oracle,
    smoothed_geometric_count,
    smoothing_contour_transform,
    smoothing_kernel,
)
from orbitcount.poincare import series_evaluator_for_contour

W1 = 0.19978820044686402  # (1 - e^{-1})^2 / 2! at ell = 2, theta = 1


def test_params_validation():
    with pytest.raises(InputError):
        SmoothingParams(ell=0)
    with pytest.raises(InputError):
        SmoothingParams(theta=0.0)
    sm = SmoothingParams(ell=3, theta=0.5)
    assert sm.normalization == pytest.approx(math.factorial(3) * 0.5**3)
    assert sm.pole_train == (-0.5, -1.0, -1.5)


def test_kernel_zero_left_of_origin():
    sm = SmoothingParams()
    u = np.array([-3.0, -1e-12, 0.0])
    assert np.all(smoothing_kernel(sm, u) == 0.0)


def test_kernel_closed_form_and_limits():
    sm = SmoothingParams(ell=2, theta=1.0)
    assert float(smoothing_kernel(sm, 1.0)) == pytest.approx(W1, rel=1e-15)
    # binomial expansion, computed independently
    for u in (0.25, 1.5, 4.0):
        want = sum(
            (-1.0) ** j * math.comb(2, j) * math.exp(-j * u) for j in range(3)
        ) / sm.normalization
        assert float(smoothing_kernel(sm, u)) == pytest.approx(want, rel=1e-13)
    # saturates at 1 / normalization
    assert float(smoothing_kernel(sm, 80.0)) == pytest.approx(
        1.0 / sm.normalization, rel=1e-12
    )


def test_kernel_monotone():
    sm = SmoothingParams(ell=2, theta=0.8)
    u = np.linspace(0.01, 10.0, 200)
    assert np.all(np.diff(smoothing_kernel(sm, u)) > 0)


def test_denominator_roots():
    sm = SmoothingParams(ell=3, theta=0.7)
    for m in (1, 2, 3):
        assert abs(kernel_denominator(sm, np.array(-m * 0.7 + 0j))) <= 1e-15


def test_contour_oracle_converges_cubically():
    sm = SmoothingParams(ell=2, theta=1.0)
    errs = {}
    for T in (250.0, 500.0, 1000.0, 2000.0):
        li = perron_contour_oracle(1.0, sm, height=T)
        errs[T] = abs(li.value.real - W1)
    # frozen from the first validated run; the rule is deterministic
    assert errs[250.0] == pytest.approx(1.398713e-08, rel=1e-3)
    assert errs[1000.0] == pytest.approx(4.844492e-10, rel=1e-3)
    assert errs[2000.0] == pytest.approx(3.989409e-11, rel=1e-3)
    slope = -np.polyfit(np.log(list(errs)), np.log(list(errs.values())), 1)[0]
    assert abs(slope - 3.0) <= 0.3


def test_contour_oracle_negative_argument_vanishes():
    sm = SmoothingParams(ell=2, theta=1.0)
    for u in (-0.7, -1.5):
        li = perron_contour_oracle(u, sm, height=500.0)
        assert abs(li.value) <= 1e-8


def test_contour_oracle_needs_positive_sigma():
    with pytest.raises(InputError):
        perron_contour_oracle(1.0, SmoothingParams(), sigma=0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_contour_oracle_needs_positive_tolerance(tol):
    with pytest.raises(InputError, match="quad_tol must be > 0"):
        perron_contour_oracle(1.0, SmoothingParams(), abs_tol=tol)


def test_smoothed_count_frozen_value(census8):
    sm = SmoothingParams(ell=2, theta=1.0)
    out = smoothed_geometric_count(census8, 1.0, sm)
    assert out.value == pytest.approx(1.6357703105122159, rel=1e-14)
    assert out.census_size_used == 72
    # the total is the correctly rounded sum of the shell subtotals
    assert math.fsum(v for _f, v in out.shell_subtotals) == out.value


def test_smoothed_count_coverage_gate(census2):
    sm = SmoothingParams()
    # census2 certifies radii up to 2 log 2; X beyond that is refused
    with pytest.raises(CoverageError):
        smoothed_geometric_count(census2, 2.0 * math.log(2.0) + 0.1, sm)


def test_transform_of_truncated_series_matches_direct_count(census2):
    # both sides are the same finite sum, one through the contour
    sm = SmoothingParams(ell=2, theta=1.0)
    X = 0.8
    direct = smoothed_geometric_count(census2, X, sm)
    f = series_evaluator_for_contour(census2)
    li = smoothing_contour_transform(f, X, sm, sigma=7.0, height=1000.0)
    assert abs(li.value.real - direct.value) <= 1e-6
    assert abs(li.value.imag) <= 1e-9


def test_bridge_at_height_4000(census8):
    # acceptance criterion 6's bridge at the benchmark's largest height: the
    # contour transform of the census series against the direct count
    sm = SmoothingParams(ell=2, theta=1.0)
    direct = smoothed_geometric_count(census8, 1.0, sm)
    f = series_evaluator_for_contour(census8)
    li = smoothing_contour_transform(f, 1.0, sm, sigma=7.0, height=4000.0)
    assert abs(li.value.real - direct.value) <= 1e-6
