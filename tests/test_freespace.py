"""The free-space radial kernel and its root product factor."""

import math

import numpy as np
import pytest

from orbitcount.errors import PoleError
from orbitcount.freespace import kernel, product_factor


def test_product_factor_at_origin_is_one():
    assert float(product_factor(0.0)) == 1.0


def test_product_factor_rank1_closed_form():
    # single class with alpha(H) = 2r, counted once: r / sinh r
    r = np.array([0.3, 1.0, 2.5, 10.0])
    want = r / np.sinh(r)
    assert np.allclose(product_factor(r), want, rtol=1e-14)


def test_product_factor_small_argument_branch():
    # the series branch and the direct formula must agree where they meet
    for t in (1e-7, 9e-7, 1.1e-6, 1e-5):
        direct = (2.0 * t) / (2.0 * math.sinh(t))
        assert float(product_factor(t)) == pytest.approx(direct, rel=1e-13)


def test_product_factor_is_even():
    r = np.array([0.7, 1.9])
    assert np.allclose(product_factor(r), product_factor(-r), rtol=0, atol=0)


def test_kernel_closed_form():
    z, r = 2.0, 1.5
    want = (r / math.sinh(r)) * math.exp(-z * r) / z
    got = complex(kernel(z, r))
    assert got.imag == 0.0
    assert got.real == pytest.approx(want, rel=1e-14)


def test_kernel_origin_limit():
    # r -> 0 limit is C_G / z
    z = 3.0
    assert complex(kernel(z, 1e-12)).real == pytest.approx(1.0 / z, rel=1e-9)


def test_kernel_complex_z():
    z = complex(2.0, 0.7)
    r = 1.2
    got = complex(kernel(z, r))
    want = (r / math.sinh(r)) * np.exp(-z * r) / z
    assert abs(got - want) <= 1e-15 * abs(want)


def test_kernel_pole():
    with pytest.raises(PoleError):
        kernel(0.0, 1.0)
