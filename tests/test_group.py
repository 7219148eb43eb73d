"""Gauge, radius, and the singular-value (Cartan) split of 2x2 unimodular
matrices, all read from LAPACK's SVD."""

import re

import numpy as np
import pytest

from orbitcount.errors import InputError
from orbitcount.group import (
    cartan_decompose,
    check_unimodular,
    exp_cartan,
    frobenius_sq,
    gauge,
    radius,
    random_elements,
    random_su2,
)


def test_exp_cartan_roundtrip(rng):
    r = np.linspace(0.0, 40.0, 81)
    g = exp_cartan(r)
    assert np.allclose(radius(g), r, atol=1e-12, rtol=1e-12)
    assert np.allclose(gauge(g), np.exp(r / 2.0), rtol=1e-13)
    # near the identity F = 2 cosh r rounds to 2 below r ~ 1e-8; the
    # largest singular value keeps r to about an ulp, conjugated or not
    r = np.array([1e-12, 1e-8, 1e-6])
    g = exp_cartan(r)
    k = random_su2(2 * len(r), rng)
    for m in (g, k[: len(r)] @ g @ k[len(r) :]):
        assert np.allclose(radius(m), r, atol=1e-14, rtol=0.0)


def test_scalar_relations():
    # F = 2 cosh r for a diagonal element, and gauge^2 solves
    # T^4 - F T^2 + 1 = 0 with the + branch
    r = 1.7
    g = exp_cartan(r)
    F = float(frobenius_sq(g))
    assert F == pytest.approx(2.0 * np.cosh(r), rel=1e-14)
    T = float(gauge(g))
    assert T * T == pytest.approx((F + np.sqrt(F * F - 4.0)) / 2.0, rel=1e-14)


def test_identity_is_radius_zero():
    eye = np.eye(2, dtype=complex)
    assert float(radius(eye)) == 0.0
    assert float(gauge(eye)) == 1.0


def test_frobenius_clamp_near_identity():
    # rounding can push F a hair under 2; radius must come back 0, not nan
    g = np.eye(2, dtype=complex) * np.nextafter(1.0, 0.0)
    assert float(frobenius_sq(g)) < 2.0
    assert float(radius(g)) == 0.0
    # the largest singular value is 1 - ulp too; gauge is clamped at 1
    assert float(gauge(g)) == 1.0


def test_check_unimodular_rejects():
    g = np.diag([2.0 + 0j, 1.0 + 0j])
    with pytest.raises(InputError, match="matrix is not unimodular"):
        check_unimodular(g)
    for fn in (radius, gauge):
        with pytest.raises(InputError, match=re.escape("expected (..., 2, 2) matrices, got shape (3, 3)")):
            fn(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fn", [radius, gauge, cartan_decompose])
def test_non_finite_entry_is_refused(fn, bad):
    # nan used to pass the determinant gate (nan > tol is False), and inf
    # failed only on a numpy RuntimeWarning
    g = np.eye(2, dtype=complex)
    g[0, 1] = bad
    with pytest.raises(InputError, match="non-finite entry"):
        fn(g)


def test_random_su2_is_unitary_unimodular(rng):
    u = random_su2(256, rng)
    eye = np.eye(2)
    prods = u @ np.conj(np.swapaxes(u, -1, -2))
    assert np.max(np.abs(prods - eye)) <= 1e-12
    dets = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    assert np.max(np.abs(dets - 1.0)) <= 1e-12


def test_decompose_reconstructs(rng):
    # the two small windows sit where F = 2 cosh r carries no radius
    for radius_high in (20.0, 1e-3, 1e-8):
        g = random_elements(512, rng, radius_low=0.0, radius_high=radius_high)
        fac = cartan_decompose(g)
        rebuilt = fac.k1 @ exp_cartan(fac.cartan[..., 0]) @ fac.k2
        assert np.max(np.abs(rebuilt - g)) <= 1e-10
        # unitary factors stay unitary
        for k in (fac.k1, fac.k2):
            err = k @ np.conj(np.swapaxes(k, -1, -2)) - np.eye(2)
            assert np.max(np.abs(err)) <= 1e-10
        assert np.all(fac.cartan[..., 0] >= 0.0)


def test_decompose_radius_matches_gauge(rng):
    g = random_elements(128, rng, radius_high=12.0)
    fac = cartan_decompose(g)
    assert np.allclose(fac.cartan[..., 0], radius(g), atol=1e-11)


def test_decompose_is_deterministic(rng):
    g = random_elements(16, rng)
    a = cartan_decompose(g)
    b = cartan_decompose(g.copy())
    assert np.array_equal(a.k1, b.k1)
    assert np.array_equal(a.cartan, b.cartan)
    assert np.array_equal(a.k2, b.k2)


def test_decompose_identity_convention():
    eye = np.eye(2, dtype=complex)
    fac = cartan_decompose(eye)
    assert np.allclose(fac.cartan, 0.0)
    assert np.allclose(fac.k1 @ fac.k2, eye, atol=1e-15)
