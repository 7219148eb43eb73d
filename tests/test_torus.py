"""Flat-torus two-sided identity: the fully independent cross-check of the
smoothing/spectral machinery on a space where both sides are elementary."""

import itertools
import math
import re

import numpy as np
import pytest

from orbitcount.errors import InputError
from orbitcount.special import bessel_k1
from orbitcount.torus import (
    GEOM_TRUNC,
    SPECTRAL_TRUNC,
    TorusParams,
    torus_geometric_side,
    torus_identity_check,
    torus_kernel,
    torus_spectral_side,
)


def test_params_validation():
    with pytest.raises(InputError):
        TorusParams(n=4, nu=2, lam=-1.0)
    with pytest.raises(InputError):
        TorusParams(n=1, nu=3, lam=-1.0)
    with pytest.raises(InputError):
        TorusParams(n=1, nu=1, lam=0.5)
    p = TorusParams(n=2, nu=2, lam=-4.0)
    assert p.kappa == pytest.approx(2.0)
    with pytest.raises(InputError, match="radius must be >= 0"):
        torus_kernel(p, [0.5, -1e-300])


def test_divergent_cells_are_refused():
    # 2 nu <= n: the spectral sum diverges, so construction must fail loudly
    for n, nu in ((2, 1), (3, 1)):
        with pytest.raises(InputError, match="convergent"):
            TorusParams(n=n, nu=nu, lam=-1.0)


def test_kernel_closed_forms():
    r = 0.9
    k1 = TorusParams(n=1, nu=1, lam=-1.0)
    assert float(torus_kernel(k1, r)) == pytest.approx(
        math.exp(-r) / 2.0, rel=1e-14
    )
    k12 = TorusParams(n=1, nu=2, lam=-1.0)
    assert float(torus_kernel(k12, r)) == pytest.approx(
        math.exp(-r) * (1.0 + r) / 4.0, rel=1e-14
    )
    k22 = TorusParams(n=2, nu=2, lam=-1.0)
    assert float(torus_kernel(k22, r)) == pytest.approx(
        r * float(bessel_k1(r)) / (4.0 * math.pi), rel=1e-13
    )
    k32 = TorusParams(n=3, nu=2, lam=-1.0)
    assert float(torus_kernel(k32, r)) == pytest.approx(
        math.exp(-r) / (8.0 * math.pi), rel=1e-14
    )


def test_planar_kernel_origin_limit():
    k22 = TorusParams(n=2, nu=2, lam=-1.0)
    at_zero = float(torus_kernel(k22, 0.0))
    assert at_zero == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert float(torus_kernel(k22, 1e-9)) == pytest.approx(at_zero, rel=1e-6)


def test_headline_cell_tight_budget():
    p = TorusParams(n=1, nu=1, lam=-1.0)
    cmp = torus_identity_check(p, (0.0,))
    assert cmp.budget <= 1e-10
    assert cmp.discrepancy <= cmp.budget
    assert cmp.accelerated
    # frozen two-sided value of the headline cell
    assert cmp.geometric == pytest.approx(1.0819767068693262, abs=1e-11)


def test_grid_within_budget():
    for n, nu in ((1, 1), (1, 2), (2, 2), (3, 2)):
        for lam in (-1.0, -3.0):
            for first in (0.0, 0.3):
                x = tuple([first] + [0.0] * (n - 1))
                cmp = torus_identity_check(TorusParams(n=n, nu=nu, lam=lam), x)
                assert cmp.within_budget, (n, nu, lam, x)


def _brute_spectral_side(nu: int, K: int, x):
    """The n = 1 spectral side at x with the box widened to |k| <= K."""
    with pytest.MonkeyPatch.context() as m:
        m.setitem(SPECTRAL_TRUNC, 1, K)
        return torus_spectral_side(TorusParams(n=1, nu=nu, lam=-2.0), x)


def test_acceleration_matches_brute_force():
    # the accelerated x = 0 path against a straight heavy truncation; the
    # two certified tails must cover the gap between them
    # 1e-12 sits above the x = 0 detection threshold but perturbs the sum
    # by < 1e-18, so it forces the plain truncated path at the same value
    near_zero = (1e-12,)
    for nu in (1, 2):
        fast = torus_spectral_side(TorusParams(n=1, nu=nu, lam=-2.0), (0.0,))
        brute = _brute_spectral_side(nu, 2_000_000, near_zero)
        assert fast[2] is True  # accelerated
        assert brute[2] is False
        assert abs(fast[0] - brute[0]) <= fast[1] + brute[1] + 1e-12
    # at nu = 2 the k^-4 truncation tail is negligible, so the values agree
    fast2 = torus_spectral_side(TorusParams(n=1, nu=2, lam=-2.0), (0.0,))
    brute2 = _brute_spectral_side(2, 200_000, near_zero)
    assert fast2[0] == pytest.approx(brute2[0], rel=1e-12)


def test_geometric_side_is_periodic_and_even():
    p = TorusParams(n=2, nu=2, lam=-1.5)
    g0, _ = torus_geometric_side(p, (0.3, 0.1))
    g1, _ = torus_geometric_side(p, (1.3, 0.1))
    g2, _ = torus_geometric_side(p, (-0.3, -0.1))
    assert g0 == pytest.approx(g1, rel=1e-13)
    assert g0 == pytest.approx(g2, rel=1e-13)


def test_point_dimension_checked():
    p = TorusParams(n=2, nu=2, lam=-1.0)
    with pytest.raises(InputError):
        torus_identity_check(p, (0.0,))


@pytest.mark.parametrize("n,nu", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_spectral_side_equals_the_full_box(monkeypatch, n, nu):
    # the octant contraction against sum_{|k|_inf <= K} cos(2 pi k.x) / den
    K = 8
    monkeypatch.setitem(SPECTRAL_TRUNC, n, K)
    rng = np.random.default_rng(20261018 + n)
    p = TorusParams(n=n, nu=nu, lam=-1.7)
    box = np.array(list(itertools.product(range(-K, K + 1), repeat=n)), dtype=float)
    den = (4.0 * math.pi**2 * np.sum(box * box, axis=1) + p.kappa**2) ** nu
    for x in rng.uniform(-0.5, 0.5, size=(3, n)):
        brute = math.fsum(np.cos(2.0 * math.pi * (box @ x)) / den)
        value, _tail, accelerated = torus_spectral_side(p, x)
        assert not accelerated
        assert value == pytest.approx(brute, rel=1e-14)


def test_geometric_side_equals_a_per_point_loop(monkeypatch):
    M = 3
    monkeypatch.setitem(GEOM_TRUNC, 3, M)
    p = TorusParams(n=3, nu=2, lam=-2.0)
    x = np.array([0.31, -0.12, 0.44])
    radii = [
        math.sqrt(((x[0] + a) ** 2 + (x[1] + b) ** 2) + (x[2] + c) ** 2)
        for a, b, c in itertools.product(range(-M, M + 1), repeat=3)
    ]
    value, _tail = torus_geometric_side(p, x)
    assert value == float(np.sum(torus_kernel(p, np.array(radii))))


@pytest.mark.parametrize("n,nu", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_geometric_tail_covers_the_dropped_shells(monkeypatch, n, nu):
    x = (0.2,) * n
    for lam in (-0.05, -1.0):
        p = TorusParams(n=n, nu=nu, lam=lam)
        monkeypatch.setitem(GEOM_TRUNC, n, 4)
        value, tail = torus_geometric_side(p, x)
        monkeypatch.setitem(GEOM_TRUNC, n, 12)
        deep, _ = torus_geometric_side(p, x)
        assert 0.0 < deep - value <= tail


def test_geometric_tail_refuses_lambda_too_close_to_0():
    with pytest.raises(InputError, match="too close to 0"):
        torus_geometric_side(TorusParams(n=1, nu=1, lam=-1e-40), (0.0,))


@pytest.mark.parametrize("n,nu,lam", [(1, 1, -400.0), (2, 2, -1000.0), (3, 2, -2000.0)])
def test_geometric_tail_is_never_zero(n, nu, lam):
    # every shell term is positive, but once e^{-kappa (M + 1/2)} underflowed
    # their sum, and so the certified tail, was exactly 0.0
    _value, tail = torus_geometric_side(TorusParams(n=n, nu=nu, lam=lam), (0.0,) * n)
    assert tail >= 3 * math.ulp(0.0)


# (n, nu, lambda) whose kernel constant (4 kappa^3 for (1, 2), 4 pi kappa^2
# for (2, 2)) or Euler-Maclaurin f''' (3u * u^{-4} = inf * 0 for (1, 1))
# leaves the float range; every other cell of the grid is finite
OUT_OF_RANGE = {(1, 1, -1e308), (1, 2, -1e300), (1, 2, -1e308), (2, 2, -1e308)}


@pytest.mark.parametrize("lam", [-1e10, -1e205, -1e300, -1e308])
@pytest.mark.parametrize("n,nu", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_extreme_lambda_is_finite_or_refused(n, nu, lam):
    # (1, 1) at -1e308 gave a nan spectral side, and (1, 2) at -1e300 an
    # OverflowError from 4 kappa**3
    p = TorusParams(n=n, nu=nu, lam=lam)
    if (n, nu, lam) in OUT_OF_RANGE:
        with pytest.raises(InputError, match=re.escape(f"lambda = {lam:g} is out of range")):
            torus_identity_check(p, (0.0,) * n)
        return
    c = torus_identity_check(p, (0.0,) * n)
    assert all(math.isfinite(v) for v in (c.geometric, c.spectral, c.spectral_tail, c.budget))
    assert 0.0 < c.geometric_tail < math.inf
