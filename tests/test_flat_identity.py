"""The smoothed-count identity on the flat torus R^3 / Z^3, every pole train kept.

On Z^3 both sides of the counting formula are exact.  The (3, 2) kernel of
``orbitcount.torus`` is e^{-kappa r}/(8 pi kappa), so Poisson summation gives

    sum_{m in Z^3} e^{-z|m|} = 8 pi z sum_{k in Z^3} (z^2 + 4 pi^2 |k|^2)^{-2}

for Re z > 0.  Perron's integral of the smoothing kernel W, closed to the
left, then gives

    sum_{m in Z^3} W(X - |m|) = 8 pi R_0
        + sum_{n >= 1} 8 pi r_3(n) (A + B)(z_xi = 2 pi i sqrt(n))
        + 8 pi sum_m c_m G(m theta),

where R_0 is the residue at z = 0 of e^{zX}/(z^4 q(z)), A and B are the
residues that ``spectral_side_eval`` computes for the datum z_xi, and

    G(kappa) = sum_{k in Z^3} (4 pi^2 |k|^2 + kappa^2)^{-2}
             = sum_{m in Z^3} e^{-kappa |m|}/(8 pi kappa)

is ``torus_geometric_side`` at lambda = -kappa^2 and the origin.  The last
term is every datum's pole train Per at once, the constant (k = 0) datum's
8 pi sum_m c_m/(m theta)^4 included: summed as G it converges geometrically,
where the trains of the data one by one converge like N^{-1/2} over
|k|^2 <= N.  The data n <= N_MAX go through ``spectral_side_eval``, trains and
all, and their trains are taken back out in closed form.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from orbitcount.perron import SmoothingParams, smoothing_kernel
from orbitcount.spectral import SpectralDatum, Spectrum, spectral_side_eval
from orbitcount.torus import TorusParams, torus_geometric_side

#: the data 2 pi i sqrt(n), n = 1, ..., N_MAX; A + B decays like n^{-(4 + ell)/2}
N_MAX = 6400
TOL = 1e-12
#: tail target of each G(m theta): far below TOL / (8 pi |c_m|)
G_TARGET = 1e-18


@lru_cache(maxsize=None)
def _r3() -> np.ndarray:
    """r_3(n) for n = 0, ..., N_MAX: representations as a sum of three squares."""
    j = np.arange(-math.isqrt(N_MAX), math.isqrt(N_MAX) + 1)
    r1 = np.bincount(j * j, minlength=N_MAX + 1)
    return np.convolve(np.convolve(r1, r1)[: N_MAX + 1], r1)[: N_MAX + 1]


@lru_cache(maxsize=None)
def _data() -> Spectrum:
    r3 = _r3()
    return Spectrum(tuple(
        SpectralDatum(f"n{n}", complex(0.0, 2 * math.pi * math.sqrt(n)), 8 * math.pi * int(r3[n]))
        for n in range(1, N_MAX + 1) if r3[n]
    ))


def _train_coefficients(sm: SmoothingParams, X: float) -> list[float]:
    """c_m, m = 1, ..., ell: the residue of e^{zX}/q(z) at -m theta."""
    ell, theta = sm.ell, sm.theta
    return [
        (-1.0) ** (m - 1) * math.exp(-m * theta * X)
        / (math.factorial(m - 1) * math.factorial(ell - m) * theta ** (ell - 1))
        for m in range(1, ell + 1)
    ]


def _count(sm: SmoothingParams, X: float) -> float:
    """sum_{m in Z^3} W(X - |m|), shell by shell, exact up to rounding."""
    n = np.arange(math.ceil(X * X))
    return math.fsum((_r3()[n] * smoothing_kernel(sm, X - np.sqrt(n))).tolist())


def _residue_at_0(sm: SmoothingParams, X: float) -> float:
    """R_0: the coefficient of z^3 in e^{zX}/q(z), at 40 digits."""
    with mpmath.workdps(40):
        def f(z):
            q = mpmath.mpf(1)
            for m in range(1, sm.ell + 1):
                q *= z + m * mpmath.mpf(sm.theta)
            return mpmath.exp(z * X) / q
        return float(mpmath.taylor(f, 0, 3)[3])


def _sides(sm: SmoothingParams, X: float) -> tuple[float, float, float]:
    """(count, spectral side, the constant datum's train)."""
    c = _train_coefficients(sm, X)
    kappa = [m * sm.theta for m in range(1, sm.ell + 1)]
    G = [torus_geometric_side(TorusParams(3, 2, -k * k), (0.0, 0.0, 0.0), G_TARGET)[0]
         for k in kappa]
    # the trains spectral_side_eval gave the data n <= N_MAX, in closed form
    n = np.arange(1, N_MAX + 1)
    w = 8 * math.pi * _r3()[1:]
    per_data = [math.fsum((w / (k * k + 4 * math.pi**2 * n) ** 2).tolist()) for k in kappa]
    data = spectral_side_eval(_data(), X, sm).total
    assert abs(data.imag) <= TOL  # the data come in conjugate pairs +/- z_xi
    trains = 8 * math.pi * math.fsum(cm * g for cm, g in zip(c, G))
    side = math.fsum([
        8 * math.pi * _residue_at_0(sm, X),
        data.real,
        -math.fsum(cm * p for cm, p in zip(c, per_data)),
        trains,
    ])
    constant_train = 8 * math.pi * math.fsum(cm / k**4 for cm, k in zip(c, kappa))
    return _count(sm, X), side, constant_train


CELLS = [(5, 2.0), (5, 1.5), (6, 2.0), (6, 1.5)]


@pytest.mark.parametrize("X", [2.0, 5.0, 9.0])
@pytest.mark.parametrize("ell, theta", CELLS)
def test_lattice_count_is_the_spectral_side(ell, theta, X):
    count, side, _ = _sides(SmoothingParams(ell=ell, theta=theta), X)
    assert count > 0
    assert abs(count - side) <= TOL, (count, side, count - side)


@pytest.mark.parametrize("ell, theta", CELLS)
def test_dropping_the_constant_train_breaks_the_identity(ell, theta):
    # at X = 2 the k = 0 train is 7.5e-5 (ell = 5, theta = 2) up to 86% of
    # the count (ell = 6, theta = 1.5); by X = 9 it has decayed to about 6e-11
    count, side, constant_train = _sides(SmoothingParams(ell=ell, theta=theta), 2.0)
    assert abs(count - (side - constant_train)) > 1e6 * TOL
