"""Printed certificates against references computed another way.

A certificate is a bound that a report prints for what its computation
leaves out.  Each test here recomputes what is left out, independently of
the code that bounds it, and requires the printed bound to be at least
that.

* The census series tail ``series_eval(...).tail`` rests on an
  extrapolated growth model.  The reference sums the exact shell counts
  N(F) of :func:`form_counts` over the F the census omits up to 2048, and
  bounds the rest by N(F) <= 32 F^2: N(F) = 8 sum_{x=1}^{F-1} r2(x (F - x)
  - 1), and r2(m) <= 4 (2 sqrt(m) + 1) <= 4 (F + 1) for m <= F^2 / 4.
* The n = 1 torus geometric tail bounds the images |m| > M of the
  periodized kernel.  For |x| <= 1/2 they sum in closed form, a geometric
  series, to cosh(kappa x) e^{-kappa (M + 1)} / (kappa (1 - e^{-kappa}))
  at nu = 1 and to its lambda-derivative at nu = 2.
"""

import mpmath as mp
import numpy as np
import pytest

from orbitcount.lattice import Census, form_counts
from orbitcount.poincare import series_eval
from orbitcount.torus import GEOM_TRUNC, TorusParams, torus_geometric_side

F_REF = 2048
SERIES_ZS = [5.3, 6.0, 6.0 + 50.0j, 7.0]


@pytest.fixture(scope="module")
def shell_sizes():
    """N(F) for F = 0, ..., F_REF, each checked against N(F) <= 32 F^2."""
    n = form_counts(F_REF)
    f = np.arange(F_REF + 1)
    assert (n <= 32 * f * f).all()
    return [mp.mpf(int(v)) for v in n]


def _kernel_size(F, z: complex):
    """|u_z(r)| = (r / sinh r) e^{-Re z r} / |z| at r = arccosh(F / 2)."""
    r = mp.acosh(mp.mpf(F) / 2)
    return r / mp.sinh(r) * mp.exp(-z.real * r) / abs(z)


def _beyond_ref(z: complex):
    """A bound on the series terms with F > F_REF.  There r <= log F,
    sinh r >= (F - 1) / 2 and e^r >= F - 1/2, so with N(F) <= 32 F^2 a
    term is at most g(F) = 64 F^2 log F / ((F - 1) (F - 1/2)^{Re z} |z|).
    g decreases for Re z > 3, so the sum over F > F_REF is at most the
    integral of g from F_REF."""
    def g(f):
        return 64 * f * f * mp.log(f) / ((f - 1) * (f - mp.mpf(0.5)) ** z.real * abs(z))

    return mp.quad(g, [F_REF, 2 * F_REF, mp.inf])


@pytest.mark.parametrize("source", ["enumerated", "loaded"])
@pytest.mark.parametrize("cutoff", [1, 2, 4, 8])
def test_series_tail_covers_the_omitted_shells(cutoff, source, shell_sizes, request, tmp_path):
    census = request.getfixturevalue(f"census{cutoff}")
    if source == "loaded":  # its cutoff is the largest gauge, so r0 is smaller
        census.to_csv(tmp_path / "census.csv")
        census = Census.from_csv(tmp_path / "census.csv")
    f_top = int(census.shell_table.fnorm[-1])
    assert np.array_equal(np.bincount(census.fnorm, minlength=f_top + 1),
                          [int(v) for v in shell_sizes[: f_top + 1]])
    with mp.workdps(30):
        for z in SERIES_ZS:
            exact = mp.fsum(shell_sizes[f] * _kernel_size(f, z)
                            for f in range(f_top + 1, F_REF + 1))
            exact += _beyond_ref(z)
            tail = series_eval(census, z).tail
            assert tail >= exact, (z, tail, exact)


def _lam_form(nu: int, lam: float, form):
    """``form(kappa)`` at nu = 1, and its lambda-derivative at nu = 2."""
    def at(lm):
        return form(mp.sqrt(-lm))

    return at(mp.mpf(lam)) if nu == 1 else mp.diff(at, mp.mpf(lam))


@pytest.mark.parametrize("x", [0.0, 0.3])
@pytest.mark.parametrize("lam", [-1.0, -3.0, -0.01, -400.0])
@pytest.mark.parametrize("nu", [1, 2])
def test_torus_geometric_tail_covers_the_omitted_images(nu, lam, x):
    M = GEOM_TRUNC[1]
    _value, tail = torus_geometric_side(TorusParams(n=1, nu=nu, lam=lam), x)
    with mp.workdps(40):
        xm = mp.mpf(x)  # the float's exact binary value
        error = _lam_form(nu, lam, lambda k: (
            mp.cosh(k * xm) * mp.exp(-k * (M + 1)) / (k * (1 - mp.exp(-k)))))
        if lam > -10:  # the whole sum's closed form, less the images |m| <= M
            whole = _lam_form(nu, lam, lambda k: (
                mp.cosh(k * (mp.mpf(0.5) - abs(xm))) / (2 * k * mp.sinh(k / 2))))
            k = mp.sqrt(-mp.mpf(lam))
            r = [abs(xm + m) for m in range(-M, M + 1)]
            power = [1] * len(r) if nu == 1 else [(1 + k * v) / (2 * k * k) for v in r]
            kept = mp.fsum(mp.exp(-k * v) * p for v, p in zip(r, power)) / (2 * k)
            assert mp.almosteq(whole - kept, error, rel_eps=mp.mpf(10) ** -20)
        assert 0 < error <= tail, (tail, error)
