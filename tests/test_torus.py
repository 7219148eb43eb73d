"""Flat-torus two-sided identity: the fully independent cross-check of the
smoothing/spectral machinery on a space where both sides are elementary."""

import bisect
import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from orbitcount.errors import InputError
from orbitcount.special import bessel_k1
from orbitcount.torus import (
    SPECTRAL_TRUNC,
    TorusParams,
    _geometric_box,
    _refuse_unless_finite,
    _tail_bounds,
    torus_geometric_side,
    torus_identity_check,
    torus_kernel,
    torus_spectral_side,
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_value_that_is_not_finite_is_refused(bad, at):
    # no (n, nu, lambda) is known to reach the guard, so it is called directly:
    # a nan or infinite side, tail or budget is refused, naming lambda and (n, nu)
    params = TorusParams(n=2, nu=2, lam=-1.5)
    values = [1.0, 2e-12, 3.0, 4e-12]
    _refuse_unless_finite(params, *values)  # all finite: no refusal
    values[at] = bad
    with pytest.raises(InputError, match=re.escape("lambda = -1.5 is out of range")) as exc:
        _refuse_unless_finite(params, *values)
    assert "(n, nu) = (2, 2)" in str(exc.value)


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
    # frozen two-sided value of the headline cell
    assert cmp.geometric == pytest.approx(1.0819767068693262, abs=1e-11)


def test_grid_within_budget():
    for n, nu in ((1, 1), (1, 2), (2, 2), (3, 2)):
        for lam in (-1.0, -3.0):
            for first in (0.0, 0.3):
                x = tuple([first] + [0.0] * (n - 1))
                cmp = torus_identity_check(TorusParams(n=n, nu=nu, lam=lam), x)
                assert cmp.within_budget, (n, nu, lam, x)


def _fourier_box(p: TorusParams, K: int, x: float) -> tuple[float, float]:
    """The plain n = 1 Fourier box sum_{|k| <= K} cos(2 pi k x) / a_k^nu and
    a bound on its error: by |cos| <= 1 the shells |k| > K are at most
    2 int_K^inf (4 pi^2 t^2)^{-nu} dt.  A term is off by a few ulps of
    1/a_k^nu and by the rounding of 2 pi k x, about 1e-16 |x| / k: both are
    under 1e-14 times the sum of |term| (at least 1/4 for -2 <= lambda < 0),
    and the fsum is exact."""
    k = np.arange(-K, K + 1, dtype=float)
    terms = np.cos(2.0 * math.pi * k * x) / (4.0 * math.pi**2 * k * k - p.lam) ** p.nu
    shells = 2.0 * K ** (1 - 2 * p.nu) / ((2 * p.nu - 1) * (4.0 * math.pi**2) ** p.nu)
    return math.fsum(terms), shells + 1e-14 * float(np.sum(np.abs(terms)))


def test_acceleration_matches_brute_force():
    # the n = 1 Ewald value (the accelerated rule) against the plain Fourier
    # box, within the box's error bound and its own, at a small box and a
    # large one; 1e-12 moves no box term by more than 1e-18 but is not the
    # origin
    for nu in (1, 2):
        p = TorusParams(n=1, nu=nu, lam=-2.0)
        for x in (0.0, 1e-12, 0.3):
            value, bound = torus_spectral_side(p, (x,))
            for K in (8, 20_000):
                box, box_bound = _fourier_box(p, K, x)
                assert abs(value - box) <= box_bound + bound, (nu, x, K, value - box)


def test_geometric_side_is_periodic_and_even():
    p = TorusParams(n=2, nu=2, lam=-1.5)
    g0, _ = torus_geometric_side(p, (0.3, 0.1), 1e-8)
    g1, _ = torus_geometric_side(p, (1.3, 0.1), 1e-8)
    g2, _ = torus_geometric_side(p, (-0.3, -0.1), 1e-8)
    assert g0 == pytest.approx(g1, rel=1e-13)
    assert g0 == pytest.approx(g2, rel=1e-13)


def test_point_dimension_checked():
    p = TorusParams(n=2, nu=2, lam=-1.0)
    with pytest.raises(InputError):
        torus_identity_check(p, (0.0,))


@pytest.mark.parametrize("n,nu", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_spectral_side_equals_the_full_box(monkeypatch, n, nu):
    # the octant contraction against sum_{|k|_inf <= K} cos(2 pi k.x) / den,
    # at three points in a small box and at one in the box the CLI runs,
    # where n = 3 sums its last axis once for each of 1,446 partial norms;
    # n = 1 has no box, and its Ewald value is the whole series, so it meets
    # the same boxes (K = 8 and 20,000) within their shell bound and its tail
    rng = np.random.default_rng(20261018 + n)
    p = TorusParams(n=n, nu=nu, lam=-1.7)
    if n == 1:
        for K, points in [(8, rng.uniform(-0.5, 0.5, size=3)),
                          (20_000, rng.uniform(-0.5, 0.5, size=1))]:
            for x in points:
                value, tail = torus_spectral_side(p, (x,))
                box, box_bound = _fourier_box(p, K, x)
                assert abs(value - box) <= box_bound + tail, (K, x, value - box)
        return
    cases = [(8, rng.uniform(-0.5, 0.5, size=(3, n))),
             (SPECTRAL_TRUNC[n], rng.uniform(-0.5, 0.5, size=(1, n)))]
    for K, points in cases:
        monkeypatch.setitem(SPECTRAL_TRUNC, n, K)
        r = np.arange(-K, K + 1, dtype=float)
        box = np.stack(np.meshgrid(*[r] * n, indexing="ij"), axis=-1).reshape(-1, n)
        den = (4.0 * math.pi**2 * np.sum(box * box, axis=1) + p.kappa**2) ** nu
        for x in points:
            brute = math.fsum(np.cos(2.0 * math.pi * (box @ x)) / den)
            value, _tail = torus_spectral_side(p, x)
            assert value == pytest.approx(brute, rel=1e-14)


def _octant_reference(p: TorusParams, x) -> float:
    """The n = 2 and 3 octant contraction as it formed its profile before
    the box was formed in place: ``profile(mu[:, None] + k2) * cos``, with
    a fresh temporary at every step."""
    def profile(s2):
        u = 1.0 / (4.0 * math.pi**2 * s2 + p.kappa**2)
        return u if p.nu == 1 else u * u

    K = SPECTRAL_TRUNC[p.n]
    k = np.arange(K + 1, dtype=float)
    k2 = np.arange(K + 1) ** 2
    weight = np.where(k > 0, 2.0, 1.0)
    x = np.asarray(x, dtype=float) - np.round(x)
    cos = [weight * np.cos(2.0 * math.pi * k * xj) for xj in x]
    m = functools.reduce(np.add.outer, [k2] * (p.n - 1), np.zeros((), int))
    mu, inv = np.unique(m, return_inverse=True)
    rows = (profile(mu[:, None] + k2) * cos.pop())[..., ::-1].sum(-1)
    prof = rows[inv.reshape(m.shape)]
    for c in cos[::-1]:
        prof = (prof * c)[..., ::-1].sum(-1)
    return float(prof)


@pytest.mark.parametrize("lam", [-0.01, -1.0, -3.0, -400.0, -1e4])
@pytest.mark.parametrize("n", [2, 3])
def test_fourier_box_formed_in_place_is_bit_for_bit(n, lam):
    # the profile is formed in place in one (norms, K + 1) array; every
    # rounding must be the one the fresh-temporary expression made
    p = TorusParams(n=n, nu=2, lam=lam)
    rng = np.random.default_rng(4800 + n)
    points = [np.zeros(n), np.full(n, 0.5), *rng.uniform(-0.5, 0.5, size=(2, n))]
    for x in points:
        value, _tail = torus_spectral_side(p, x)
        assert value.hex() == _octant_reference(p, x).hex(), x


def test_geometric_side_equals_a_per_point_loop():
    p = TorusParams(n=3, nu=2, lam=-2.0)
    x = np.array([0.31, -0.12, 0.44])
    target = torus_spectral_side(p, x)[1]
    M, _tail = _geometric_box(p, target)
    assert M >= 3
    radii = [
        math.sqrt(((x[0] + a) ** 2 + (x[1] + b) ** 2) + (x[2] + c) ** 2)
        for a, b, c in itertools.product(range(-M, M + 1), repeat=3)
    ]
    value, _tail = torus_geometric_side(p, x, target)
    assert value == float(np.sum(torus_kernel(p, np.array(radii))))


def _box_sum(p: TorusParams, x, M: int) -> float:
    """The periodized kernel summed over the points of |m|_inf <= M."""
    axes = np.meshgrid(*[np.arange(-M, M + 1.0)] * p.n, indexing="ij")
    r = np.sqrt(sum((xj + a) ** 2 for xj, a in zip(x, axes)))
    return math.fsum(torus_kernel(p, r.ravel()))


@pytest.mark.parametrize("n,nu", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_geometric_tail_covers_the_dropped_shells(n, nu):
    # against a box 12 shells deeper than the one the target picks
    x = (0.2,) * n
    for lam in (-0.05, -1.0):
        p = TorusParams(n=n, nu=nu, lam=lam)
        target = 0.1 / (-lam) ** nu
        M, _ = _geometric_box(p, target)
        value, tail = torus_geometric_side(p, x, target)
        assert tail <= target
        assert 0.0 < _box_sum(p, x, M + 12) - value <= tail


def test_geometric_tail_refuses_lambda_too_close_to_0():
    with pytest.raises(InputError, match="too close to 0"):
        torus_geometric_side(TorusParams(n=1, nu=1, lam=-1e-40), (0.0,), 1e-16)


@pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
def test_geometric_side_refuses_a_target_that_is_not_finite_and_positive(target):
    # 0 and -1 raised a bare "math domain error", and nan was refused as
    # lambda = -1 being too close to 0
    with pytest.raises(InputError, match=re.escape(
            f"geometric tail target must be finite and > 0, got {target}")):
        torus_geometric_side(TorusParams(n=1, nu=1, lam=-1.0), (0.0,), target)


@pytest.mark.parametrize("n,nu,lam", [(1, 1, -400.0), (2, 2, -1000.0), (3, 2, -2000.0)])
def test_geometric_tail_is_never_zero(n, nu, lam):
    # every shell term is positive, but once e^{-kappa (M + 1/2)} underflowed
    # their sum, and so the certified tail, was exactly 0.0
    p = TorusParams(n=n, nu=nu, lam=lam)
    x = (0.0,) * n
    _value, tail = torus_geometric_side(p, x, torus_spectral_side(p, x)[1])
    assert tail >= 3 * math.ulp(0.0)


#: per n, the largest box |m|_inf <= M of at most 2^21 points
M_CAP = {1: 1_048_575, 2: 723, 3: 63}


def _tail_bound(p: TorusParams, M: int) -> float:
    """A bound on the shells s > M summed one shell at a time:
    t_{M+1} + ... + t_S + t_S q(S) / (1 - q(S)), S the first shell of
    M+1 .. M_CAP + 1 with q(S) <= 1/2, else with q(S) < 1.  It is never
    above the module docstring's b(M), and is b(M) itself where S = M + 1."""
    n, k = p.n, p.kappa

    def count(s):
        return (2 * s + 1) ** n - (2 * s - 1) ** n

    def q(s):
        if p.nu == 1 or n == 3:
            growth = 1.0
        elif n == 1:
            growth = (1.0 + k * (s + 0.5)) / (1.0 + k * (s - 0.5))
        else:
            growth = (s + 0.5) / (s - 0.5)
        return count(s + 1) / count(s) * math.exp(-k) * growth

    shells = range(M + 1, M_CAP[n] + 2)
    i = bisect.bisect_left(shells, True, key=lambda s: q(s) <= 0.5)
    if i == len(shells):
        i = bisect.bisect_left(shells, True, key=lambda s: q(s) < 1.0)
    S = shells[i]
    t = [count(s) * float(torus_kernel(p, s - 0.5)) for s in range(M + 1, S + 1)]
    return math.fsum(t) + t[-1] * q(S) / (1.0 - q(S)) + (len(t) + 2) * math.ulp(0.0)


POINTS = {n: [(0.0,) * n, (0.3,) + (0.0,) * (n - 1), (0.31, 0.12, 0.44)[:n]] for n in (1, 2, 3)}
LEAST_BOX_CELLS = [
    (n, nu, lam, x)
    for n, nu in ((1, 1), (1, 2), (2, 2), (3, 2))
    for lam in (-1.0, -3.0)
    for x in POINTS[n]
] + [
    (2, 2, -0.01, (0.0, 0.0)),
    (1, 1, -0.01, (0.0,)),
    (1, 2, -0.01, (0.3,)),
    (3, 2, -0.1, (0.0, 0.0, 0.0)),
    (1, 1, -1e-8, (0.0,)),
]


@pytest.mark.parametrize("n,nu,lam,x", LEAST_BOX_CELLS,
                         ids=[f"{n}-{nu}-{lam:g}-{x}" for n, nu, lam, x in LEAST_BOX_CELLS])
def test_geometric_box_is_the_least_that_meets_the_spectral_tail(n, nu, lam, x):
    p = TorusParams(n=n, nu=nu, lam=lam)
    target = torus_spectral_side(p, x)[1]
    M, tail = _geometric_box(p, target)
    assert tail == pytest.approx(_tail_bound(p, M), rel=1e-13)
    assert _tail_bound(p, M) <= target < _tail_bound(p, M - 1)


def test_box_search_is_a_linear_scan():
    # the least M with b(M) <= target, from the bounds of every box within
    # the cap (2^20 of them at n = 1): the first M where b meets the target
    # is the first where its running minimum does
    targets = np.logspace(-300, 3, 304)
    reached = set()
    for n, nu in ((1, 1), (1, 2), (2, 2), (3, 2)):
        for lam in (-0.05, -0.5, -1.0, -3.0, -100.0):
            p = TorusParams(n=n, nu=nu, lam=lam)
            bounds = _tail_bounds(p, np.arange(M_CAP[n] + 1))
            least = np.searchsorted(-np.minimum.accumulate(bounds), -targets)
            for target, M in zip(targets, least.tolist()):
                if M == bounds.size:
                    with pytest.raises(InputError, match="too close to 0"):
                        _geometric_box(p, target)
                    reached.add("refused")
                    continue
                assert _geometric_box(p, target) == (M, bounds[M]), (n, nu, lam, target)
                reached.add("cap" if M == M_CAP[n] else "zero" if M == 0
                            else "grid" if M & (M + 1) == 0 else "inside")
    assert reached == {"zero", "grid", "inside", "cap", "refused"}


@pytest.mark.parametrize("n,nu,lam,x,most", [
    (2, 2, -0.01, (0.0, 0.0), 1e-7),
    (1, 1, -0.01, (0.0,), 1e-9),
    (3, 2, -0.1, (0.0, 0.0, 0.0), 1e-3),
])
def test_small_lambda_cells_certify(n, nu, lam, x, most):
    # a box shorter than a few decay lengths 1/kappa passes with a tail
    # larger than the value (about 1e4, 1e2, 1e2 here), certifying nothing
    c = torus_identity_check(TorusParams(n=n, nu=nu, lam=lam), x)
    assert c.within_budget and c.budget <= most


@pytest.mark.parametrize("n,lam", [(3, -0.05), (2, -0.002), (1, -1e-13)])
def test_box_past_the_cap_is_refused_before_it_is_built(n, lam):
    # a box at the cap holds about 2^21 points, 16 MB for each float array
    m = M_CAP[n]
    assert (2 * m + 1) ** n <= 2**21 < (2 * m + 3) ** n
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=re.escape(
                f"lambda = {lam:g} is too close to 0: its geometric tail needs a box "
                f"past |m|_inf <= {m}")):
            torus_identity_check(TorusParams(n=n, nu=2, lam=lam), (0.0,) * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# (n, nu, lambda) whose kernel constant (4 kappa^3 for (1, 2), 4 pi kappa^2
# for (2, 2)) leaves the float range, and the refusal's cause; every other
# cell of the grid is finite.  The kernel constant is refused ahead of both
# sides
OUT_OF_RANGE = {(1, 2, -1e300): "the kernel constant", (1, 2, -1e308): "the kernel constant",
                (2, 2, -1e308): "the kernel constant"}


@pytest.mark.parametrize("lam", [-1e10, -1e205, -1e300, -1e308])
@pytest.mark.parametrize("n,nu", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_extreme_lambda_is_finite_or_refused(n, nu, lam):
    # (1, 1) at -1e308 gave a nan spectral side, and (1, 2) at -1e300 an
    # OverflowError from 4 kappa**3; at (1, 2, -1e205) 8 kappa^3 overflows
    # where 4 kappa^3 does not, so the Ewald side divides by 8 kappa, then
    # by kappa^2
    p = TorusParams(n=n, nu=nu, lam=lam)
    if (n, nu, lam) in OUT_OF_RANGE:
        with pytest.raises(InputError, match=re.escape(
                f"lambda = {lam:g} is out of range: {OUT_OF_RANGE[n, nu, lam]}")):
            torus_identity_check(p, (0.0,) * n)
        return
    c = torus_identity_check(p, (0.0,) * n)
    assert all(math.isfinite(v) for v in (c.geometric, c.spectral, c.spectral_tail, c.budget))
    assert 0.0 < c.geometric_tail < math.inf
