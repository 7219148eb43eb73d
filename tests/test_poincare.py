"""Census-driven kernel series with certified tails."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitcount.errors import InputError
from orbitcount.freespace import C_G, kernel
from orbitcount.lattice import enumerate_pruned
from orbitcount.poincare import (
    GrowthModel,
    _prefix_fsums,
    fit_prefactor,
    series_eval,
    series_evaluator_for_contour,
    tail_bound,
)


def test_growth_model_defaults():
    m = GrowthModel()
    assert m.sigma0 == 4.0
    assert m.required_abscissa == pytest.approx(5.25)


def test_fit_prefactor_is_the_largest_shell_ratio(census1, census8):
    # every cutoff-1 element sits at gauge 1, so the one shell ratio is 8
    model = GrowthModel()
    assert fit_prefactor(census1, model) == 8.0
    c = fit_prefactor(census8, model)
    assert c == pytest.approx(9.454593656181222, rel=1e-12)
    t = census8.shell_table
    ratios = np.cumsum(t.count) / np.exp(0.5 * t.radius) ** (model.sigma0 + model.eps)
    assert c == ratios.max()


def test_fit_prefactor_majorizes(census8):
    model = GrowthModel()
    c = fit_prefactor(census8, model)
    shells = census8.shell_table
    gauges = np.repeat(np.exp(0.5 * shells.radius), shells.count)
    for t in (1.5, 2.0, 3.0, 5.0, 8.0):
        count = int(np.sum(gauges <= t))
        assert count <= c * t ** (model.sigma0 + model.eps) + 1e-9


def test_series_values_and_tails_frozen(census8):
    sv6 = series_eval(census8, 6.0)
    assert sv6.value.real == pytest.approx(1.366581211023292, rel=1e-13)
    assert sv6.value.imag == 0.0
    assert sv6.tail == pytest.approx(2.634196738772943e-07, rel=1e-10)
    sv7 = series_eval(census8, 7.0)
    assert sv7.value.real == pytest.approx(1.1531658149615156, rel=1e-13)
    assert sv7.tail == pytest.approx(3.3838058121160805e-09, rel=1e-10)
    assert sv7.tail <= 1e-8  # the certificate level the bridge check relies on


def test_tail_monotone_in_abscissa(census8):
    model = GrowthModel()
    c = fit_prefactor(census8, model)
    tails = [tail_bound(census8, z, model, c) for z in (6.0, 6.5, 7.0)]
    assert tails[0] > tails[1] > tails[2] > 0.0


def test_tail_bound_covers_the_whole_slab_series(census8):
    # the slab series of tail_bound's docstring, summed to infinity in mpmath;
    # just above the abscissa gate (Re z = 5.2501) and at z = 6
    model = GrowthModel()
    c = fit_prefactor(census8, model)
    a = model.sigma0 + model.eps
    r0 = 2.0 * math.log(census8.cutoff)
    for z in (5.2501, 6.0):
        with mp.workdps(40):

            def term(j):
                lo = mp.mpf(r0) + mp.mpf(j) / 2
                pf = 1 if lo == 0 else lo / mp.sinh(lo)
                count = model.safety * c * mp.exp(a / 2 * (lo + mp.mpf(0.5)))
                return count * C_G / abs(z) * pf * mp.exp(-z * lo)

            exact = float(mp.nsum(term, [0, mp.inf]))
        # the bound sums rounded doubles; its rounding slack keeps it above
        assert tail_bound(census8, z, model, c) >= exact


def test_doubling_consistency(census4, census8):
    # deepening the census moves the value by less than the shallow tail
    a = series_eval(census4, 6.0)
    b = series_eval(census8, 6.0)
    assert abs(b.value - a.value) <= a.tail


def test_compact_census_closed_form(census1):
    # every element sits at radius 0, so the series is size * C_G / z
    sv = series_eval(census1, 6.0)
    assert sv.value == pytest.approx(8.0 / 6.0, rel=1e-15)


def test_abscissa_gate(census8):
    with pytest.raises(InputError):
        series_eval(census8, 5.0)
    with pytest.raises(InputError):
        series_eval(census8, complex(5.25, 3.0))
    # tail_bound holds the one gate, with series_eval's words; (2.225, 5.25]
    # passed its old gate of (sigma0 + eps)/2 + 0.1
    c = fit_prefactor(census8, GrowthModel())
    for z in (2.225, complex(1.0, 50.0), 2.2251, 2.3, 5.0, 5.25, complex(5.25, 1.0)):
        with pytest.raises(InputError, match=r"^Re z = \S+ is below the certified abscissa 5.25 "
                           r"\(sigma0 \+ 1 \+ margin\)$"):
            tail_bound(census8, z, GrowthModel(), c)
    assert tail_bound(census8, 5.2501, GrowthModel(), c) > 0.0


def test_partial_sums_telescope(census8):
    sv = series_eval(census8, 6.5)
    assert sv.shells[-1][2] == sv.value  # last running partial IS the total
    counts = [n for _f, n, _p in sv.shells]
    assert sum(counts) == census8.size


@pytest.mark.parametrize("z", [6.0, complex(6.5, 3.0)])
def test_partial_sums_are_prefix_fsums(z):
    # each shell partial is math.fsum of the shell sums through it, bit for
    # bit and sign of zero included, as when every prefix was fsummed anew
    census = enumerate_pruned(12.0)
    t = census.shell_table
    sums = t.count * kernel(complex(z), t.radius)
    re, im = sums.real.tolist(), sums.imag.tolist()
    want = [(math.fsum(re[:k]), math.fsum(im[:k])) for k in range(1, len(re) + 1)]
    got = [(p.real, p.imag) for _f, _n, p in series_eval(census, z).shells]
    assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in want]


finite = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@given(st.lists(finite, min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_prefix_fsums_match_fsum(xs, rnd):
    xs = xs + [-x for x in rnd.sample(xs, len(xs) // 2)]  # cancellation
    want = [math.fsum(xs[:k]).hex() for k in range(1, len(xs) + 1)]
    assert [x.hex() for x in _prefix_fsums(xs)] == want


@pytest.mark.parametrize(
    "z",
    [complex(6.0, math.inf), complex(math.inf, 0.0), complex(math.nan, 0.0),
     complex(1.7e308, 1.7e308)],
    ids=["im-inf", "inf", "nan", "modulus-overflows"],
)
def test_non_finite_z_is_refused(census4, z):
    # no finite tail bound holds there, and series_eval refuses before any
    # kernel runs (a RuntimeWarning would fail the test)
    prefactor = fit_prefactor(census4, GrowthModel())
    with pytest.raises(InputError, match="is not finite"):
        tail_bound(census4, z, GrowthModel(), prefactor)
    with pytest.raises(InputError, match="is not finite"):
        series_eval(census4, z)


@pytest.mark.parametrize("z", [1e6, 1e307, 1.7e308])
def test_extreme_abscissa_is_certified(census1, census4, z):
    # Re z * radius overflows or underflows: the terms past the first (all
    # of them on the cutoff-4 census) underflow to 0, and the rounding slack
    # stays finite (a RuntimeWarning would fail the test).  Every true term
    # is positive, so the bound keeps its absolute floor above 0.  On the
    # cutoff-1 census the first slab starts at radius 0.
    for census in (census1, census4):
        sv = series_eval(census, z)
        assert math.isfinite(sv.tail) and sv.tail > 0.0
        assert sv.value == pytest.approx(8.0 / z, rel=1e-15)  # the 8 compact elements


@pytest.mark.parametrize("prefactor", [math.inf, math.nan, 0.0, -1.0])
def test_prefactor_must_be_finite_and_positive(census4, prefactor):
    with pytest.raises(InputError, match="finite positive prefactor"):
        tail_bound(census4, 6.0, GrowthModel(), prefactor)


def test_prefactor_that_overflows_the_bound_is_refused(census4):
    # finite, but a slab term overflows: refused, not an infinite bound.
    # Above the abscissa the terms and remainder sum to under 1.54 times
    # the first term, so their sum cannot overflow while every term is finite
    for census, prefactor, z in ((census4, 1e308, 6.0), (census4, 1e308, 1e307)):
        with pytest.raises(InputError, match="overflows the tail bound"):
            tail_bound(census, z, GrowthModel(), prefactor)


def test_kernel_overflow_is_refused(census1, census4):
    # e^{-z r} overflows for |Im z| r past the largest float: refused with z
    # named, not a nan partial sum; at radius 0 alone (cutoff 1) it is finite
    z = complex(6.0, 1e308)
    with pytest.raises(InputError, match=r"z = \(6\+1e\+308j\) overflows the kernel"):
        series_eval(census4, z)
    sv = series_eval(census1, z)
    assert math.isfinite(sv.value.imag) and math.isfinite(sv.tail)


def test_contour_evaluator_matches_series(census8):
    # the factored evaluator on (block start, panel offset, node offset)
    # agrees with the shell-by-shell series at every node z0 + dp + dz, on
    # full blocks and on a partial one that evaluates its first rows only
    dp, dz = np.array([0.5j, 1.5j, 2.5j]), np.array([0.0j, 0.375j])
    block = series_evaluator_for_contour(census8)(dp, dz)
    for z0, n in ((6.0 + 0j, 3), (6.5 - 2.0j, 3), (7.0 + 2.0j, 2)):
        out = block(z0, n)
        assert out.shape == (n, 2)
        for j in range(n):
            for k in range(dz.size):
                want = series_eval(census8, z0 + dp[j] + dz[k]).value
                assert abs(out[j, k] - want) <= 1e-12 * abs(want)
