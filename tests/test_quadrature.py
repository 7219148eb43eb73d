"""Contour quadrature primitives: the one-pass vertical line and the circle
residue rule that serves as the independent oracle elsewhere."""

import numpy as np
import pytest

from orbitcount import quadrature
from orbitcount.errors import QuadratureError
from orbitcount.quadrature import (
    cauchy_circle_residue,
    fsum_complex,
    pointwise,
    vertical_line_integral,
)

W1 = 0.19978820044686402  # (1 - e^{-1})^2 / 2, the closed-form transform at X=1


@pointwise
def _bromwich_integrand(z):
    # e^{zX} / (z (z+1) (z+2)) at X = 1; left closure sums to W1
    return np.exp(z) / (z * (z + 1.0) * (z + 2.0))


def test_vertical_line_matches_closed_form():
    li = vertical_line_integral(_bromwich_integrand, 1.0, 1000.0, panel_width=1.0)
    assert li.value.imag == 0.0
    assert abs(li.value.real - W1) <= 1e-9
    assert li.error_estimate >= 0.0
    assert li.panels >= 1000


def test_folded_equals_two_sided():
    a = vertical_line_integral(_bromwich_integrand, 1.0, 300.0, panel_width=1.0)
    b = vertical_line_integral(
        _bromwich_integrand, 1.0, 300.0, panel_width=1.0, conj_symmetric=False
    )
    assert abs(a.value - b.value) <= 1e-12
    # the fold halves the integrand evaluations
    assert a.evaluations * 2 == b.evaluations


def test_bitwise_deterministic():
    a = vertical_line_integral(_bromwich_integrand, 1.0, 200.0, panel_width=1.0)
    b = vertical_line_integral(_bromwich_integrand, 1.0, 200.0, panel_width=1.0)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_rejects_bad_height():
    with pytest.raises(QuadratureError):
        vertical_line_integral(_bromwich_integrand, 1.0, 0.0, panel_width=1.0)


def test_too_many_first_level_panels_are_refused_before_f_is_called():
    # height 1e8 at width 1 would be 1e8 panels, about 200 GB of node values
    def never(dp, dz):
        raise AssertionError("integrand called")

    with pytest.raises(QuadratureError, match="needs 100000000 panels .* cap of 131072"):
        vertical_line_integral(never, 1.0, 1e8, panel_width=1.0)


def test_unresolvable_integrand_raises_not_hangs(monkeypatch):
    # oscillation far below panel scale: the estimate must refuse it cleanly
    monkeypatch.setattr(quadrature, "RESULT_TOL", 1e-12)

    @pointwise
    def rough(z):
        return np.sin(2e6 * z.imag) + 0j

    with pytest.raises(QuadratureError):
        vertical_line_integral(rough, 1.0, 10.0, panel_width=1.0)


def test_estimate_over_the_tolerance_is_refused(monkeypatch):
    # Nothing is refined, so the summed G15-vs-K31 estimate is the only
    # acceptance rule: a result is refused exactly when it exceeds
    # RESULT_TOL, however large and smooth the integrand.
    @pointwise
    def big(z):
        return 1e8 * np.exp(z) / (z * (z + 1.0) * (z + 2.0))

    monkeypatch.setattr(quadrature, "RESULT_TOL", 1.0)
    li = vertical_line_integral(big, 1.0, 200.0, panel_width=1.0)
    assert abs(li.value.real / 1e8 - W1) <= 1e-6
    assert li.error_estimate > 0.0

    monkeypatch.setattr(quadrature, "RESULT_TOL", li.error_estimate)
    assert vertical_line_integral(big, 1.0, 200.0, panel_width=1.0) == li
    monkeypatch.setattr(quadrature, "RESULT_TOL", np.nextafter(li.error_estimate, 0.0))
    with pytest.raises(QuadratureError, match="exceeds the tolerance"):
        vertical_line_integral(big, 1.0, 200.0, panel_width=1.0)


def _record_pole_line(monkeypatch, height=20.0, block=16):
    # A pole 1.0 left of the line, which one pass of width-0.7 panels
    # resolves, and a small block that splits the pass into several calls.
    monkeypatch.setattr(quadrature, "_PANEL_BLOCK", block)
    pole = 0.0 + 3.3j
    tables, calls = [], []

    def recording(dp, dz):
        tables.append((dp.copy(), dz.copy()))

        def values(z0, n):
            vals = 1.0 / (z0 + dp[:n, None] + dz - pole)
            calls.append((z0, n, vals))
            return vals

        return values

    li = vertical_line_integral(
        recording, 1.0, height, panel_width=0.7, conj_symmetric=False
    )
    # Re(z - pole) > 0 on the line, so the principal log is continuous there
    want = (np.log(1.0 + height * 1j - pole) - np.log(1.0 - height * 1j - pole)) / (2j * np.pi)
    assert abs(li.value - want) <= 1e-9
    return li, tables, calls


def test_every_call_gets_one_shared_offset_row(monkeypatch):
    # f is called once per line, on the panel-centre offsets dp = i (j w +
    # w/2) of one block and the 1-D node offsets dz = i h x on the 31
    # Kronrod nodes, whose odd entries are the 15 Gauss nodes, with w = 2h
    # the width of the one panel grid.  Each block starts at sigma + i lo_s,
    # the lower edge of its first panel, and covers at most a block of
    # rows, all blocks full but the last; nothing else may be evaluated.
    height, block = 20.0, 16
    li, tables, calls = _record_pole_line(monkeypatch, height, block)
    assert len(tables) == 1
    dp, dz = tables[0]
    assert li.evaluations == sum(n * dz.size for _z0, n, _v in calls)

    n_panels = np.ceil(2 * height / 0.7)
    w = 2 * height / n_panels
    assert dz.shape == (31,) and np.all(dz.real == 0.0)
    assert np.all(np.diff(dz.imag) > 0.0) and np.all(dz.imag[::-1] == -dz.imag)
    assert np.allclose(dz.imag, 0.5 * w * quadrature._NODES, rtol=1e-15, atol=0.0)
    assert np.allclose(dz.imag[1::2], 0.5 * w * np.polynomial.legendre.leggauss(15)[0],
                       rtol=1e-15, atol=1e-17)
    assert dp.shape == (block,) and np.all(dp.real == 0.0)
    assert np.allclose(dp.imag, w * (np.arange(block) + 0.5), rtol=1e-15, atol=0.0)
    start = 0
    for z0, n, vals in calls:
        assert 1 <= n <= block and vals.shape == (n, 31)
        assert z0.real == 1.0 and z0.imag == pytest.approx(-height + start * w, abs=1e-12)
        start += n
    assert all(n == block for _z0, n, _v in calls[:-1])
    assert len(calls) >= 3  # the pass did split into blocks
    assert start == li.panels == n_panels


def test_value_is_the_fsum_of_the_accepted_panels(monkeypatch):
    # Rebuild every panel's K31 value from the block values.  The value
    # must be the correctly rounded sum of them, in any order.
    height, n_panels = 20.0, np.ceil(2 * 20.0 / 0.7)
    li, _tables, calls = _record_pole_line(monkeypatch, height)
    half = 0.5 * (2 * height / n_panels)
    panels = np.concatenate(
        [(vals * quadrature._K31_WEIGHTS).sum(axis=1) * half for _z0, _n, vals in calls]
    )
    assert panels.size == li.panels == n_panels
    for order in (panels, panels[::-1], np.random.default_rng(3).permutation(panels)):
        assert li.value == fsum_complex(order) / (2.0 * np.pi)


def test_blocks_cover_exactly_the_line(monkeypatch):
    # A line of 2.5 blocks: the blocks abut, cover li.panels panels between
    # them, and the partial last block evaluates only the rows that are on
    # the line, none past its top.
    monkeypatch.setattr(quadrature, "_PANEL_BLOCK", 8)
    blocks = []

    def recording(dp, dz):
        width = 2.0 * dp[0].imag
        inner = _bromwich_integrand(dp, dz)

        def values(z0, n):
            blocks.append((z0.imag, z0.imag + n * width, n))
            return inner(z0, n)

        return values

    li = vertical_line_integral(recording, 1.0, 20.0, panel_width=1.0)
    assert li.panels == 20 and [n for _lo, _hi, n in blocks] == [8, 8, 4]
    assert sum(n for _lo, _hi, n in blocks) == li.panels
    assert blocks[0][0] == 0.0 and blocks[-1][1] == pytest.approx(20.0, rel=1e-15)
    for (_lo, hi, _n), (lo, _hi, _m) in zip(blocks, blocks[1:]):
        assert lo == pytest.approx(hi, rel=1e-15)


def test_node_table_is_read_only():
    # every line shares it, so a write must fail, not corrupt the rest
    for arr in (quadrature._NODES, quadrature._K31_WEIGHTS, quadrature._G15_WEIGHTS):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_nested_rule_table():
    x, wk, wg = quadrature._NODES, quadrature._K31_WEIGHTS, quadrature._G15_WEIGHTS
    assert x.shape == wk.shape == (31,) and wg.shape == (15,)
    assert np.all(np.diff(x) > 0.0) and x[0] > -1.0 and x[-1] < 1.0
    assert np.all(x[::-1] == -x) and np.all(wk[::-1] == wk) and np.all(wg[::-1] == wg)
    # the odd entries are the 15-point Gauss rule.  leggauss's weights sit
    # up to 38 ulp from the 60-digit values that the table rounds, so they
    # are held only to 64 ulp; G15's exactness below checks them sharply.
    gx, gw = np.polynomial.legendre.leggauss(15)
    assert np.all(_ulps(x[1::2], gx) <= 2.0) and x[15] == gx[7] == 0.0
    assert np.all(_ulps(wg, gw) <= 64.0)
    for w in (wk, wg):
        assert np.all(w > 0.0)
        assert abs(np.sum(w) - 2.0) <= 4 * np.spacing(2.0)
    # K31 is exact to degree 47 and G15 to degree 29; in doubles both hold
    # to roundoff, relative to 2/(k+1), the scale of x^k's integral, and
    # G15 misses degree 30 by far more than that
    def miss(w, nodes, k):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        return abs(np.sum(w * nodes**k) - exact) / (2.0 / (k + 1))

    assert max(miss(wk, x, k) for k in range(47)) <= 1e-14
    assert max(miss(wg, x[1::2], k) for k in range(30)) <= 1e-14
    assert miss(wg, x[1::2], 30) > 1e-9


def test_circle_residue_simple_pole():
    c = 0.7 + 0.3j
    got = cauchy_circle_residue(lambda z: 1.0 / (z - c), c)
    assert abs(got - 1.0) <= 1e-13


def test_circle_residue_double_pole():
    # res_{z=c} e^{zX}/(z-c)^2 = X e^{cX}
    c, X = 0.4 - 0.2j, 1.3
    got = cauchy_circle_residue(lambda z: np.exp(z * X) / (z - c) ** 2, c)
    want = X * np.exp(c * X)
    assert abs(got - want) <= 1e-12 * abs(want)
