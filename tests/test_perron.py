"""Smoothing kernel, its contour representation, and the smoothed census
count built from them."""

import math

import numpy as np
import pytest

from orbitcount import quadrature
from orbitcount.errors import InputError
from orbitcount.freespace import C_G, product_factor
from orbitcount.perron import (
    SmoothingParams,
    kernel_denominator,
    perron_contour_oracle,
    smoothed_geometric_count,
    smoothing_contour_transform,
    smoothing_kernel,
)
from orbitcount.poincare import series_evaluator_for_contour
from orbitcount.quadrature import pointwise
from orbitcount.spectral import SpectralDatum, Spectrum, global_contour_oracle

W1 = 0.19978820044686402  # (1 - e^{-1})^2 / 2! at ell = 2, theta = 1


def test_params_validation():
    with pytest.raises(InputError):
        SmoothingParams(ell=0)
    # int(ell) would raise a bare error for inf and nan, and math.factorial
    # for a whole float; bool is an Integral but not an order
    for ell in (math.inf, math.nan, 2.0, np.float64(2.0), True):
        with pytest.raises(InputError, match="ell must be an integer"):
            SmoothingParams(ell=ell)
    assert SmoothingParams(ell=np.int64(3)).normalization == 6.0
    with pytest.raises(InputError):
        SmoothingParams(theta=0.0)
    # W(u) divides by ell! theta^ell, which must be a finite positive float
    with pytest.raises(InputError):
        SmoothingParams(theta=math.inf)
    sm = SmoothingParams(ell=3, theta=0.5)
    assert sm.normalization == pytest.approx(math.factorial(3) * 0.5**3)


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
        assert li.error_estimate <= 1e-12  # headroom under RESULT_TOL
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


@pytest.mark.parametrize("X", [1.0, 20.0])
def test_transform_integrand_is_the_pointwise_perron_factor(monkeypatch, X):
    # the transform builds e^{zX} as e^{z0 X} e^{dp X} e^{dz X}; on the
    # quadrature's blocks of a line of height 1000 that is f e^{zX} / q(z) at
    # every node z = (z0 + dp) + dz, up to the phase roundoff of e^{itX}: the
    # two sides round tX, lo X, dp X and dz X, each by up to |tX| eps / 2
    sm = SmoothingParams(ell=2, theta=1.0)
    seen = {}
    monkeypatch.setattr(
        "orbitcount.perron.vertical_line_integral", lambda f, *_a, **_k: seen.update(f=f)
    )
    f = pointwise(lambda z: 1.0 / z)

    smoothing_contour_transform(f, X, sm, sigma=1.0, height=1000.0)
    n = math.ceil(1000.0 / min(1.0, math.pi / (2.0 * X)))
    width = 1000.0 / n
    rows = min(n, quadrature._PANEL_BLOCK)
    dp = 1j * (width * np.arange(rows) + 0.5 * width)
    dz = 1j * (0.5 * width) * quadrature._NODES
    block, f_block = seen["f"](dp, dz), f(dp, dz)
    for s in range(0, n, rows):
        m = min(rows, n - s)
        z0 = complex(1.0, width * s)
        got = block(z0, m)
        z = (z0 + dp[:m])[:, None] + dz
        want = f_block(z0, m) * np.exp(z * X) / kernel_denominator(sm, z)
        rel = np.abs(got - want) / np.abs(want)
        if X == 1.0:
            assert rel.max() <= 1e-13
        else:
            assert np.all(rel <= (64.0 + 2.0 * np.abs(z.imag * X)) * np.finfo(float).eps)


def _never(*_a, **_k):
    raise AssertionError("integrand called")


BAD_CONTOURS = {
    "oracle-X": lambda v: perron_contour_oracle(v, SmoothingParams()),
    "oracle-height": lambda v: perron_contour_oracle(1.0, SmoothingParams(), height=v),
    "transform-X": lambda v: smoothing_contour_transform(
        _never, v, SmoothingParams(), sigma=7.0, height=100.0),
    "transform-sigma": lambda v: smoothing_contour_transform(
        _never, 1.0, SmoothingParams(), sigma=v, height=100.0),
    "transform-height": lambda v: smoothing_contour_transform(
        _never, 1.0, SmoothingParams(), sigma=7.0, height=v),
    "global-X": lambda v: global_contour_oracle(
        Spectrum((SpectralDatum("low", 0.6 + 0j, 1.0),)), v, SmoothingParams(theta=0.8)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", BAD_CONTOURS)
def test_contour_refuses_bad_input_before_the_integrand(monkeypatch, where, value):
    # a nan X used to run to the 131,072-panel cap and end as "not
    # certified", and a non-finite height leaked a ValueError or
    # OverflowError
    monkeypatch.setattr("orbitcount.perron.vertical_line_integral", _never)
    with pytest.raises(InputError):
        BAD_CONTOURS[where](value)


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
    with pytest.raises(InputError, match="census cutoff 2 covers radii up to"):
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
    # the benchmark runs this contour: keep it far under RESULT_TOL
    assert li.error_estimate <= 1e-12


def test_factored_bridge_integrand_is_pointwise(census8, monkeypatch):
    # The series evaluator and the Perron factor split every node into a
    # block start, a panel offset and a node offset.  On a line of 2.5
    # blocks, the transform's values must still be the pointwise
    # sum count pf(r) e^{-zr} / z * e^{zX} / q(z) at every node, and the
    # partial last block must carry only its own rows.
    monkeypatch.setattr(quadrature, "_PANEL_BLOCK", 8)
    sm, X = SmoothingParams(ell=2, theta=1.0), 1.0
    blocks = []

    def spy(f, *args, **kwargs):
        def recording(dp, dz):
            values = f(dp, dz)

            def block(z0, n):
                vals = values(z0, n)
                blocks.append(((z0 + dp[:n])[:, None] + dz, vals))
                return vals

            return block

        return quadrature.vertical_line_integral(recording, *args, **kwargs)

    monkeypatch.setattr("orbitcount.perron.vertical_line_integral", spy)
    f = series_evaluator_for_contour(census8)
    li = smoothing_contour_transform(f, X, sm, sigma=7.0, height=20.0)
    assert [vals.shape for _z, vals in blocks] == [(8, 31), (8, 31), (4, 31)]
    assert li.panels == 20

    t = census8.shell_table
    weights = t.count * C_G * product_factor(t.radius)
    for z, vals in blocks:
        series = np.exp(-z[..., None] * t.radius) @ weights / z
        want = series * np.exp(z * X) / kernel_denominator(sm, z)
        assert np.max(np.abs(vals - want) / np.abs(want)) <= 1e-13


def test_bridge_memory_does_not_grow_with_height(census8, peak_bytes):
    # the quadrature evaluates its panels in blocks, so the series
    # evaluator's (panels, shells) and (panels, nodes) temporaries have a
    # fixed size; all panels in one call peaked 5.7 times higher at 8000
    sm = SmoothingParams(ell=2, theta=1.0)
    f = series_evaluator_for_contour(census8)
    peak = {
        h: peak_bytes(lambda h=h: smoothing_contour_transform(f, 1.0, sm, sigma=7.0, height=h))
        for h in (1000.0, 8000.0)
    }
    assert peak[8000.0] <= 1.5 * peak[1000.0]
