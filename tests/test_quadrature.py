"""Contour quadrature primitives: the adaptive vertical line and the circle
residue rule that serves as the independent oracle elsewhere."""

import numpy as np
import pytest

from orbitcount.errors import QuadratureError
from orbitcount.quadrature import cauchy_circle_residue, fsum_complex, vertical_line_integral

W1 = 0.19978820044686402  # (1 - e^{-1})^2 / 2, the closed-form transform at X=1


def _bromwich_integrand(zc, dz):
    # e^{zX} / (z (z+1) (z+2)) at X = 1; left closure sums to W1
    z = zc[:, None] + dz
    return np.exp(z) / (z * (z + 1.0) * (z + 2.0))


def test_vertical_line_matches_closed_form():
    li = vertical_line_integral(_bromwich_integrand, 1.0, 1000.0, abs_tol=1e-9)
    assert li.value.imag == 0.0
    assert abs(li.value.real - W1) <= 1e-9
    assert li.error_estimate >= 0.0
    assert li.panels >= 1000


def test_folded_equals_two_sided():
    a = vertical_line_integral(_bromwich_integrand, 1.0, 300.0, conj_symmetric=True)
    b = vertical_line_integral(_bromwich_integrand, 1.0, 300.0, conj_symmetric=False)
    assert abs(a.value - b.value) <= 1e-12
    # the fold halves the integrand evaluations
    assert a.evaluations * 2 == b.evaluations


def test_bitwise_deterministic():
    a = vertical_line_integral(_bromwich_integrand, 1.0, 200.0)
    b = vertical_line_integral(_bromwich_integrand, 1.0, 200.0)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_rejects_bad_height():
    with pytest.raises(QuadratureError):
        vertical_line_integral(_bromwich_integrand, 1.0, 0.0)


def test_unresolvable_integrand_raises_not_hangs():
    # oscillation far below panel scale: refinement must give up cleanly
    def rough(zc, dz):
        z = zc[:, None] + dz
        return np.sin(2e6 * z.imag) + 0j

    with pytest.raises(QuadratureError):
        vertical_line_integral(rough, 1.0, 10.0, abs_tol=1e-12)


def test_roundoff_floor_accepts_converged_panels():
    # a large smooth integrand cannot hit an absurd absolute tolerance, but
    # the roundoff floor should let it terminate with an honest estimate
    def big(zc, dz):
        z = zc[:, None] + dz
        return 1e8 * np.exp(z) / (z * (z + 1.0) * (z + 2.0))

    li = vertical_line_integral(big, 1.0, 200.0, abs_tol=1e-30)
    assert abs(li.value.real / 1e8 - W1) <= 1e-6
    assert li.error_estimate > 1e-30  # honest: the target was unreachable


def test_every_call_gets_one_shared_offset_row():
    # A pole 0.03 left of the line forces several bisection levels.  Every
    # call must get 1-D offsets dz = i h x on the Gauss-Legendre nodes x,
    # with one half-width h per call that halves from level to level, and
    # centres zc on the line; and nothing else may be evaluated.
    pole = 0.97 + 3.3j
    calls = []

    def recording(zc, dz):
        calls.append((zc.copy(), dz.copy()))
        return 1.0 / ((zc[:, None] + dz) - pole)

    height = 20.0
    li = vertical_line_integral(
        recording, 1.0, height, abs_tol=1e-10, panel_width=0.7, conj_symmetric=False
    )
    # Re(z - pole) > 0 on the line, so the principal log is continuous there
    want = (np.log(1.0 + height * 1j - pole) - np.log(1.0 - height * 1j - pole)) / (2j * np.pi)
    assert abs(li.value - want) <= 1e-9
    assert li.evaluations == sum(zc.size * dz.size for zc, dz in calls)

    halves = []
    for (zc15, dz15), (zc31, dz31) in zip(calls[::2], calls[1::2]):
        assert np.array_equal(zc15, zc31)  # both rules on the same panels
        assert np.all(zc15.real == 1.0)
        half = None
        for dz in (dz15, dz31):
            x = np.polynomial.legendre.leggauss(dz.size)[0]
            assert dz.shape in ((15,), (31,)) and np.all(dz.real == 0.0)
            h = dz.imag[-1] / x[-1]
            assert np.allclose(dz.imag, h * x, rtol=1e-15, atol=0.0)
            assert half is None or h == pytest.approx(half, rel=1e-15)
            half = h
        halves.append(half)
    assert len(halves) >= 4  # the pole did force refinement
    assert halves[0] == pytest.approx(height / np.ceil(2 * height / 0.7), rel=1e-15)
    assert np.allclose(np.array(halves[1:]) / np.array(halves[:-1]), 0.5, rtol=1e-15)


def test_value_is_the_fsum_of_the_accepted_panels():
    # Refinement accepts panels level by level, so out of position order.
    # Rebuild each level's 31-node panel values from the integrand calls; a
    # panel is accepted unless the next level bisects it.  The value must be
    # the correctly rounded sum of the accepted ones, in any order.
    pole = 0.97 + 3.3j
    calls = []

    def recording(zc, dz):
        vals = 1.0 / ((zc[:, None] + dz) - pole)
        if dz.size == 31:
            calls.append((zc.imag.copy(), vals))
        return vals

    height, n_panels = 20.0, np.ceil(2 * 20.0 / 0.7)
    li = vertical_line_integral(
        recording, 1.0, height, abs_tol=1e-10, panel_width=0.7, conj_symmetric=False
    )
    w = np.polynomial.legendre.leggauss(31)[1]
    half = 0.5 * (2 * height / n_panels)
    accepted = []
    for level, (mid, vals) in enumerate(calls):
        nxt = calls[level + 1][0] if level + 1 < len(calls) else np.array([])
        bisected = (np.abs(nxt[:, None] - mid) < half).any(axis=0)
        accepted.append(((vals * w).sum(axis=1) * half)[~bisected])
        half *= 0.5
    assert len(accepted) >= 4 and any(a.size for a in accepted[1:-1])
    panels = np.concatenate(accepted)
    assert panels.size == li.panels
    for order in (panels, panels[::-1], np.random.default_rng(3).permutation(panels)):
        assert li.value == fsum_complex(order) / (2.0 * np.pi)


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
