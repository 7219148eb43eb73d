"""Deterministic contour quadrature shared by the smoothing and spectral code.

Two primitives:

* :func:`vertical_line_integral` -- (1/(2 pi i)) times the integral of an
  integrand along the segment sigma + i [-T, T], in one pass of composite
  Gauss-Kronrod panels of one width, laid out from (T, panel width) alone.
  Each panel carries the nested pair of QUADPACK's ``qk31``: the 31-node
  Kronrod rule K31, exact to degree 47, whose odd nodes are those of the
  15-node Gauss-Legendre rule G15, so one set of 31 values serves both.
  The value sums each panel's K31 rule and the error estimate its
  |K31 - G15| (:func:`fsum_complex` / ``math.fsum``).  Nothing is refined:
  a result whose estimate exceeds ``RESULT_TOL``, the one absolute
  tolerance, raises :class:`~orbitcount.errors.ConvergenceError`.

  Because the panels share their width h, every node is
  z = z0 + dp_j + dz_k: the block start z0 = sigma + i lo_s, a panel-centre
  offset dp_j = i (j h + h/2) and a node offset dz_k = i (h/2) x_k, the last
  two the same for every block.  The integrand is called once per line on
  the two offset tables, ``f(dp, dz)``, and returns a block function;
  ``block(z0, n)`` returns the (n, nodes) array of values at
  ``z0 + dp[:n, None] + dz``.  A pointwise integrand (:func:`pointwise`)
  evaluates at the nodes (z0 + dp[:n])[:, None] + dz, one broadcast add
  per block with no (panels, nodes) table kept per line; a sum of
  exponentials can instead factor e^{-z r} = e^{-z0 r} e^{-dp r} e^{-dz r},
  build the last two tables once per line and pay one exponential per term
  per block.  Its one caller,
  :func:`orbitcount.perron.smoothing_contour_transform`, factors the
  Perron factor e^{zX} so too.

  The pass calls the block function once per block of at most
  ``_PANEL_BLOCK`` panels, on the 31 Kronrod node offsets, sorted and
  exactly symmetric; G15 reads the odd columns.  A partial last block
  evaluates only its own rows.  One call gives both rules, so a factored
  integrand scales its tables once, not once per rule; and a block bounds
  every (panels, nodes) temporary of the integrand and of the sums, so
  memory does not grow with the height.

* :func:`cauchy_circle_residue` -- trapezoid rule on a small circle around
  an isolated pole.  The trapezoid rule on a periodic analytic integrand
  converges geometrically, so 256 nodes on radius 1e-2 is already far
  beyond double precision for the kernels used here; it serves as the
  independent residue oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

RESULT_TOL = 1e-9  # absolute target on the result of every line integral
_MAX_PANELS = 1 << 17
_PANEL_BLOCK = 512  # panels per integrand call


def fsum_complex(xs) -> complex:
    """Correctly rounded sum of complex terms: ``math.fsum`` of each part."""
    z = np.asarray(xs, dtype=complex)
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


# The 15-point Gauss-Legendre rule and its 31-point Kronrod extension on
# [-1, 1] (Kronrod 1965; QUADPACK's qk31 table), rounded from 60-digit
# values: the nodes x >= 0 in increasing order with their K31 weights, and
# the G15 weights of the Gauss nodes among them, x = 0 and every second
# node after it.
_X_HALF = (
    0.0, 0.1011420669187175, 0.20119409399743451, 0.29918000715316884,
    0.3941513470775634, 0.4850818636402397, 0.5709721726085388, 0.650996741297417,
    0.7244177313601701, 0.790418501442466, 0.8482065834104272, 0.8972645323440819,
    0.937273392400706, 0.9677390756791391, 0.9879925180204854, 0.9980022986933971,
)
_K31_HALF = (
    0.10133000701479154, 0.10076984552387559, 0.09917359872179196, 0.09664272698362368,
    0.09312659817082532, 0.08856444305621176, 0.08308050282313302, 0.07684968075772038,
    0.06985412131872826, 0.06200956780067064, 0.05348152469092809, 0.04458975132476488,
    0.03534636079137585, 0.02546084732671532, 0.015007947329316122, 0.005377479872923349,
)
_G15_HALF = (
    0.2025782419255613, 0.19843148532711158, 0.1861610000155622, 0.16626920581699392,
    0.13957067792615432, 0.10715922046717194, 0.07036604748810812, 0.03075324199611727,
)


def _mirrored(half, sign: float) -> np.ndarray:
    """The whole rule's column from its x >= 0 half, read-only: every line
    shares it, so an integrand that wrote into it would corrupt every later
    integral."""
    h = np.array(half)
    full = np.concatenate((sign * h[:0:-1], h))
    full.flags.writeable = False
    return full


_NODES = _mirrored(_X_HALF, -1.0)  # sorted; x[30 - k] == -x[k]
_K31_WEIGHTS = _mirrored(_K31_HALF, 1.0)
_G15_WEIGHTS = _mirrored(_G15_HALF, 1.0)  # of the Gauss nodes _NODES[1::2]


@dataclass(frozen=True)
class LineIntegral:
    """Result of a vertical-line contour integration."""

    value: complex
    error_estimate: float
    evaluations: int
    panels: int


def pointwise(g):
    """The block integrand of ``g``, a function of an array of nodes z."""

    def f(dp: np.ndarray, dz: np.ndarray):
        return lambda z0, n: g((z0 + dp[:n])[:, None] + dz)

    return f


def _panel_values(f, sigma: float, lo: np.ndarray, width: float):
    """The nested G15/K31 pair on each [lo_j, lo_j + width] panel.

    One ``f(dp, dz)`` call for the line, then one block call per block of
    at most ``_PANEL_BLOCK`` panels, on the 31 Kronrod node offsets; the
    odd columns are the Gauss nodes.  Returns (G15 quadrature, K31
    quadrature, evaluation count).
    """
    half = 0.5 * width
    rows = min(lo.size, _PANEL_BLOCK)
    dp = 1j * (width * np.arange(rows) + half)
    dz = 1j * (half * _NODES)
    block = f(dp, dz)
    gauss = np.empty(lo.size, dtype=complex)
    kronrod = np.empty(lo.size, dtype=complex)
    for s in range(0, lo.size, rows):
        n = min(rows, lo.size - s)
        vals = block(complex(sigma, lo[s]), n)
        gauss[s:s + n] = (vals[:, 1::2] * _G15_WEIGHTS).sum(axis=1)
        kronrod[s:s + n] = (vals * _K31_WEIGHTS).sum(axis=1)
    return gauss * half, kronrod * half, lo.size * dz.size


def vertical_line_integral(
    f,
    sigma: float,
    height: float,
    *,
    panel_width: float,
    conj_symmetric: bool = True,
) -> LineIntegral:
    """(1/(2 pi i)) * integral of f over sigma + i[-height, height].

    ``f(dp, dz)`` gets the panel-centre offsets ``dp`` (shape (rows,)) and
    the node offsets ``dz`` (shape (nodes,)), shared by every block, and
    returns ``block(z0, n)``, the values at ``z0 + dp[:n, None] + dz`` for a
    block that starts at z0 (see the module docstring).  When
    ``conj_symmetric`` (f(conj z) = conj f(z), true for every kernel here
    with real parameters), only t >= 0 is integrated and the mirror half is
    folded in as the conjugate, halving the work.

    One pass over panels of at most panel_width; the value is the sum of
    the K31 panels and the error estimate the summed |K31 - G15| of the
    nested pair.  ConvergenceError when that estimate exceeds RESULT_TOL, or
    when the line needs over ``_MAX_PANELS`` panels (before f is called);
    InputError for a height that is not positive.
    """
    if height <= 0:
        raise InputError("contour height must be positive")
    width = min(max(panel_width, 1e-3), height)

    t_lo = 0.0 if conj_symmetric else -height
    n_panels = int(np.ceil((height - t_lo) / width))
    if n_panels > _MAX_PANELS:  # ~2 KB per panel, before f is called
        raise ConvergenceError(f"contour height {height:g} needs {n_panels} panels of "
                               f"width {width:g}, over the cap of {_MAX_PANELS}")
    # even by construction; the last panel may end an ulp off height
    width = (height - t_lo) / n_panels
    lo = t_lo + width * np.arange(n_panels)

    gauss, kronrod, evals = _panel_values(f, sigma, lo, width)
    err_total = math.fsum(np.abs(kronrod - gauss).tolist())
    raw = fsum_complex(kronrod)
    # (1/(2 pi i)) * integral f dz with dz = i dt is (1/(2 pi)) * integral f dt.
    if conj_symmetric:
        # The [-T, 0] half mirrors to the conjugate, so the t-integral over
        # [-T, T] is 2 Re(raw), and both the value and the error double.
        value = complex(raw.real / np.pi, 0.0)
        err_total *= 2.0
    else:
        value = raw / (2.0 * np.pi)
    error_estimate = err_total / (2.0 * np.pi)
    if not error_estimate <= RESULT_TOL:  # a nan estimate too
        raise ConvergenceError(
            f"contour error estimate {error_estimate:.2g} exceeds the tolerance "
            f"{RESULT_TOL:g} on {n_panels} panels of width {width:.3g}"
        )
    return LineIntegral(
        value=complex(value),
        error_estimate=error_estimate,
        evaluations=evals,
        panels=n_panels,
    )


def cauchy_circle_residue(f, center: complex, radius: float = 1e-2, nodes: int = 256) -> complex:
    """Residue of f at an isolated pole via the trapezoid rule on a circle.

    res = (1/(2 pi i)) closed-integral f = (rho/N) sum_j f(c + rho e^{i phi_j}) e^{i phi_j}.
    """
    j = np.arange(nodes)
    phase = np.exp(2j * np.pi * j / nodes)
    vals = f(center + radius * phase)
    return complex(radius / nodes * np.sum(vals * phase))
