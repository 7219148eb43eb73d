"""Deterministic contour quadrature shared by the smoothing and spectral code.

Two primitives:

* :func:`vertical_line_integral` -- (1/(2 pi i)) times the integral of an
  integrand along the segment sigma + i [-T, T], by composite
  Gauss-Legendre panels with one level of adaptive bisection driven by a
  15-vs-31-node disagreement estimate.  Panel layout depends only on
  (T, panel width), all panels of one refinement level share one width,
  evaluation is batched per refinement level, and the accepted panels'
  values and error estimates are each summed with :func:`fsum_complex` /
  ``math.fsum``, correctly rounded whatever order they were accepted in.

  Because the panels of a level share their width h, every node of that
  level is z = zc_j + dz_k with panel centre zc_j = sigma + i mid_j and a
  node offset dz_k = i h x_k common to all panels.  The integrand receives
  the two factors, ``f(zc, dz)``, and returns the (panels, nodes) array of
  values at ``zc[:, None] + dz``.  A pointwise integrand builds that sum
  (bit for bit the node sigma + i t); a sum of exponentials can instead
  factor e^{-z r} = e^{-zc r} e^{-dz r} and pay one exponential per
  (panel, term) and per (term, node) rather than per (panel, node, term).

* :func:`cauchy_circle_residue` -- trapezoid rule on a small circle around
  an isolated pole.  The trapezoid rule on a periodic analytic integrand
  converges geometrically, so 256 nodes on radius 1e-2 is already far
  beyond double precision for the kernels used here; it serves as the
  independent residue oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

_MAX_LEVELS = 24
_MAX_WORKLIST = 1 << 17


def fsum_complex(xs) -> complex:
    """Correctly rounded sum of complex terms: ``math.fsum`` of each part."""
    z = np.asarray(xs, dtype=complex)
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


@lru_cache(maxsize=8)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@dataclass(frozen=True)
class LineIntegral:
    """Result of a vertical-line contour integration."""

    value: complex
    error_estimate: float
    evaluations: int
    panels: int


def _panel_values(f, sigma: float, lo: np.ndarray, width: float, n: int):
    """Gauss-Legendre on each [lo_j, lo_j + width] panel, batched into one f call.

    Returns (quadrature, L1 mass, evaluation count); the mass is the same
    rule applied to |f| and bounds the roundoff accumulated by the sum.
    """
    x, w = _gl_nodes(n)
    half = 0.5 * width
    zc = sigma + 1j * (lo + half)
    dz = 1j * (half * x)
    vals = f(zc, dz)
    quad = (vals * w).sum(axis=1) * half
    mass = (np.abs(vals) * w).sum(axis=1) * half
    return quad, mass, zc.size * dz.size


def vertical_line_integral(
    f,
    sigma: float,
    height: float,
    *,
    abs_tol: float = 1e-9,
    panel_width: float | None = None,
    conj_symmetric: bool = True,
) -> LineIntegral:
    """(1/(2 pi i)) * integral of f over sigma + i[-height, height].

    ``f(zc, dz)`` gets the panel centres ``zc`` (shape (panels,)) and the
    node offsets ``dz`` (shape (nodes,), shared by every panel of the call)
    and returns its values at ``zc[:, None] + dz``.  When
    ``conj_symmetric`` (f(conj z) = conj f(z), true for every kernel here
    with real parameters), only t >= 0 is integrated and the mirror half is
    folded in as the conjugate, halving the work.

    abs_tol is the target on the *result*; panels are refined until the sum
    of 15-vs-31 node disagreements is below it, else QuadratureError.
    """
    if height <= 0:
        raise QuadratureError("contour height must be positive")
    width = panel_width if panel_width else 1.0
    width = min(max(width, 1e-3), height)

    t_lo = 0.0 if conj_symmetric else -height
    n_panels = int(np.ceil((height - t_lo) / width))
    # even by construction; the last panel may end an ulp off height
    width = (height - t_lo) / n_panels
    lo = t_lo + width * np.arange(n_panels)

    # per level, the accepted panels' values and error estimates
    acc_val, acc_err = [], []
    evals = 0
    for _level in range(_MAX_LEVELS):
        coarse, _, e1 = _panel_values(f, sigma, lo, width, 15)
        fine, mass, e2 = _panel_values(f, sigma, lo, width, 31)
        evals += e1 + e2
        err = np.abs(fine - coarse)
        # Per-panel budget proportional to panel length keeps the refinement
        # from chasing noise in short panels; the mass term is the roundoff
        # floor of the rule itself, below which bisection cannot help.
        budget = abs_tol * width / (2.0 * height) * 0.5
        floor = 64.0 * np.finfo(float).eps * mass
        ok = err <= np.maximum(budget, floor)
        acc_val.append(fine[ok])
        acc_err.append(err[ok])
        if ok.all():
            break
        lo_bad = lo[~ok]
        if 2 * lo_bad.size > _MAX_WORKLIST:
            raise QuadratureError(
                f"contour refinement exceeded {_MAX_WORKLIST} live panels "
                f"at abs_tol={abs_tol:g}; the integrand is rougher than "
                "this rule can resolve"
            )
        width *= 0.5
        lo = np.concatenate([lo_bad, lo_bad + width])
    else:
        raise QuadratureError(
            f"contour panels failed to reach abs_tol={abs_tol:g} "
            f"after {_MAX_LEVELS} refinement levels"
        )

    vals = np.concatenate(acc_val)
    err_total = math.fsum(np.concatenate(acc_err).tolist())
    raw = fsum_complex(vals)
    # (1/(2 pi i)) * integral f dz with dz = i dt is (1/(2 pi)) * integral f dt.
    if conj_symmetric:
        # The [-T, 0] half mirrors to the conjugate, so the t-integral over
        # [-T, T] is 2 Re(raw), and both the value and the error double.
        value = complex(raw.real / np.pi, 0.0)
        err_total *= 2.0
    else:
        value = raw / (2.0 * np.pi)
    return LineIntegral(
        value=complex(value),
        error_estimate=err_total / (2.0 * np.pi),
        evaluations=evals,
        panels=vals.size,
    )


def cauchy_circle_residue(f, center: complex, radius: float = 1e-2, nodes: int = 256) -> complex:
    """Residue of f at an isolated pole via the trapezoid rule on a circle.

    res = (1/(2 pi i)) closed-integral f = (rho/N) sum_j f(c + rho e^{i phi_j}) e^{i phi_j}.
    """
    j = np.arange(nodes)
    phase = np.exp(2j * np.pi * j / nodes)
    vals = f(center + radius * phase)
    return complex(radius / nodes * np.sum(vals * phase))
