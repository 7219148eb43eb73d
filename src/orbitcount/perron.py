"""Truncated-Perron smoothing: the kernel, its contour form, and the
smoothed geometric count.

The smoothing weight applied to a census element at radius r, for count
parameter X, is the iterated-average kernel

    W(u) = (1 - e^{-theta u})^ell / (ell! theta^ell),   u = X - r > 0,
    W(u) = 0,                                           u <= 0,

which is exactly the T -> infinity limit of the vertical-line integral

    (1/(2 pi i)) int_{sigma - iT}^{sigma + iT}
        e^{z u} / (z (z + theta) ... (z + ell theta)) dz        (sigma > 0),

with truncation error O(e^{sigma u} / (T^{ell+1} |u|)) for u != 0.  W is
C^{ell-1} at u = 0: one-sided derivatives through order ell - 1 vanish and
the order-ell derivative jumps by exactly 1.

:func:`smoothed_geometric_count` applies W(X - r) with the free-space
product factor to every census shell below radius X, weighted by its row
count from the census shell table; the total is the correctly rounded sum
(``math.fsum``) of the per-shell subtotals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .freespace import C_G, product_factor
from .lattice import Census
from .quadrature import LineIntegral, pointwise, vertical_line_integral


def perron_sigma(u: float) -> float:
    """Abscissa of the contour oracle's line at u, right of the kernel's pole
    at 0: 1 for u <= 1 and 1/u above, so e^{sigma u}, the growth of the
    integrand, its roundoff and its truncation bound, stays at most e."""
    return 1.0 / u if u > 1 else 1.0


@dataclass(frozen=True)
class SmoothingParams:
    """Perron smoothing order ell >= 1 (of an integral type, not bool) and
    step theta > 0."""

    ell: int = 2
    theta: float = 1.0

    def __post_init__(self):
        ell = self.ell  # math.factorial takes no float, even a whole one
        if isinstance(ell, bool) or not isinstance(ell, numbers.Integral) or ell < 1:
            raise InputError(f"smoothing order ell must be an integer >= 1, got {ell!r}")
        if not (self.theta > 0):
            raise InputError(f"smoothing step theta must be > 0, got {self.theta}")
        try:
            norm = self.normalization
        except OverflowError:  # ell! or theta^ell beyond a float
            norm = math.inf
        if not (0 < norm < math.inf):  # W(u) divides by it
            raise InputError(f"smoothing needs ell! theta^ell to be a finite positive float, "
                             f"got ell = {self.ell}, theta = {self.theta:g}")

    @property
    def normalization(self) -> float:
        return math.factorial(self.ell) * self.theta**self.ell


def smoothing_kernel(params: SmoothingParams, u) -> np.ndarray:
    """W(u) as above; vectorized, exactly 0 for u <= 0."""
    u = np.asarray(u, dtype=float)
    pos = u > 0
    base = -np.expm1(-params.theta * np.where(pos, u, 0.0))  # 1 - e^{-theta u}
    out = np.where(pos, base**params.ell / params.normalization, 0.0)
    return out if out.ndim else float(out)


def kernel_denominator(params: SmoothingParams, z: np.ndarray) -> np.ndarray:
    """prod_{m=1}^{ell} (z + m theta), vectorized over complex z."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for m in range(1, params.ell + 1):
        out = out * (z + m * params.theta)
    return out


def perron_contour_oracle(
    X: float,
    params: SmoothingParams,
    *,
    height: float = 1000.0,
) -> LineIntegral:
    """Finite-T integral on Re z = ``perron_sigma(X)``; its limit is smoothing_kernel(X).

    The contour transform of f(z) = 1/z.  For X < 0 the limit is 0 and the
    finite-T value is O(e^{sigma X}/T^{ell+1}).
    """
    return smoothing_contour_transform(
        pointwise(lambda z: 1.0 / z), X, params, sigma=perron_sigma(X), height=height
    )


def smoothing_contour_transform(
    f_of_z,
    X: float,
    params: SmoothingParams,
    *,
    sigma: float,
    height: float,
    conj_symmetric: bool = True,
) -> LineIntegral:
    """(1/(2 pi i)) int f(z) e^{zX} / prod_m (z + m theta) dz on the line.

    ``f_of_z`` is a block integrand of :mod:`orbitcount.quadrature`:
    ``f_of_z(dp, dz)`` takes the line's panel-centre and node offset tables
    and returns ``block(z0, n)``, the values at ``z0 + dp[:n, None] + dz``,
    as the factored series evaluator
    :func:`orbitcount.poincare.series_evaluator_for_contour` does.  The pole
    at z = 0 must live inside f itself if it has one (the series kernels do,
    via their 1/z); ``conj_symmetric`` (f(conj z) = conj f(z)) folds the
    line onto its upper half.  The Perron factor is factored, e^{zX} =
    e^{z0 X} e^{dp X} e^{dz X}, with the last two built once per line, so a
    block pays one exponential for it, and the phase roundoff of e^{itX} at
    large |tX| is common to a panel's nodes and cancels out of their
    K31-vs-G15 disagreement.  An error estimate over
    ``quadrature.RESULT_TOL`` is refused.
    """
    if not (math.isfinite(X) and math.isfinite(sigma) and 0 < height < math.inf):
        raise InputError(f"Perron contour needs height > 0 and finite X, sigma and "
                         f"height; got X = {X}, sigma = {sigma}, height = {height}")

    def integrand(dp, dz):
        perron_dp, perron_dz = np.exp(dp * X), np.exp(dz * X)
        f_block = f_of_z(dp, dz)

        def block(z0, n):
            perron = (np.exp(z0 * X) * perron_dp[:n])[:, None] * perron_dz
            z = (z0 + dp[:n])[:, None] + dz
            return f_block(z0, n) * perron / kernel_denominator(params, z)

        return block

    width = min(1.0, 2.0 * math.pi / (4.0 * max(abs(X), 1e-2)))  # a quarter period of e^{itX}
    # a denominator past the largest float (large ell) makes a nan estimate,
    # which the quadrature refuses; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        return vertical_line_integral(
            integrand, sigma, height, panel_width=width, conj_symmetric=conj_symmetric
        )


@dataclass(frozen=True)
class SmoothedCount:
    """Weighted, smoothed census count below radius X."""

    value: float
    X: float
    census_size_used: int
    shell_subtotals: tuple[tuple[int, float], ...]  # (F, subtotal) per shell


def smoothed_geometric_count(
    census: Census,
    X: float,
    params: SmoothingParams,
) -> SmoothedCount:
    """C_G * sum over census elements with r < X of prodfac(r) W(X - r).

    Requires the census to cover radius X (cutoff gauge >= e^{X/2}); raises
    InputError otherwise, since missing elements would silently bias the
    count.
    """
    if X <= 0:
        raise InputError(f"count parameter X must be > 0, got {X}")
    try:
        needed = math.exp(0.5 * X)
    except OverflowError:  # X above about 1419: beyond any census
        needed = math.inf
    if census.cutoff < needed * (1.0 - 1e-12):
        raise InputError(
            f"census cutoff {census.cutoff:g} covers radii up to "
            f"{2.0 * math.log(census.cutoff):g}; X = {X:g} needs cutoff >= {needed:g}"
        )

    t = census.shell_table
    inside = t.radius < X  # a prefix: radius grows with F
    r, n = t.radius[inside], t.count[inside]
    subtotals = C_G * (n * product_factor(r) * smoothing_kernel(params, X - r))
    return SmoothedCount(
        value=math.fsum(subtotals.tolist()),
        X=X,
        census_size_used=int(n.sum()),
        shell_subtotals=tuple(zip(t.fnorm[inside].tolist(), subtotals.tolist())),
    )
