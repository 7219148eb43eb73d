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
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InputError
from .freespace import C_G, product_factor
from .lattice import Census
from .quadrature import LineIntegral, vertical_line_integral

#: absolute tolerance of the Perron contour quadratures
DEFAULT_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class SmoothingParams:
    """Perron smoothing order ell >= 1 and step theta > 0."""

    ell: int = 2
    theta: float = 1.0

    def __post_init__(self):
        if int(self.ell) != self.ell or self.ell < 1:
            raise InputError(f"smoothing order ell must be an integer >= 1, got {self.ell}")
        if not (self.theta > 0):
            raise InputError(f"smoothing step theta must be > 0, got {self.theta}")

    @property
    def normalization(self) -> float:
        return math.factorial(self.ell) * self.theta**self.ell

    @property
    def pole_train(self) -> tuple[float, ...]:
        """Kernel poles -theta, ..., -ell theta (excluding the one at 0)."""
        return tuple(-self.theta * m for m in range(1, self.ell + 1))


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


def panel_width(X: float) -> float:
    """Contour panel height for an e^{zX} integrand: a quarter period, at most 1."""
    return min(1.0, 2.0 * math.pi / (4.0 * max(abs(X), 1e-2)))


def perron_contour_oracle(
    X: float,
    params: SmoothingParams,
    *,
    sigma: float = 1.0,
    height: float = 1000.0,
    abs_tol: float = DEFAULT_QUAD_TOL,
) -> LineIntegral:
    """Finite-T vertical-line integral whose limit is smoothing_kernel(X).

    For X < 0 the limit is 0 and the finite-T value is O(e^{sigma X}/T^{ell+1}).
    """
    if sigma <= 0:
        raise InputError("Perron contour needs sigma > 0")
    if height <= 0:
        raise InputError("Perron contour needs height > 0")
    if abs_tol <= 0:
        raise InputError(f"quad_tol must be > 0, got {abs_tol}")

    def integrand(zc, dz):
        z = zc[:, None] + dz
        return np.exp(z * X) / (z * kernel_denominator(params, z))

    return vertical_line_integral(
        integrand, sigma, height, abs_tol=abs_tol, panel_width=panel_width(X)
    )


def smoothing_contour_transform(
    f_of_z,
    X: float,
    params: SmoothingParams,
    *,
    sigma: float,
    height: float,
    abs_tol: float = DEFAULT_QUAD_TOL,
) -> LineIntegral:
    """(1/(2 pi i)) int f(z) e^{zX} / prod_m (z + m theta) dz on the line.

    ``f_of_z`` takes the quadrature's panel centres and shared node offsets,
    ``f_of_z(zc, dz)``, and returns its values at ``zc[:, None] + dz`` (see
    :mod:`orbitcount.quadrature`), as the factored series evaluator
    :func:`orbitcount.poincare.series_evaluator_for_contour` does.  The pole
    at z = 0 must live inside f itself if it has one (the series kernels do,
    via their 1/z).
    """

    def integrand(zc, dz):
        z = zc[:, None] + dz
        return f_of_z(zc, dz) * np.exp(z * X) / kernel_denominator(params, z)

    return vertical_line_integral(
        integrand, sigma, height, abs_tol=abs_tol, panel_width=panel_width(X)
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
    CoverageError otherwise, since missing elements would silently bias the
    count.
    """
    if X <= 0:
        raise InputError(f"count parameter X must be > 0, got {X}")
    try:
        needed = math.exp(0.5 * X)
    except OverflowError:  # X above about 1419: beyond any census
        needed = math.inf
    if census.cutoff < needed * (1.0 - 1e-12):
        raise CoverageError(
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
