"""Rank-one symmetric-space core: gauge, radius, Cartan decomposition.

The model space is the quotient of the 2x2 complex unimodular group by its
maximal compact subgroup, normalized so that *radius* means hyperbolic arc
length at curvature -1.  Concretely, with ``g = k1 exp(H) k2``:

* ``exp(H) = diag(e^{r/2}, e^{-r/2})`` where ``r >= 0`` is the radius, so the
  Cartan vector ``H`` lives in a one-dimensional flat and is stored as the
  length-1 vector ``[r]``;
* the gauge ``||g||`` is the largest singular value, hence
  ``radius = 2 * log(gauge)``;
* the single positive root ``alpha`` acts by ``alpha(H) = 2 r`` and carries
  multiplicity 2 (complex root space), giving the kernel product factor
  ``r / sinh(r)`` of :mod:`orbitcount.freespace`.

Everything is written against stacked arrays: a "matrix" argument is any
``(..., 2, 2)`` complex array, and the batch dimensions broadcast through.
``gauge``, ``radius`` and ``cartan_decompose`` always check that their
input is unimodular (:func:`check_unimodular`) and refuse it otherwise.

The singular values and vectors come from LAPACK's SVD (``np.linalg.svd``),
which is backward stable: it returns the largest singular value to relative
accuracy of a few ulps, so ``radius = 2 log(gauge)`` is accurate to about
1e-16 absolute at every radius, the identity's neighbourhood included.  A
formula in ``F = sum |g_ij|^2`` would lose every radius below about 1e-8,
where ``F - 2 = r^2 + O(r^4)`` drops under the rounding of ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Tolerance used when checking that an input matrix is actually unimodular.
UNIMODULAR_TOL = 1e-9


# ---------------------------------------------------------------------------
# gauge / radius


def _as_matrices(g) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (2, 2):
        raise InputError(f"expected (..., 2, 2) matrices, got shape {g.shape}")
    return g


def _det(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def check_unimodular(g) -> np.ndarray:
    """Validate finite entries and ``det g == 1`` within ``UNIMODULAR_TOL``;
    return the matrices.

    The products inside a float determinant carry roundoff of order
    ``eps * F`` for entries of squared norm F, so the gate is the maximum
    of ``UNIMODULAR_TOL`` and that floor; otherwise every legitimately
    constructed large-radius element would be rejected.
    """
    g = _as_matrices(g)
    if not np.all(np.isfinite(g)):
        raise InputError("matrix is not unimodular: it has a non-finite entry")
    err = np.abs(_det(g) - 1.0)
    allowed = np.maximum(UNIMODULAR_TOL, 64.0 * np.finfo(float).eps * (1.0 + frobenius_sq(g)))
    if np.any(err > allowed):
        raise InputError(
            f"matrix is not unimodular: |det - 1| reaches {float(np.max(err)):.3e}"
        )
    return g


def frobenius_sq(g) -> np.ndarray:
    """``F = sum_ij |g_ij|^2``, which equals ``2 cosh(radius)`` for unimodular g."""
    g = _as_matrices(g)
    return np.sum(np.abs(g) ** 2, axis=(-2, -1))


def gauge(g) -> np.ndarray:
    """Largest singular value of a unimodular matrix (stacked).

    Satisfies gauge >= 1, gauge(g) = gauge(g^{-1}) = gauge(g^H), and
    submultiplicativity; the minimum 1 is attained exactly on the compact
    subgroup.  The clamp at 1 absorbs LAPACK returning ``1 - ulp`` there.
    """
    sigma = np.linalg.svd(check_unimodular(g), compute_uv=False)
    return np.maximum(sigma[..., 0], 1.0)


def radius(g) -> np.ndarray:
    """Hyperbolic distance from the basepoint to ``g`` (curvature -1)."""
    return 2.0 * np.log(gauge(g))


def exp_cartan(r) -> np.ndarray:
    """``exp(H)`` for Cartan vector ``[r]``: diag(e^{r/2}, e^{-r/2})."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(0.5 * r)
    out[..., 1, 1] = np.exp(-0.5 * r)
    return out


# ---------------------------------------------------------------------------
# Cartan decomposition


@dataclass(frozen=True)
class CartanFactors:
    """Result of :func:`cartan_decompose`: ``g = k1 @ exp_cartan(r) @ k2``."""

    k1: np.ndarray
    cartan: np.ndarray  # Cartan vectors, shape (..., 1); first entry is r
    k2: np.ndarray


def cartan_decompose(g) -> CartanFactors:
    """Split unimodular matrices as ``k1 exp(H) k2`` with ``k1, k2`` in SU(2).

    ``H = [r]`` with ``r = 2 log max(sigma1, 1) >= 0``.  LAPACK's SVD gives
    ``g = U diag(sigma1, sigma2) Vh`` with U, Vh unitary; scaling U's second
    column by ``conj(det U)`` and Vh's second row by ``conj(det Vh)`` puts
    both in SU(2), and since ``det g = 1`` the two phases cancel on the
    ``sigma2 = e^{-r/2}`` entry.  The singular vectors' phases are LAPACK's,
    so one input gives the same factors on every call.
    """
    U, sigma, Vh = np.linalg.svd(check_unimodular(g))
    U[..., :, 1] *= np.conj(_det(U))[..., None]
    Vh[..., 1, :] *= np.conj(_det(Vh))[..., None]
    r = 2.0 * np.log(np.maximum(sigma[..., 0], 1.0))
    return CartanFactors(k1=U, cartan=r[..., None], k2=Vh)


# ---------------------------------------------------------------------------
# random sampling (tests and benchmarks)


def random_su2(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Haar-random SU(2) matrices via normalized Gaussian quaternions."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a = q[:, 0] + 1j * q[:, 1]
    b = q[:, 2] + 1j * q[:, 3]
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = a
    out[:, 0, 1] = -np.conj(b)
    out[:, 1, 0] = b
    out[:, 1, 1] = np.conj(a)
    return out


def random_elements(
    n: int,
    rng: np.random.Generator,
    radius_low: float = 0.0,
    radius_high: float = 20.0,
) -> np.ndarray:
    """Random unimodular matrices ``k1 exp([r]) k2`` with uniform radii."""
    r = rng.uniform(radius_low, radius_high, size=n)
    return random_su2(n, rng) @ exp_cartan(r) @ random_su2(n, rng)
