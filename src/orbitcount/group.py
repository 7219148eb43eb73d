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

The singular-value machinery never calls a general SVD.  For unimodular
``g`` the Gram matrix ``h = g^H g`` has determinant one, so both singular
values come from the single scalar ``F = sum |g_ij|^2`` via
``sigma1^2 = (F + sqrt(F^2 - 4)) / 2``, and the singular vectors admit a
closed form with a free phase that we fix deterministically.  Crucially the
second left singular vector is obtained by the quaternionic conjugation
``J(a, b) = (-conj(b), conj(a))`` rather than by dividing ``g v2`` by the
tiny ``sigma2``; with ``det g = 1`` the identity ``g v2 = sigma2 J(u1)``
is exact, so no cancellation occurs even at radius 20.
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
    """``F = sum_ij |g_ij|^2``, the scalar driving all gauge formulas."""
    g = _as_matrices(g)
    return np.sum(np.abs(g) ** 2, axis=(-2, -1))


def gauge(g) -> np.ndarray:
    """Largest singular value of a unimodular matrix (stacked).

    Satisfies gauge >= 1, gauge(g) = gauge(g^{-1}) = gauge(g^H), and
    submultiplicativity; the minimum 1 is attained exactly on the compact
    subgroup.
    """
    g = check_unimodular(g)
    F = np.maximum(frobenius_sq(g), 2.0)
    return np.sqrt(0.5 * (F + np.sqrt(np.maximum(F * F - 4.0, 0.0))))


def radius(g) -> np.ndarray:
    """Hyperbolic distance from the basepoint to ``g`` (curvature -1)."""
    g = check_unimodular(g)
    F = np.maximum(frobenius_sq(g), 2.0)
    return np.arccosh(0.5 * F)


def exp_cartan(r) -> np.ndarray:
    """``exp(H)`` for Cartan vector ``[r]``: diag(e^{r/2}, e^{-r/2})."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(0.5 * r)
    out[..., 1, 1] = np.exp(-0.5 * r)
    return out


# ---------------------------------------------------------------------------
# Cartan decomposition via the closed-form unimodular SVD


def _j_conjugate(v: np.ndarray) -> np.ndarray:
    """The quaternionic partner ``J(a, b) = (-conj(b), conj(a))``.

    For any unit vector ``v`` the pair ``(v, J v)`` is an orthonormal basis
    and the matrix ``[v, J v]`` has determinant exactly ``|a|^2 + |b|^2 = 1``.
    """
    out = np.empty_like(v)
    out[..., 0] = -np.conj(v[..., 1])
    out[..., 1] = np.conj(v[..., 0])
    return out


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each vector so its larger-magnitude component is real > 0.

    Ties (equal magnitudes) fall back to the first component, which keeps
    the choice deterministic for any fixed float input.
    """
    a0 = np.abs(v[..., 0])
    a1 = np.abs(v[..., 1])
    pick = np.where(a1 > a0 * (1.0 + 1e-14), 1, 0)
    lead = np.take_along_axis(v, pick[..., None], axis=-1)[..., 0]
    mag = np.abs(lead)
    # A singular vector always has norm 1, so the leading magnitude is
    # bounded below by 1/sqrt(2); the guard only dodges 0/0 warnings.
    phase = np.where(mag > 0, np.conj(lead) / np.where(mag > 0, mag, 1.0), 1.0)
    return v * phase[..., None]


@dataclass(frozen=True)
class CartanFactors:
    """Result of :func:`cartan_decompose`: ``g = k1 @ exp_cartan(r) @ k2``."""

    k1: np.ndarray
    cartan: np.ndarray  # Cartan vectors, shape (..., 1); first entry is r
    k2: np.ndarray


def cartan_decompose(g) -> CartanFactors:
    """Split unimodular matrices as ``k1 exp(H) k2`` with ``k1, k2`` in SU(2).

    ``H = [r]`` with ``r = radius(g) >= 0``.  Output is deterministic: the
    right factor's singular vectors carry a canonical phase (leading
    component real positive) and at radius 0 the convention is
    ``(k1, H, k2) = (g, [0], I)``.
    """
    g = check_unimodular(g)
    F = np.maximum(frobenius_sq(g), 2.0)
    disc = np.sqrt(np.maximum(F * F - 4.0, 0.0))
    s1sq = 0.5 * (F + disc)
    sigma1 = np.sqrt(s1sq)
    r = np.arccosh(0.5 * F)

    # Gram matrix h = g^H g = [[p, w], [conj(w), q]].
    h = np.conj(np.swapaxes(g, -1, -2)) @ g
    p = h[..., 0, 0].real
    q = h[..., 1, 1].real
    w = h[..., 0, 1]

    # Two algebraically equivalent eigenvector candidates for sigma1^2; pick
    # per matrix whichever has the larger norm (the other may cancel to 0).
    cand_a = np.stack([w, (s1sq - p).astype(complex)], axis=-1)
    cand_b = np.stack([(s1sq - q).astype(complex), np.conj(w)], axis=-1)
    na = np.sum(np.abs(cand_a) ** 2, axis=-1)
    nb = np.sum(np.abs(cand_b) ** 2, axis=-1)
    v1 = np.where((na >= nb)[..., None], cand_a, cand_b)

    # Degenerate case sigma1 == sigma2 (h == I): any unit vector works; take e1.
    norm = np.sqrt(np.sum(np.abs(v1) ** 2, axis=-1))
    tiny = norm < 1e-30
    if np.any(tiny):
        v1 = np.where(tiny[..., None], np.array([1.0 + 0j, 0.0 + 0j]), v1)
        norm = np.where(tiny, 1.0, norm)
    v1 = _canonical_phase(v1 / norm[..., None])

    u1 = (g @ v1[..., None])[..., 0] / sigma1[..., None]
    V = np.stack([v1, _j_conjugate(v1)], axis=-1)
    U = np.stack([u1, _j_conjugate(u1)], axis=-1)

    k1 = U
    k2 = np.conj(np.swapaxes(V, -1, -2))

    # Radius-0 convention: k1 = g itself (it is already unitary), k2 = I.
    at_zero = r <= 1e-15
    if np.any(at_zero):
        eye = np.broadcast_to(np.eye(2, dtype=complex), g.shape)
        k1 = np.where(at_zero[..., None, None], g, k1)
        k2 = np.where(at_zero[..., None, None], eye, k2)
        r = np.where(at_zero, 0.0, r)

    return CartanFactors(k1=k1, cartan=r[..., None], k2=k2)


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
