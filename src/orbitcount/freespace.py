"""The free-space kernel of the rank-one model space.

The series are built from the fundamental solution of ``(Delta - lambda_z)^nu``
on the model space, with ``nu = 2`` and ``lambda_z = z^2 - |rho|^2``,
``|rho| = 1``.  It is radial, and at radius r it is the single closed form

    u_z(r) = C_G * (r / sinh r) * e^{-z r} / z.

``r / sinh r`` is the product factor of the one positive root class
(``alpha(H) = 2r``, see :mod:`orbitcount.group`); it lies in (0, 1] and
equals 1 at r = 0, where the kernel is regular with value C_G / z.

Both functions broadcast over arrays of radii.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

#: kernel exponent nu, half-sum norm |rho| and free-space normalization
#: C_G of the model space.  The identity holds only when the spectral side
#: uses the same nu and |rho|: its eigenvalues are lambda = z^2 - RHO_NORM^2
#: and its residues are those of the NU-th power.  C_G is the normalization
#: that the harmonic analysis of bi-K-invariant functions fixes; it is 1
#: here, as the spectral side assumes, and kept symbolic in the formulas.
NU = 2
RHO_NORM = 1.0
C_G = 1.0

_TAYLOR_SWITCH = 5e-7


def product_factor(r) -> np.ndarray:
    """r / sinh(r) with the removable singularity filled two-term.

    For |r| < 5e-7 the ratio is 1 - r^2/6 + O(r^4); the dropped term is
    below 1e-26, far under double rounding.
    """
    r = np.asarray(r, dtype=float)
    small = np.abs(r) < _TAYLOR_SWITCH
    safe = np.where(small, 1.0, r)
    return np.where(small, 1.0 - r * r / 6.0, safe / np.sinh(safe))


def kernel(z, r):
    """u_z(r) = C_G (r / sinh r) e^{-z r} / z at radii r >= 0.

    ``z`` may be complex with Re z > 0 (decay); z = 0 is a pole.
    """
    z = complex(z)
    if abs(z) < 1e-12:
        raise InputError("the free-space kernel has a pole at z = 0")
    r = np.asarray(r, dtype=float)
    return C_G * product_factor(r) * np.exp(-z * r) / z
