"""Compensated summation.

Every reduction whose result lands in a report goes through Neumaier's
variant of Kahan summation so that totals are (a) noticeably more accurate
than naive left-to-right adds and (b) bit-for-bit reproducible for a fixed
addend order, which the callers fix by always adding per-shell subtotals
in canonical shell order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class NeumaierSum:
    """Running compensated sum (Neumaier 1974).

    The classic Kahan update loses the correction when the incoming term is
    larger than the running sum; Neumaier's branch keeps it.  `value` folds
    the carry in on read and never mutates state.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, start: float = 0.0):
        self._s = float(start)
        self._c = 0.0

    def add(self, x: float) -> "NeumaierSum":
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t
        return self

    @property
    def value(self) -> float:
        return self._s + self._c


def neumaier_sum(xs: Iterable[float]) -> float:
    """Compensated sum of floats added left to right: bit for bit the value
    of a :class:`NeumaierSum` fed the same terms, as one plain-float loop."""
    s = c = 0.0
    for x in xs:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def neumaier_sum_complex(xs) -> complex:
    """Compensated sum of a sequence or array of complex terms (independent
    real/imag carries)."""
    z = np.asarray(xs, dtype=complex)
    return complex(neumaier_sum(z.real.tolist()), neumaier_sum(z.imag.tolist()))


def neumaier_sum_rows(x: np.ndarray) -> np.ndarray:
    """Compensated sum of each row of a 2-D complex array, columns added left
    to right: entry k equals ``neumaier_sum_complex(x[k])`` bit for bit."""
    # (rows, columns, re/im): both parts carried side by side in one pass
    parts = np.stack((x.real, x.imag), axis=-1)
    s = np.zeros((x.shape[0], 2))
    c = np.zeros_like(s)
    for col in parts.transpose(1, 0, 2):
        t = s + col
        c += np.where(np.abs(s) >= np.abs(col), (s - t) + col, (col - t) + s)
        s = t
    return (s + c).view(complex)[:, 0]
