"""Exception classes shared by the whole package.

Two families, one per CLI exit code:

* :class:`InputError` -- the request itself is invalid: bad parameter
  domains, malformed files, poles sitting on evaluation points, censuses
  that cannot cover the requested range, enumerations over the work
  budget.  CLI exit code 1.
* :class:`ConvergenceError` -- the request is well formed but the numeric
  machinery cannot certify the asked-for accuracy: line integrals whose
  error estimate exceeds the tolerance, or that need too many panels.
  CLI exit code 2.
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid parameters, files, or domains.  Maps to CLI exit code 1."""


class ConvergenceError(RuntimeError):
    """Requested accuracy cannot be certified.  Maps to CLI exit code 2."""
