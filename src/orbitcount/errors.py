"""Exception classes shared by the whole package.

Two families, one per CLI exit code:

* :class:`InputError` -- the request itself is invalid: bad parameter
  domains, malformed files, poles sitting on evaluation points, censuses
  that cannot cover the requested range.  CLI exit code 1.
  :class:`BudgetError` is the one subclass: work that would blow the
  configured budget, with a message built from the counted work.
* :class:`ConvergenceError` -- the request is well formed but the numeric
  machinery cannot certify the asked-for accuracy: line integrals whose
  error estimate exceeds the tolerance, or that need too many panels.
  CLI exit code 2.
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid parameters, files, or domains.  Maps to CLI exit code 1."""


class BudgetError(InputError):
    """Work counted so far exceeds the enumeration work budget.

    ``estimated`` is a lower bound: a check may stop counting at the first
    step over the budget.  It stays exact; the message gives its leading
    digits past 20 (every int64 is shown in full), and names the budget
    flag as the remedy.
    """

    def __init__(self, estimated: int, budget: int, what: str = "enumeration"):
        self.estimated = int(estimated)
        self.budget = int(budget)
        shown = str(self.estimated)  # not float(): it overflows past 1e308
        if len(shown) > 20:  # leading digits, truncated, so "at least" holds
            shown = f"{shown[0]}.{shown[1]}e+{len(shown) - 1}"
        super().__init__(
            f"{what} needs at least {shown} candidate evaluations, over the "
            f"work budget of {budget}; raise --budget to proceed"
        )


class ConvergenceError(RuntimeError):
    """Requested accuracy cannot be certified.  Maps to CLI exit code 2."""
