"""Exception taxonomy shared by all modules.

The CLI exits with the class attribute ``exit_code`` of the error: 2
(validation) on the base, which the validation classes inherit, 3 on each
numerical failure and 4 on budget exhaustion.  A new subclass that is not a
validation error sets its own.
"""

from __future__ import annotations


class WtfLabError(Exception):
    """Base class for all package errors."""

    exit_code = 2


# -- validation (exit code 2) -------------------------------------------------

class BadConfig(WtfLabError):
    pass


class OverlappingBranches(WtfLabError):
    pass


class NotOnto(WtfLabError):
    pass


class HyperbolicityViolated(WtfLabError):
    pass


class LambdaOutOfRange(WtfLabError):
    pass


class InvalidTolerance(WtfLabError):
    pass


# -- numerical failures (exit code 3) -----------------------------------------

class InversionFailed(WtfLabError):
    exit_code = 3


class NotInPartition(WtfLabError):
    """Raised when an orbit point falls in a gap or on an unresolvable endpoint.

    ``iterate`` is the orbit index k at which the coding failed.
    """

    exit_code = 3

    def __init__(self, iterate: int, message: str | None = None):
        self.iterate = iterate
        super().__init__(message or f"iterate {iterate} left the branch partition")


class NoSignChange(WtfLabError):
    exit_code = 3


class TooFlat(WtfLabError):
    exit_code = 3


class NotNormalised(WtfLabError):
    exit_code = 3


class NotBranchConstant(WtfLabError):
    exit_code = 3


class DegenerateFit(WtfLabError):
    """Regression fit too poor to trust (r^2 below threshold).

    Carries the partial ``result`` so callers can inspect diagnostics.
    """

    exit_code = 3

    def __init__(self, message: str, result=None):
        self.result = result
        super().__init__(message)


class OscillationUnderflow(WtfLabError):
    exit_code = 3


class Inconclusive(WtfLabError):
    exit_code = 3


# -- budget (exit code 4) ------------------------------------------------------

class BudgetExceeded(WtfLabError):
    exit_code = 4
