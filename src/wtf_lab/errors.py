"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: validation errors -> 2, numerical
failures -> 3, budget exhaustion -> 4.
"""

from __future__ import annotations


class WtfLabError(Exception):
    """Base class for all package errors."""


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
    pass


class NotInPartition(WtfLabError):
    """Raised when an orbit point falls in a gap or on an unresolvable endpoint.

    ``iterate`` is the orbit index k at which the coding failed.
    """

    def __init__(self, iterate: int, message: str | None = None):
        self.iterate = iterate
        super().__init__(message or f"iterate {iterate} left the branch partition")


class NoSignChange(WtfLabError):
    pass


class TooFlat(WtfLabError):
    pass


class NotNormalised(WtfLabError):
    pass


class NotBranchConstant(WtfLabError):
    pass


class DegenerateFit(WtfLabError):
    """Regression fit too poor to trust (r^2 below threshold).

    Carries the partial ``result`` so callers can inspect diagnostics.
    """

    def __init__(self, message: str, result=None):
        self.result = result
        super().__init__(message)


class OscillationUnderflow(WtfLabError):
    pass


class Inconclusive(WtfLabError):
    pass


# -- budget (exit code 4) ------------------------------------------------------

class BudgetExceeded(WtfLabError):
    pass


NUMERICAL_ERRORS = (
    InversionFailed,
    NotInPartition,
    NoSignChange,
    TooFlat,
    NotNormalised,
    NotBranchConstant,
    DegenerateFit,
    OscillationUnderflow,
    Inconclusive,
)
