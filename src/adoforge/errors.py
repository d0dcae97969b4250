"""Exception hierarchy shared across the package.

Every error carries a stable machine-readable ``kind`` for the CLI run
report and the ``exit_code`` the CLI exits with, 1 unless its class sets
another.  ``quoted`` cuts untrusted input short for a message.
"""


def quoted(value) -> str:
    """``value`` for an error message: a string whole up to 40 characters,
    else its first 40 and its length; anything else by its repr, cut the
    same way.  Untrusted input cannot swell a run report."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


class AdoForgeError(Exception):
    """Base class; ``kind`` is a stable snake_case identifier."""

    kind = "error"
    exit_code = 1


class ParseError(AdoForgeError):
    kind = "parse_error"
    exit_code = 2


class DimensionMismatch(AdoForgeError):
    kind = "dimension_mismatch"


class KernelNotContained(AdoForgeError):
    kind = "kernel_not_contained"


class NotNilpotent(AdoForgeError):
    kind = "not_nilpotent"
    exit_code = 3


class NotAnIdeal(AdoForgeError):
    kind = "not_an_ideal"


class ZeroIdeal(AdoForgeError):
    kind = "zero_ideal"


class BudgetExceeded(AdoForgeError):
    kind = "budget_exceeded"
    exit_code = 4


class AlgebraMismatch(AdoForgeError):
    kind = "algebra_mismatch"


class NotCentral(AdoForgeError):
    kind = "not_central"


class InvalidGrading(AdoForgeError):
    kind = "invalid_grading"


class DegenerateCocycle(AdoForgeError):
    kind = "degenerate_cocycle"


class NotACocycle(AdoForgeError):
    kind = "not_a_cocycle"


class TensorBudgetExceeded(BudgetExceeded):
    kind = "tensor_budget_exceeded"


class NotLinearlyIndependent(AdoForgeError):
    kind = "not_linearly_independent"


class SeparatorFailed(AdoForgeError):
    kind = "separator_failed"


class DegenerateFlag(AdoForgeError):
    """A flag step adds no new direction to the current quotient."""

    kind = "degenerate_flag"


class NotSurjective(AdoForgeError):
    kind = "not_surjective"


class UnknownExample(AdoForgeError):
    kind = "unknown_example"
    exit_code = 2


class ValidationFailed(AdoForgeError):
    kind = "validation_failed"


class ReplayFailed(AdoForgeError):
    """A certificate's version, config or steps do not replay."""

    kind = "replay_failed"


class VerificationFailed(AdoForgeError):
    """The final exact check rejected a constructed representation.

    ``report`` is the engine's ``VerificationReport`` and ``certificate`` the
    certificate whose last step records it, or ``None`` when ``verify``
    checked a representation read from a file.
    """

    kind = "verification_failed"

    def __init__(self, report, certificate):
        super().__init__(f"failing: {report.failing()}")
        self.report = report
        self.certificate = certificate
