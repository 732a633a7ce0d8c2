"""Exception hierarchy.

Every error carries a short machine-readable ``code`` so the CLI can report
``error[<code>]``.  The CLI exits with status 1 on a ``ConfigurationError``
(a usage problem) and with status 2 on every other error here.
"""

from __future__ import annotations


class SpecmeasureError(Exception):
    """Base class for all validation and numeric failures."""

    code = "error"


class ConfigurationError(SpecmeasureError):
    code = "configuration"


class H1Violation(SpecmeasureError):
    """Domain is not a valid bounded open set."""

    code = "H1"


class H2Violation(SpecmeasureError):
    """Kernel fails nonnegativity or the near-diagonal lower bound."""

    code = "H2"


class H3Violation(SpecmeasureError):
    """Coefficient field is not finite and bounded on the closed domain."""

    code = "H3"


class TooLargeError(SpecmeasureError):
    """An allocation would not fit in physical memory: a dense kernel
    operator, a kernel factor, a chunk of argmax-set distances or the atoms
    of a Cantor approximant."""

    code = "too-large"


class SingularNodeError(SpecmeasureError):
    """A grid node touches the coefficient's argmax set."""

    code = "singular-node"


class IterationLimitError(SpecmeasureError):
    """The power loop missed its residual tolerance in ``spectral._MAX_ITER``
    matvecs (an Arnoldi run that fails in as many hands over to it from
    ones), or the lambda_p root its width in ``spectral._ROOT_STEPS`` solves."""

    code = "iteration-limit"

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InconsistencyError(SpecmeasureError):
    """Computed quantities contradict a structural bound."""

    code = "inconsistency"


class ClassificationUnstableError(SpecmeasureError):
    """Regime classification disagrees between consecutive grid levels."""

    code = "classification-unstable"


class NonFiniteResultError(SpecmeasureError):
    """A reported number is infinite or NaN and has no JSON form."""

    code = "non-finite"


class NearSingularSystemError(SpecmeasureError):
    """Fredholm system is too close to singular to solve reliably."""

    code = "near-singular-system"


class PositivityViolationError(SpecmeasureError):
    code = "positivity-violation"


class UnsupportedMeasureError(SpecmeasureError):
    code = "unsupported-measure"


class NormalizationError(SpecmeasureError):
    code = "normalization"


class InvalidEigenpairError(SpecmeasureError):
    code = "invalid-eigenpair"
