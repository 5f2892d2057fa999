"""Exception hierarchy.

Two branches matter for the CLI exit-code contract: ``ValidationError``
(malformed input, exit code 2) and ``NumericalError`` (a numerical
precondition failed on well-formed input, exit code 3).  Shape mismatches
and an inverse that belongs to a different operator are ``ValidationError``;
it is also a ``ValueError``.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ToolkitError, ValueError):
    """Malformed or inconsistent input (bad JSON, shapes, flags)."""


class StepError(ValidationError):
    """Non-positive or otherwise unusable integration step."""


class GridError(ValidationError):
    """Patch grid too coarse for the requested finite-difference check."""


class UnknownSuite(ValidationError):
    """Verification suite name not in the registry."""


class NumericalError(ToolkitError):
    """A numerical precondition failed; inputs were well-formed."""


class ComplementError(NumericalError):
    """Two subspaces fail to form a direct sum of the ambient space."""


class DimensionError(NumericalError):
    """Subspace dimensions incompatible with the requested construction."""


class BallError(NumericalError):
    """Perturbation left the ball where the inverse factors stay invertible."""


class TransversalityError(NumericalError):
    """Range/kernel transversality of a perturbed operator broke down."""


class MembershipError(NumericalError):
    """An operator or direction lies outside the required subspace."""


class EvalError(NumericalError):
    """A family or map could not be evaluated at the requested point."""


class CofinalBreach(NumericalError):
    """The moving subspace stopped being transversal to the fixed complement."""


class NewtonDivergence(NumericalError):
    """The graph-map solve did not converge; carries the residual trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = list(trace)
