"""Error taxonomy shared by every module.

Each class marks one failure mode of the public API; callers that need to
distinguish outcomes programmatically (the command line driver in
particular) catch these rather than parsing messages.
"""


class CscbifError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(CscbifError, ValueError):
    """An argument is outside the documented domain (wrong sign, wrong type,
    malformed window, non-ascending spectrum, ...)."""


class PreconditionError(CscbifError):
    """A documented precondition of the operation does not hold for the
    given inputs (e.g. a positivity hypothesis on a curvature)."""


class IncompleteSpectrumError(CscbifError):
    """An enumeration was requested past the range over which a spectrum
    model is declared complete."""


class NondiscreteDegeneracyError(CscbifError):
    """The degeneracy condition holds identically in the deformation
    parameter: every t > 0 is degenerate.  Carries the witnessing
    eigenvalue pair."""

    def __init__(self, witness, message=None):
        self.witness = witness
        if message is None:
            message = (
                "degeneracy condition vanishes identically for the pair "
                f"{witness!r}; the degenerate set is all of (0, inf)"
            )
        super().__init__(message)


class NotApplicableError(CscbifError):
    """The requested quantity is undefined for this family or parameter
    (e.g. a certificate at a point that is not a degeneracy instant)."""


class DegeneratePointError(CscbifError):
    """A nondegeneracy precondition fails: the parameter sits exactly on a
    degeneracy instant."""


class ZeroScalarCurvatureError(CscbifError):
    """The scalar curvature vanishes where the operation needs a sign."""


class InconclusiveError(CscbifError):
    """The bifurcation test ran but could not decide: the candidate point
    is a double root of its crossing polynomial, or the two roots of an
    irrational pair round to one double, so the Morse index jump cannot be
    placed."""


class UnsupportedGeometryError(CscbifError):
    """The family falls outside the discretizable / enumerable class of
    this operation (non-product joint spectrum, factor without a one
    dimensional spectral basis, ...)."""


class ConfigurationError(CscbifError):
    """A configuration document or discretization parameter set is
    malformed.  `path` holds a dotted key path when one is known."""

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class PositivityViolationError(CscbifError):
    """A state that must be strictly positive on the grid is not."""


class NoConvergenceError(CscbifError):
    """An iterative solve exhausted its iteration or damping budget.
    `positivity_boundary` tells whether its line search ever stepped onto a
    state that is not positive on the grid."""

    def __init__(self, message, positivity_boundary: bool = False):
        self.positivity_boundary = positivity_boundary
        super().__init__(message)


class NoNontrivialSolutionError(CscbifError):
    """Branch switching found only the constant solution."""


class EmptyBranchError(CscbifError):
    """Continuation failed before producing a single accepted step."""


class HypothesisViolatedError(CscbifError):
    """A structural hypothesis of the reduction fails (kernel contains a
    mode that is not constant along the fibers)."""


class ReductionFailedError(CscbifError):
    """The complement solve inside the finite-dimensional reduction did
    not converge or met a singular projected Jacobian."""
