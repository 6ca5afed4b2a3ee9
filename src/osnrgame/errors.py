"""Exception hierarchy shared by all solver modules.

Exit-code mapping used by the CLI: ValidationError -> 1,
NumericalError -> 2 (among them InfeasibleError, the QP fallback's
contradictory seeker rows), OutputError -> 3.
"""


class OsnrGameError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OsnrGameError):
    """An input object violates one of its invariants."""


class TopologyError(ValidationError):
    """A channel route references a link that does not exist."""


class ScenarioError(ValidationError):
    """A scenario file failed to parse or validate."""


class UsageError(ValidationError):
    """An operation was called on an input of the wrong shape."""


class NumericalError(OsnrGameError):
    """Base class for numerical failures."""


class EvaluationError(NumericalError):
    """An evaluation had no valid value: a non-positive OSNR denominator, a
    zero update pivot or a wavelength outside a gain table. channel, when
    set, is the 0-based array index; the message counts channels from 1,
    like the rest of the program's output."""

    def __init__(self, message, channel=None):
        super().__init__(message)
        self.channel = channel


class SingularMatrixError(NumericalError):
    """A factorization found a pivot below the singularity threshold."""

    def __init__(self, message, smallest_pivot=None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class InfeasibleError(NumericalError):
    """No power vector meets the seeker rows Gh u >= bh. Carries the Farkas
    certificate y >= 0 with Gh^T y = 0 and bh . y > 0."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ConvergenceError(NumericalError):
    """An iterative method exhausted max_iter. Carries the last iterate/trace."""

    def __init__(self, message, last=None, trace=None):
        super().__init__(message)
        self.last = last
        self.trace = trace


class DivergenceError(NumericalError):
    """An iteration blew past the divergence guard or went non-finite. Carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NegativePowerError(NumericalError):
    """Strict mode: an iterate produced a negative channel power."""

    def __init__(self, message, step=None, u=None):
        super().__init__(message)
        self.step = step
        self.u = u


class OutputError(OsnrGameError):
    """Report serialization could not write its destination."""
