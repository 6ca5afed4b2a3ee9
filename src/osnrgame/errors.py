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


class IterationError(NumericalError):
    """An iteration stopped without an answer. Carries the trace so far;
    its last iterate is trace.iterates[-1]."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConvergenceError(IterationError):
    """An iteration exhausted max_iter, or was refused at step 1 (rho(J) >= 1)."""


class DivergenceError(IterationError):
    """An iteration blew past the divergence guard or went non-finite."""


class NegativePowerError(IterationError):
    """Strict mode: an iterate produced a negative channel power. The trace
    ends at that iterate, so its step is trace.negative_steps[-1]."""


class OutputError(OsnrGameError):
    """Report serialization could not write its destination."""
