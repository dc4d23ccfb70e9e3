"""Exception types raised by the library, and the one check of integer counts and seeds."""
import operator


class LowNoiseError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LowNoiseError):
    """Operands have incompatible shapes."""


class NonHermitian(LowNoiseError):
    """A matrix required to be Hermitian fails the Hermiticity check."""


class NoConvergence(LowNoiseError):
    """The underlying eigensolver did not converge."""


class DegenerateSamples(LowNoiseError):
    """Power-law fit input is unusable (too few points or non-positive values)."""


class TPCPViolation(LowNoiseError):
    """Channel evaluated outside its physical (trace-preserving, positive) region."""


class InconsistentKrausData(LowNoiseError):
    """Kraus coefficients violate the first-order trace-preservation constraint."""


class StepTooLarge(LowNoiseError):
    """Finite-difference probe points leave the channel's validity region."""


class ReductionInvalid(LowNoiseError):
    """Covariance reduction requested outside its K <= N-1 regime."""


class EmptySum(LowNoiseError):
    """No first-order eigenvalue shift is available for the requested sum."""


class SingularFisher(LowNoiseError):
    """Fisher matrix is numerically singular; inverse not defined."""


class BadProbabilities(LowNoiseError):
    """Measurement outcome probabilities are negative or do not sum to one."""


class ConfigInvalid(LowNoiseError):
    """Scenario or channel configuration fails validation."""


class IOFailure(LowNoiseError):
    """Report could not be written or read."""


def require_int(value, what: str, low: int, high: int | None = None) -> int:
    """value as a Python int: ConfigInvalid unless it is a Python or numpy integer, not a bool, in [low, high)."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n >= low and (high is None or n < high):
                return n
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ConfigInvalid(f"{what} must be an integer {bound}, got {value!r}")
