"""Exception types shared across the package."""


class UncertainError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(UncertainError, ValueError):
    """Operands have incompatible shapes."""


class DomainError(UncertainError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class TapeError(UncertainError, RuntimeError):
    """Misuse of the differentiation tape (detached tensor, non-scalar root)."""


class NotPositiveDefiniteError(UncertainError, RuntimeError):
    """Cholesky factorization failed even after jitter escalation."""


class JitterWarning(UserWarning):
    """Cholesky succeeded only after adding a large jitter to the diagonal,
    which perturbs the covariance it factors."""


class NotReversibleError(UncertainError, TypeError):
    """A reverse computation was requested from a layer that has none."""


class LayerError(UncertainError, RuntimeError):
    """A layer cannot run as asked: it is not built, it draws on a pass
    without a seed, it has no sample axis for a seed sequence, an LSTM is
    stepped on weights drawn off the recording tape, or a parameter is
    created while a Tape records.  The message names the layer; a
    ``Sequential`` also wraps any other error of a sub-layer in one,
    naming the sub-layer's index."""


class ConfigError(UncertainError, ValueError):
    """Malformed configuration file or invalid configuration value."""


class DataError(UncertainError, ValueError):
    """Malformed dataset file."""


class CheckpointError(UncertainError, ValueError):
    """Malformed or truncated checkpoint file."""


class TrainingError(UncertainError, RuntimeError):
    """Training cannot proceed (missing likelihood, non-finite loss)."""
