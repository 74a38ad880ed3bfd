"""Exception types shared across the package; the CLI maps them to exit codes."""


class EcmlError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EcmlError):
    """Invalid input: malformed file, bad shape, or violated precondition."""


class NumericalError(EcmlError):
    """Numerical failure during fitting or decomposition."""


class SingularCovariance(NumericalError):
    """A covariance matrix is singular or too ill-conditioned to invert."""
