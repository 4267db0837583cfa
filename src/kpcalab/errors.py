"""Exception types shared across the library.

The split matters to the command line driver, which maps configuration
problems (InvalidInput and its subclasses) to exit 1 and numerical
breakdowns (NumericFailure) to exit 3.  A failed verification is a verdict
a command reports (exit 2), never an exception.
"""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition (shape, range, domain)."""


class ConfigError(InvalidInput):
    """An experiment or CLI configuration is malformed or inconsistent."""


class RankError(InvalidInput):
    """A requested component index exceeds the numerically retained rank."""


class EigengapError(InvalidInput):
    """A spectral projector was requested across a (near-)degenerate gap."""


class DomainError(InvalidInput):
    """A point lies outside the domain a kernel or measure is defined on."""


class CapacityError(InvalidInput):
    """A construction asks for more components than its support carries."""


class DegenerateModel(InvalidInput):
    """A fit produced no usable components (all eigenvalues at noise level)."""


class OutOfRegime(InvalidInput):
    """Rate parameters fall outside every regime covered by the theory."""


class NotPositiveSemidefinite(InvalidInput):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


class NumericFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""
