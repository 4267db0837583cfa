"""Exception types shared across the library, and its one rule for counts.

The split matters to the command line driver, which maps configuration
problems (InvalidInput and its subclasses) to exit 1 and numerical
breakdowns (NumericFailure) to exit 3.  A failed verification is a verdict
a command reports (exit 2), never an exception.

Every config value, every count or seed that enters a sampling path, and
every split index or exponent a spectral routine takes passes ``_count`` or
``_real`` below, so a bad one is a ConfigError.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "InvalidInput",
    "ConfigError",
    "RankError",
    "EigengapError",
    "DomainError",
    "CapacityError",
    "DegenerateModel",
    "OutOfRegime",
    "NotPositiveSemidefinite",
    "NumericFailure",
]


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


def _count(key: str, value, optional: bool = False, least: int | None = None) -> int | None:
    """``value`` as an int >= ``least``: an integral number, never a bool (None if optional)."""
    if value is None and optional:
        return None
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value!r}")
    return int(value)


def _real(key: str, value, optional: bool = False) -> float | None:
    """``value`` as a float: a finite number, never a bool (None if optional)."""
    if value is None and optional:
        return None
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value)):
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")
