"""Exception types shared across the package, and the one count check."""

import numbers


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation
    (negative probability, non-Hermitian matrix, empty term list, ...)."""


class ConfigurationError(RuntimeError):
    """A run is mis-configured: guard exceeded, truncation insufficient,
    unsupported process variant for the requested engine."""


class FitError(RuntimeError):
    """A least-squares inversion could not be carried out
    (degenerate time grid, singular design matrix)."""


def checked_count(value, name: str, least: int = 0) -> int:
    """value, an integer-valued real >= least, as an int; any other value
    raises DomainError naming it, as evolution.checked_grid does a grid."""
    if not (isinstance(value, numbers.Real) and value % 1 == 0
            and value >= least):
        raise DomainError("%s must be an integer >= %d, not %r"
                          % (name, least, value))
    return int(value)
