"""Exception types shared across the library, and the finiteness check."""

import math

import numpy as np


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation was requested on a singular locus (kernel argument zero)."""


class ConfigError(ValueError):
    """Inconsistent or unstable solver configuration."""


class SeparabilityError(ValueError):
    """Operation requires a separable profile f(x, y) = g(x) * h(y)."""


def require_finite(op: str, **values) -> None:
    """Raise DomainError naming the first value (a number or an array) that is not finite."""
    for name, v in values.items():
        if isinstance(v, (int, float)):
            if math.isfinite(v):
                continue
        elif np.isfinite(v).all():
            continue
        raise DomainError(f"{op} requires finite {name}, got {v!r}")
