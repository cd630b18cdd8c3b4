"""Scalar special functions underpinning every kernel evaluation.

Evaluation is delegated to SciPy's Cephes routines, which beat the accuracy
bounds published here by two to three orders of magnitude.  The test suite
checks the bounds against independent power-series and arbitrary-precision
oracles, so this module stays honest without carrying its own polynomial
approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sp

from .errors import DomainError, require_finite

__all__ = [
    "EULER_GAMMA",
    "EvalAccuracy",
    "J0_ACCURACY",
    "Y0_ACCURACY",
    "I0_ACCURACY",
    "bessel_j0",
    "bessel_y0",
    "bessel_i0",
    "asinh",
]

# Euler-Mascheroni constant to full double precision (needed by the
# second-kind series oracle in the tests and handy for callers).
EULER_GAMMA = 0.5772156649015328606065120900824024


@dataclass(frozen=True)
class EvalAccuracy:
    """Error bound guaranteed on a stated interval.

    abs_tol and rel_tol are both guaranteed wherever the argument lies in
    ``domain``; outside it the functions still evaluate but the bound is
    not promised.
    """

    abs_tol: float
    rel_tol: float
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("accuracy tolerances must be positive")
        if not self.domain[0] < self.domain[1]:
            raise ValueError("accuracy domain must be a nonempty interval")


J0_ACCURACY = EvalAccuracy(abs_tol=1e-13, rel_tol=1e-13, domain=(0.0, 50.0))
Y0_ACCURACY = EvalAccuracy(abs_tol=1e-12, rel_tol=1e-12, domain=(1e-8, 50.0))
I0_ACCURACY = EvalAccuracy(abs_tol=1e-13, rel_tol=1e-13, domain=(0.0, 5.0))


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Even in x, so any sign is accepted and |x| is evaluated; J0(0) = 1
    exactly.
    """
    x = float(x)
    require_finite("bessel_j0", x=x)
    return float(_sp.j0(abs(x)))


def bessel_y0(x: float) -> float:
    """Bessel function of the second kind, order zero.

    Defined for x > 0 only; diverges to -inf logarithmically as x -> 0+.
    A nonpositive argument signals evaluation on or outside the light
    cone, where the second-kind branch of the wave kernel is singular.
    """
    x = float(x)
    require_finite("bessel_y0", x=x)
    if x <= 0.0:
        raise DomainError(f"bessel_y0 requires x > 0, got {x!r}")
    return float(_sp.y0(x))


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero (even in x)."""
    x = float(x)
    require_finite("bessel_i0", x=x)
    return float(_sp.i0(abs(x)))


def asinh(x: float) -> float:
    """Inverse hyperbolic sine, ln(x + sqrt(x^2 + 1)).

    math.asinh is used directly; it is odd-symmetric and stable for large
    |x| where the naive logarithm form overflows or cancels.
    """
    x = float(x)
    require_finite("asinh", x=x)
    return math.asinh(x)
