"""Reductions of the exponential-potential propagator.

Three specializations share the light-cone machinery: the constant
potential (flat-space Klein-Gordon kernel), the lossy transmission line
(damping removed by an exponential substitution), and the scaling study
that connects the exponential kernel to the constant one in the
small-scale limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e as _i0e, j0 as _j0

from .errors import ConfigError, DomainError
from .kernel import sinh_argument
from .profiles import InitialProfile
from .propagator import DEFAULT_PANELS, _cone_row
from .quadrature import QuadratureRule

__all__ = [
    "TelegraphParams",
    "ScalingStudy",
    "DEFAULT_SCALING_SAMPLES",
    "constant_potential_solve",
    "telegraph_solve",
    "scaling_limit_gap",
]


@dataclass(frozen=True)
class TelegraphParams:
    """Nonnegative line coefficients of the transmission-line equation

        v_tt + (alpha + beta) v_t + alpha beta v = v_xx.

    damping and mass are the derived constants of the undamped reduction;
    they satisfy damping^2 - mass^2 = alpha * beta.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")

    @property
    def damping(self) -> float:
        return 0.5 * (self.alpha + self.beta)

    @property
    def mass(self) -> float:
        return 0.5 * abs(self.alpha - self.beta)


def _flat_argument(t, x, xp, coupling):
    """|coupling| sqrt(t^2 - (x - x')^2), the constant-coefficient cone argument."""
    r2 = np.maximum(t * t - (x - xp) ** 2, 0.0)
    return abs(coupling) * np.sqrt(r2)


def constant_potential_solve(
    k: float,
    f: InitialProfile,
    t: float,
    x,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
):
    """Solution of u_tt = u_xx - k^2 u with u(0) = 0, u_t(0) = f.

    (1/2) * integral of J0(|k| sqrt(t^2 - (x - x')^2)) f(x') over the
    cone, same normalization as the exponential-potential propagator;
    k = 0 degenerates to the d'Alembert average.  x is a number or a 1-D
    array, as for solve_cauchy.
    """
    return _cone_row(t, x, k, _flat_argument, _j0, f, quad, panels)


def telegraph_solve(
    params: TelegraphParams,
    f: InitialProfile,
    t: float,
    x,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
):
    """Transmission-line solution v(t, x) with v(0) = 0, v_t(0) = f.

    Stripping the damping via v = e^{-damping t} w leaves
    w_tt = w_xx + mass^2 w: the zero-order term enters with the opposite
    sign from the constant-potential equation, so the cone kernel is the
    modified Bessel I0, not J0.  The damped-wave finite-difference oracle
    pins this down.

    The damping factor is folded into the kernel as
    I0(z) e^{-damping t} = i0e(z) e^{z - damping t} with z = mass * r and
    r <= t; since mass <= damping the exponent is <= 0, so neither factor
    overflows where the product is finite.
    """
    def kernel(z):
        return _i0e(z) * np.exp(z - params.damping * t)

    return _cone_row(t, x, params.mass, _flat_argument, kernel, f, quad, panels)


# Cone-interior (t, x, x') samples used by the default scaling study and
# the verification suite.  The leading gap term is O(scale * |x + x'|), so
# the set keeps |x + x'| moderate while varying t and the cone offset.
DEFAULT_SCALING_SAMPLES = (
    (1.0, 0.2, -0.1),
    (0.8, 0.3, 0.1),
    (1.5, -0.3, 0.2),
    (2.0, 0.25, -0.25),
    (1.2, 0.1, -0.35),
)


@dataclass(frozen=True)
class ScalingStudy:
    """Kernel-gap study for the rescaled problem (k -> k/s, x -> s x, t -> s t).

    As the scale s decreases to 0 the rescaled kernel argument tends to
    the constant-potential one, |k| sqrt(t^2 - (x - x')^2); the study
    measures the worst first-kind-kernel gap over the sample points for
    each scale.
    """

    lambdas: tuple
    samples: tuple = DEFAULT_SCALING_SAMPLES
    k: float = 1.0

    def __post_init__(self) -> None:
        if len(self.lambdas) == 0:
            raise ConfigError("at least one scale factor is required")
        for lam in self.lambdas:
            if not (math.isfinite(lam) and lam > 0.0):
                raise DomainError(f"scale factors must be positive, got {lam!r}")
        if any(b >= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ConfigError("scale factors must be strictly decreasing")
        for (t, x, xp) in self.samples:
            if not abs(x - xp) < abs(t):
                raise ConfigError(
                    f"sample (t={t}, x={x}, x'={xp}) is not strictly inside the cone"
                )
        if not math.isfinite(self.k):
            raise DomainError(f"coupling must be finite, got {self.k!r}")


def scaling_limit_gap(study: ScalingStudy) -> np.ndarray:
    """Per-scale max |J0(rescaled argument) - J0(flat argument)| over the samples.

    The sequence decreases to 0 as the scales do; the leading error is
    O(scale) from the e^{s(x+x')} factor.
    """
    t, x, xp = np.asarray(study.samples, dtype=float).T
    flat = _j0(_flat_argument(t, x, xp, study.k))
    return np.array([
        np.max(np.abs(_j0(sinh_argument(lam * t, lam * x, lam * xp, study.k / lam)) - flat))
        for lam in study.lambdas
    ])
