"""Light-cone kernel for the exponential-potential wave operator.

The Bessel argument z(t, x, x') collapses the three coordinates into the
single variable the wave kernel depends on; this module evaluates it, its
closed-form partial derivatives, the two-branch kernel built from it, and
a finite-difference residual confirming that the kernel solves

    (d^2/dx^2 - k^2 e^{2x}) W = d^2 W / dt^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError, require_finite
from .specfun import bessel_j0, bessel_y0

__all__ = [
    "kernel_argument",
    "kernel_argument_partials",
    "KernelPartials",
    "wave_kernel",
    "pde_residual",
]


def sinh_argument(t, x, xp, k):
    """Kernel argument 2|k| e^{(x+x')/2} sqrt(sinh((t+d)/2) sinh((t-d)/2)), d = x - x'.

    The product of sinh factors equals (cosh t - cosh d) / 2 but keeps full
    precision near the cone, where the literal difference of hyperbolic
    cosines loses every significant digit.  Numbers or broadcasting
    arrays; a negative product (a point outside the cone, or roundoff
    from one exactly on it) is clamped to 0, so callers that must reject
    such points check |x - x'| <= |t| first.
    """
    delta = x - xp
    prod = np.sinh(0.5 * (t + delta)) * np.sinh(0.5 * (t - delta))
    return 2.0 * abs(k) * np.exp(0.5 * (x + xp)) * np.sqrt(np.maximum(prod, 0.0))


def kernel_argument(t: float, x: float, xp: float, k: float) -> float:
    """Bessel argument z = |k| sqrt(2 e^{x+x'} (cosh t - cosh(x - x'))).

    Zero exactly on the light cone |x - x'| = |t| and for k = 0; even in t
    and symmetric under x <-> x'.  Points outside the closed cone have a
    negative radicand and raise DomainError (except k = 0, where the |k|
    factor makes the value 0 everywhere).
    """
    t, x, xp, k = float(t), float(x), float(xp), float(k)
    require_finite("kernel_argument", t=t, x=x, xp=xp, k=k)
    if k == 0.0:
        return 0.0
    if abs(x - xp) > abs(t):
        raise DomainError(
            f"point (t={t}, x={x}, x'={xp}) lies outside the closed light cone"
        )
    return float(sinh_argument(t, x, xp, k))


class KernelPartials(NamedTuple):
    """Closed-form partial derivatives of the kernel argument."""

    d_x: float
    d_xx: float
    d_t: float
    d_tt: float


def kernel_argument_partials(t: float, x: float, xp: float, k: float) -> KernelPartials:
    """First and second partials of the kernel argument in x and t.

    Requires a point strictly inside the light cone with k != 0 so the
    argument is positive: the closed forms carry 1/z and 1/z^3 factors.
    """
    z = kernel_argument(t, x, xp, k)
    if z == 0.0:
        raise SingularityError(
            "kernel argument vanishes here (light cone or k = 0); partials are singular"
        )
    ks = k * k * math.exp(x + xp)
    delta = x - xp
    sd, st, ct = math.sinh(delta), math.sinh(t), math.cosh(t)
    d_x = 0.5 * z - ks * sd / z
    d_xx = 0.25 * z - k * k * math.exp(2.0 * x) / z - ks * ks * sd * sd / z**3
    d_t = ks * st / z
    d_tt = ks * ct / z - ks * ks * st * st / z**3
    return KernelPartials(d_x=d_x, d_xx=d_xx, d_t=d_t, d_tt=d_tt)


def wave_kernel(t: float, x: float, xp: float, k: float, a: float = 1.0, b: float = 0.0) -> float:
    """Two-branch kernel a*J0(z) + b*Y0(z) with z = kernel_argument(...).

    The second-kind branch is logarithmically singular where z = 0, so
    b != 0 requires a point strictly inside the cone with k != 0.
    """
    a, b = float(a), float(b)
    require_finite("wave_kernel", a=a, b=b)
    z = kernel_argument(t, x, xp, k)
    if b == 0.0:
        return a * bessel_j0(z)
    if z == 0.0:
        raise SingularityError(
            "second-kind branch is singular on the light cone (kernel argument 0)"
        )
    return a * bessel_j0(z) + b * bessel_y0(z)


def pde_residual(
    t: float,
    x: float,
    xp: float,
    k: float,
    a: float = 1.0,
    b: float = 0.0,
    h: float = 1e-3,
) -> float:
    """Central-difference residual of the wave equation applied to the kernel.

    Returns (d^2/dx^2 - k^2 e^{2x} - d^2/dt^2) wave_kernel via the 5-point
    stencil of step h.  For the exact kernel the residual is pure
    truncation error, O(h^2) times the local kernel scale; that is what
    the verification suite measures.
    """
    t, x, xp, k, h = float(t), float(x), float(xp), float(k), float(h)
    require_finite("pde_residual", t=t, x=x, xp=xp, k=k, h=h)
    if h <= 0.0:
        raise DomainError(f"stencil step must be positive, got {h}")
    if abs(t) - abs(x - xp) <= 2.0 * h:
        raise DomainError(
            f"stencil of step {h} exits the light cone at (t={t}, x={x}, x'={xp})"
        )
    w = wave_kernel(t, x, xp, k, a, b)
    w_xp = wave_kernel(t, x + h, xp, k, a, b)
    w_xm = wave_kernel(t, x - h, xp, k, a, b)
    w_tp = wave_kernel(t + h, x, xp, k, a, b)
    w_tm = wave_kernel(t - h, x, xp, k, a, b)
    inv_h2 = 1.0 / (h * h)
    d_xx = (w_xp - 2.0 * w + w_xm) * inv_h2
    d_tt = (w_tp - 2.0 * w + w_tm) * inv_h2
    return d_xx - k * k * math.exp(2.0 * x) * w - d_tt
