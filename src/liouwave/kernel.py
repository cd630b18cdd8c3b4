"""Light-cone kernel for the exponential-potential wave operator.

The Bessel argument z(t, x, x') collapses the three coordinates into the
single variable the wave kernel depends on; this module evaluates it, its
closed-form partial derivatives, the two-branch kernel built from it, and
a finite-difference residual confirming that the kernel solves

    (d^2/dx^2 - k^2 e^{2x}) W = d^2 W / dt^2.

Numbers give floats; broadcasting arrays give arrays, bitwise equal to
per-element calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import j0 as _j0, y0 as _y0

from .errors import DomainError, SingularityError, require_finite

__all__ = ["kernel_argument", "kernel_argument_partials", "KernelPartials", "wave_kernel",
           "pde_residual"]


def sinh_argument(t, x, xp, k):
    """Kernel argument 2|k| e^{(x+x')/2} sqrt(sinh((t+d)/2) sinh((t-d)/2)), d = x - x'.

    The product of sinh factors equals (cosh t - cosh d) / 2 but keeps full
    precision near the cone, where the literal difference of hyperbolic
    cosines loses every significant digit.  Numbers or broadcasting arrays.
    A negative product (outside the cone, or roundoff on it) and k = 0 give
    0, even where e^{(x+x')/2} overflows, so callers that must reject points
    outside check |x - x'| <= |t| first; other overflows give inf or nan.
    """
    delta = x - xp
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.sinh(0.5 * (t + delta)) * np.sinh(0.5 * (t - delta))
        z = 2.0 * abs(k) * np.exp(0.5 * (x + xp)) * np.sqrt(np.maximum(prod, 0.0))
    if not np.isfinite(z).all():  # only an overflow makes 0 * inf; elsewhere these are 0 already
        z = np.where((k == 0.0) | (prod <= 0.0), 0.0, z)
    return z


def _value(v):
    return float(v) if np.ndim(v) == 0 else v


def _reject(mask, what: str, t, x, xp) -> None:
    """DomainError naming the first point where mask holds, if any does."""
    if np.any(mask):
        i = np.argmax(mask)
        t, x, xp = (float(np.broadcast_to(v, np.shape(mask)).flat[i]) for v in (t, x, xp))
        raise DomainError(f"point (t={t}, x={x}, x'={xp}) {what}")


def _argument(op: str, t, x, xp, k):
    """z, with DomainError for non-finite input, points outside the cone and overflow."""
    require_finite(op, t=t, x=x, xp=xp, k=k)
    _reject(~kernel_defined(t, x, xp, k), "lies outside the closed light cone", t, x, xp)
    z = sinh_argument(t, x, xp, k)
    _reject(~np.isfinite(z), "overflows the kernel argument", t, x, xp)
    return z


def kernel_argument(t, x, xp, k):
    """Bessel argument z = |k| sqrt(2 e^{x+x'} (cosh t - cosh(x - x'))).

    Zero exactly on the light cone |x - x'| = |t| and for k = 0; even in t
    and k and symmetric under x <-> x'.  A point outside the closed cone
    (negative radicand) raises DomainError naming it, except for k = 0,
    where z = 0 everywhere; so does an argument that overflows.
    """
    return _value(_argument("kernel_argument", t, x, xp, k))


def kernel_defined(t, x, xp, k, b: float = 0.0):
    """Mask of the points where wave_kernel(t, x, xp, k, a, b) has a value.

    That is the closed light cone (everywhere for k = 0, where z = 0),
    less the points with z = 0 if the singular branch is present (b != 0).
    """
    inside = (np.abs(x - xp) <= np.abs(t)) | (k == 0.0)
    return inside if b == 0.0 else inside & (sinh_argument(t, x, xp, k) != 0.0)


class KernelPartials(NamedTuple):
    """Closed-form partial derivatives of the kernel argument (floats or arrays)."""

    d_x: float
    d_xx: float
    d_t: float
    d_tt: float


def kernel_argument_partials(t, x, xp, k) -> KernelPartials:
    """First and second partials of the kernel argument in x and t.

    Requires points strictly inside the light cone with k != 0 so the
    argument is positive: the closed forms carry 1/z and 1/z^3 factors.
    """
    z = _argument("kernel_argument_partials", t, x, xp, k)
    if np.any(z == 0.0):
        raise SingularityError(
            "kernel argument vanishes here (light cone or k = 0); partials are singular"
        )
    ks = k * k * np.exp(x + xp)
    sd, st, ct = np.sinh(x - xp), np.sinh(t), np.cosh(t)
    # z * z * z, not z**3: numpy's scalar and array powers can differ in the last bit
    partials = KernelPartials(
        d_x=0.5 * z - ks * sd / z,
        d_xx=0.25 * z - k * k * np.exp(2.0 * x) / z - ks * ks * sd * sd / (z * z * z),
        d_t=ks * st / z,
        d_tt=ks * ct / z - ks * ks * st * st / (z * z * z),
    )
    require_finite("kernel_argument_partials", **partials._asdict())
    return KernelPartials(*map(_value, partials))


def wave_kernel(t, x, xp, k, a: float = 1.0, b: float = 0.0):
    """Two-branch kernel a*J0(z) + b*Y0(z) with z = kernel_argument(...).

    The second-kind branch is logarithmically singular where z = 0, so
    b != 0 requires points strictly inside the cone with k != 0;
    kernel_defined masks the points where the kernel has a value.
    """
    a, b = float(a), float(b)
    require_finite("wave_kernel", a=a, b=b)
    z = _argument("wave_kernel", t, x, xp, k)
    w = a * _j0(z)
    if b != 0.0:
        if np.any(z == 0.0):
            raise SingularityError("second-kind branch is singular where the kernel argument is 0")
        w = w + b * _y0(z)
    return _value(w)


def pde_residual(t, x, xp, k, a: float = 1.0, b: float = 0.0, h: float = 1e-3):
    """Central-difference residual of the wave equation applied to the kernel.

    Returns (d^2/dx^2 - k^2 e^{2x} - d^2/dt^2) wave_kernel via the 5-point
    stencil of step h.  For the exact kernel the residual is pure
    truncation error, O(h^2) times the local kernel scale; that is what
    the verification suite measures.
    """
    h = float(h)
    require_finite("pde_residual", t=t, x=x, xp=xp, k=k, h=h)
    if h <= 0.0:
        raise DomainError(f"stencil step must be positive, got {h}")
    _reject(np.abs(t) - np.abs(x - xp) <= 2.0 * h,
            f"puts the stencil of step {h} outside the light cone", t, x, xp)
    w = wave_kernel(t, x, xp, k, a, b)
    w_xp = wave_kernel(t, x + h, xp, k, a, b)
    w_xm = wave_kernel(t, x - h, xp, k, a, b)
    w_tp = wave_kernel(t + h, x, xp, k, a, b)
    w_tm = wave_kernel(t - h, x, xp, k, a, b)
    inv_h2 = 1.0 / (h * h)
    d_xx = (w_xp - 2.0 * w + w_xm) * inv_h2
    d_tt = (w_tp - 2.0 * w + w_tm) * inv_h2
    return _value(d_xx - k * k * np.exp(2.0 * x) * w - d_tt)
