"""Independent slow oracles used by the tests.

Everything here is deliberately naive (ascending power series, bisection,
adaptive quadrature of plain callables, one-position-at-a-time loops) and
shares no code with the library paths it checks, except that the
per-position loops take their nodes from panel_points: they pin down that
batching the positions changes nothing, not the quadrature itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad as adaptive_quad
from scipy.special import i0, j0

from liouwave.quadrature import panel_points

EULER_GAMMA_ORACLE = 0.5772156649015328606065120900824024


def j0_series(x: float, terms: int = 60) -> float:
    """Ascending series sum_m (-x^2/4)^m / (m!)^2; accurate in double for |x| <~ 12."""
    q = -0.25 * x * x
    total, term = 1.0, 1.0
    for m in range(1, terms):
        term *= q / (m * m)
        total += term
        if abs(term) <= 1e-20 * abs(total):
            break
    return total


def i0_series(x: float, terms: int = 60) -> float:
    """Ascending series sum_m (x^2/4)^m / (m!)^2."""
    q = 0.25 * x * x
    total, term = 1.0, 1.0
    for m in range(1, terms):
        term *= q / (m * m)
        total += term
        if abs(term) <= 1e-20 * abs(total):
            break
    return total


def y0_series(x: float, terms: int = 60) -> float:
    """Second-kind series (2/pi)[(ln(x/2) + gamma) J0(x) + sum_m (-1)^{m+1} H_m (x^2/4)^m/(m!)^2]."""
    q = 0.25 * x * x
    total, term, harmonic = 0.0, 1.0, 0.0
    for m in range(1, terms):
        term *= q / (m * m)
        harmonic += 1.0 / m
        contrib = (-1) ** (m + 1) * harmonic * term
        total += contrib
        if abs(contrib) <= 1e-20 * max(abs(total), 1e-300):
            break
    return (2.0 / math.pi) * ((math.log(0.5 * x) + EULER_GAMMA_ORACLE) * j0_series(x) + total)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo, fhi = fn(lo), fn(hi)
    assert flo * fhi < 0.0, "bisection bracket must straddle a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def dalembert_value(profile, t: float, x: float) -> float:
    """Free-wave value (1/2) integral of the profile over the cone, by adaptive quadrature."""
    a, b = profile.support
    lo, hi = max(x - t, a), min(x + t, b)
    if lo >= hi:
        return 0.0
    val, _ = adaptive_quad(profile, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return 0.5 * val


# ---------------------------------------------------------------------------
# one-position-at-a-time line solves: the kernels take (x, x' nodes)


def sinh_kernel(k: float, t: float):
    """J0 of the exponential-potential argument 2|k| e^{(x+x')/2} sqrt(sinh sinh)."""
    def kernel(x, xp):
        d = x - xp
        prod = np.maximum(np.sinh(0.5 * (t + d)) * np.sinh(0.5 * (t - d)), 0.0)
        return j0(2.0 * abs(k) * np.exp(0.5 * (x + xp)) * np.sqrt(prod))
    return kernel


def flat_kernel(k: float, t: float):
    """J0 of the constant-potential argument |k| sqrt(t^2 - (x - x')^2)."""
    def kernel(x, xp):
        return j0(abs(k) * np.sqrt(np.maximum(t * t - (x - xp) ** 2, 0.0)))
    return kernel


def telegraph_kernel(alpha: float, beta: float, t: float):
    """e^{-damping t} I0(mass sqrt(t^2 - (x - x')^2)) of the transmission line."""
    damping, mass = 0.5 * (alpha + beta), 0.5 * abs(alpha - beta)

    def kernel(x, xp):
        return math.exp(-damping * t) * i0(mass * np.sqrt(np.maximum(t * t - (x - xp) ** 2, 0.0)))
    return kernel


def cone_row_per_point(kernel, f, t: float, xs, rule, panels: int = 8) -> np.ndarray:
    """(1/2) * composite-rule integral of kernel(x, x') f(x') over the cone, x by x."""
    a, b = f.support
    out = []
    for x in xs:
        x = float(x)
        lo, hi = max(x - t, a), min(x + t, b)
        if lo >= hi:
            out.append(0.0)
            continue
        pts, wts = panel_points(rule, lo, hi, panels)
        out.append(0.5 * float(np.dot(wts, kernel(x, pts) * f(pts))))
    return np.array(out)


def regularized_row_per_point(k: float, f, t: float, xs, rule, panels: int = 8) -> np.ndarray:
    """Substituted fixed-interval form on [0, 1], x by x."""
    zpts, wts = panel_points(rule, 0.0, 1.0, panels)
    sh = math.sinh(0.5 * t)
    out = []
    for x in xs:
        x = float(x)
        s = 2.0 * np.arcsinh(zpts * sh)
        one_minus = np.maximum(1.0 - zpts * zpts, 0.0)
        total = 0.0 * zpts
        for xp in (x + s, x - s):
            z = 2.0 * abs(k) * sh * np.sqrt(np.exp(x + xp) * one_minus)
            total = total + j0(z) * f(xp)
        jacobian = sh / np.sqrt(1.0 + (zpts * sh) ** 2)
        out.append(float(np.dot(wts, total * jacobian)))
    return np.array(out)
