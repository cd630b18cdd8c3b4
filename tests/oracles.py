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

from liouwave.hyperbolic import HyperbolicProfile
from liouwave.profiles import FunctionProfile
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
    """(1/2) * composite-rule integral of kernel(x, x') f(x') over the cone, x by x.

    The nodes are x + s for the signed offsets s = x' - x of cone and support.
    """
    a, b = f.support
    out = []
    for x in xs:
        x = float(x)
        s_lo, s_hi = max(a - x, -t), min(b - x, t)
        if s_lo >= s_hi:
            out.append(0.0)
            continue
        s, wts = panel_points(rule, s_lo, s_hi, panels)
        pts = x + s
        out.append(0.5 * float(np.dot(wts, kernel(x, pts) * f(pts))))
    return np.array(out)


def regularized_row_per_point(k: float, f, t: float, xs, rule, panels: int = 8) -> np.ndarray:
    """Substituted form x by x: the branches x' >= x and x' <= x of cone and support, one at a time."""
    a, b = f.support
    sh = math.sinh(0.5 * t)
    out = []
    for x in xs:
        x = float(x)
        total = 0.0
        # signed offsets s = x' - x of each branch
        for s_lo, s_hi in ((max(a - x, 0.0), min(b - x, t)), (max(a - x, -t), min(b - x, 0.0))):
            if s_lo >= s_hi:
                continue
            zpts, wts = panel_points(rule, np.sinh(0.5 * s_lo) / sh, np.sinh(0.5 * s_hi) / sh, panels)
            y = zpts * sh
            xp = x + 2.0 * np.arcsinh(y)
            z = 2.0 * abs(k) * np.sqrt(np.exp(x + xp) * (sh * sh - y * y))
            total += float(np.dot(wts, f(xp) * (sh / np.sqrt(1.0 + y * y)) * j0(z)))
        out.append(total)
    return np.array(out)


def translated(profile, shift: float) -> HyperbolicProfile:
    """Half-plane profile translated horizontally by shift (an isometry of the plane)."""
    x0, x1, y0, y1 = profile.box
    x_part = None
    if profile.x_part is not None:
        a, b = profile.x_part.support
        x_part = FunctionProfile(lambda s: profile.x_part(s - shift), a + shift, b + shift)
    return HyperbolicProfile(
        func=lambda x, y: profile.func(x - shift, y),
        box=(x0 + shift, x1 + shift, y0, y1),
        x_part=x_part,
        y_part=profile.y_part,
    )


# ---------------------------------------------------------------------------
# full-domain leapfrog: every cell of the padded domain, a new array a step


def wave_step(u, u_prev, dt, inv_dx2, potential):
    """One full-domain leapfrog step of u_tt = u_xx - V u with Dirichlet ends."""
    lap = np.zeros_like(u)
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
    u_next = dt * dt * (lap - potential * u) + 2.0 * u - u_prev
    u_next[0] = 0.0
    u_next[-1] = 0.0
    return u_next


def leapfrog_full_domain(f, cfg, potential, damping_sum=None, record_times=None):
    """Literal leapfrog over the whole padded domain, allocating every level.

    damping_sum = None is the undamped wave equation with potential the
    grid values of V; otherwise the damped line with potential the number
    alpha * beta.
    Returns (times, values).
    """
    x = cfg.grid()
    dx = float(x[1] - x[0])
    inv_dx2 = 1.0 / (dx * dx)
    n_steps = cfg.step_count()
    dt = cfg.time_step()
    hs = None if damping_sum is None else 0.5 * damping_sum * dt
    if record_times is None:
        record_times = [cfg.t_final]
    snapped = {}
    for rt in record_times:
        idx = int(round(rt / dt))
        snapped[idx] = idx * dt

    u_prev = np.zeros_like(x)
    u = dt * (1.0 if hs is None else 1.0 - hs) * f(x)
    recorded = {i: level.copy() for i, level in ((0, u_prev), (1, u)) if i in snapped}
    for n in range(1, n_steps):
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        if hs is None:
            u_next = dt * dt * (lap - potential * u) + 2.0 * u - u_prev
        else:
            num = dt * dt * (lap - potential * u) + 2.0 * u - u_prev + hs * u_prev
            u_next = num / (1.0 + hs)
        u_next[0] = 0.0
        u_next[-1] = 0.0
        u_prev, u = u, u_next
        if n + 1 in snapped:
            recorded[n + 1] = u.copy()
    indices = sorted(snapped)
    return np.array([snapped[i] for i in indices]), np.vstack([recorded[i] for i in indices])
