"""Cauchy-problem propagator for the exponential-potential wave equation.

Solves u_tt = u_xx - k^2 e^{2x} u with u(0, x) = 0 and u_t(0, x) = f(x) by
integrating the first-kind kernel against f over the domain of dependence.
Two exact forms are provided: the raw light-cone integral and a
regularized form, substituted so that its integrand stays O(1) as t -> 0.
Both integrate only over the cone intersected with the support of f.  Each
solves one time for a number or a 1-D array of positions; the raw form and
the reductions on the line share one batched cone-integral row core.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0 as _j0

from .errors import ConfigError, DomainError, require_finite
from .field import SolutionField
from .kernel import sinh_argument
from .profiles import InitialProfile
from .quadrature import QuadratureRule, default_rule, panel_points, weighted_sum

DEFAULT_PANELS = 8
MIN_SOLVE_ORDER = 8

__all__ = [
    "DEFAULT_PANELS",
    "solve_cauchy",
    "solve_cauchy_regularized",
    "small_time_slope",
    "solve_on_grid",
]


def _check_rule(quad: QuadratureRule | None, panels: int) -> QuadratureRule:
    """The rule of a solve (the default if None), checked with the panel count."""
    if quad is None:
        quad = default_rule()
    if quad.order < MIN_SOLVE_ORDER:
        raise ConfigError(
            f"propagator needs quadrature order >= {MIN_SOLVE_ORDER}, got {quad.order}"
        )
    if panels < 1:
        raise ConfigError(f"panel count must be >= 1, got {panels}")
    return quad


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"solve requires t > 0, got {t!r}")


def _positions(t: float, x, k, quad: QuadratureRule | None, panels: int):
    """Checked rule and positions (a 0-d or 1-D float array) for a line solve."""
    _check_time(t)
    quad = _check_rule(quad, panels)
    require_finite("solve", x=x, k=k)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ConfigError(f"solve takes a number or a 1-D array of positions, got shape {x.shape}")
    return quad, x


def _finished(t: float, x: np.ndarray, u):
    """Row u at positions x (same shape) as a float or an array; non-finite values raise."""
    bad = ~np.isfinite(u)
    if np.any(bad):
        raise DomainError(f"solve overflows at (t={t}, x={float(x.flat[np.argmax(bad)])})")
    return float(u) if u.ndim == 0 else u


def _cone_offsets(t: float, xs: np.ndarray, support) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the signed offsets s = x' - x of cone and support: [max(a - x, -t), min(b - x, t)].

    Taken from a - x, b - x and t directly, the interval length carries no
    eps * |x| rounding from the ends x -+ t, which dominates at small t.
    The interval is empty (lo >= hi) where the cone misses the support.
    """
    a, b = support
    return np.maximum(a - xs, -t), np.minimum(b - xs, t)


def _cone_row(t, x, coupling, argument, kernel, f, quad, panels):
    """(1/2) * integral of kernel(argument(t, x, x', coupling)) f(x') dx' for each x.

    The integral runs over the cone (x - t, x + t) intersected with the
    support of f, by composite Gauss-Legendre panels; every (position x
    node) array is built at once, so one profile call, one kernel call
    and one weighted sum serve the whole row.  Positions whose cone misses
    the support are exactly 0.0.  x is a number (a float is returned) or
    a 1-D array; coupling is a number or an array matching x.
    """
    quad, x = _positions(t, x, coupling, quad, panels)
    xs = x.reshape(-1)
    lo, hi = _cone_offsets(t, xs, f.support)
    live = np.flatnonzero(lo < hi)
    out = np.zeros(xs.shape)
    if live.size:
        if np.ndim(coupling):
            coupling = np.asarray(coupling, dtype=float)[live, None]
        pts, wts = panel_points(quad, lo[live], hi[live], panels)
        xl = xs[live, None]
        pts += xl  # offsets s to nodes x' = x + s
        vals = kernel(argument(t, xl, pts, coupling)) * f(pts)
        out[live] = 0.5 * weighted_sum(wts, vals)
    return _finished(t, x, out.reshape(x.shape))


def solve_cauchy(
    k,
    f: InitialProfile,
    t: float,
    x,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
):
    """Solution value u(t, x) as the raw light-cone integral.

    Computes (1/2) * integral of J0(z(t, x, x')) f(x') over the
    intersection of the cone (x - t, x + t) with the support of f, by
    composite Gauss-Legendre panels.  The factor 1/2 is pinned by the
    free-wave limit: at k = 0 the time derivative at 0+ must equal f, and
    a unit factor would give twice that.

    x is a number, giving a float, or a 1-D array of positions, giving
    the array of values; k may also be an array matching x.
    """
    return _cone_row(t, x, k, sinh_argument, _j0, f, quad, panels)


def solve_cauchy_regularized(
    k: float,
    f: InitialProfile,
    t: float,
    x,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
):
    """Solution value u(t, x) via the substitution sinh(s/2) = z sinh(t/2).

    Exact transform of solve_cauchy: the signed offset s = x' - x in
    [-t, t] maps to z in [-1, 1], giving the integrand

        J0(2|k| sqrt(e^{x+x'} (sinh^2(t/2) - y^2))) f(x') sinh(t/2) / sqrt(1 + y^2)

    with y = z sinh(t/2) and x' = x + 2 asinh(y).  The branches x' >= x
    and x' <= x are integrated apart, each only over the z interval whose
    x' lie in the support of f, by composite Gauss-Legendre panels: f and
    the kernel are never evaluated outside cone and support, and a branch
    that misses the support adds exactly 0.0.  The integrand tends to
    f(x) * t as t -> 0, which makes the small-time limit manifest.  x is a
    number or a 1-D array, as for solve_cauchy.
    """
    quad, x = _positions(t, x, k, quad, panels)
    xs = x.reshape(-1)
    n = xs.size
    # signed offsets s = x' - x inside cone and support: row i < n is the branch s >= 0
    # at xs[i], row n + i the branch s <= 0; z = sinh(s/2) / sinh(t/2) is odd in s
    lo, hi = _cone_offsets(t, xs, f.support)
    s_lo = np.concatenate([np.maximum(lo, 0.0), lo])
    s_hi = np.concatenate([hi, np.minimum(hi, 0.0)])
    live = np.flatnonzero(s_lo < s_hi)
    sums = np.zeros(2 * n)
    if live.size:
        sh = math.sinh(0.5 * t)
        y, wts = panel_points(quad, np.sinh(0.5 * s_lo[live]) / sh,
                              np.sinh(0.5 * s_hi[live]) / sh, panels)
        y *= sh  # nodes in z, scaled to y = z sinh(t/2)
        yy = y * y
        xl = xs[live % n, None]
        xp = xl + 2.0 * np.arcsinh(y)
        vals = f(xp) * (sh / np.sqrt(1.0 + yy))
        if k != 0.0:  # k = 0 has J0 = 1, even where e^{x+x'} overflows
            with np.errstate(over="ignore", invalid="ignore"):  # overflows fail the row check
                vals *= _j0(2.0 * abs(k) * np.sqrt(np.exp(xl + xp) * (sh * sh - yy)))
        sums[live] = weighted_sum(wts, vals)
    return _finished(t, x, (sums[:n] + sums[n:]).reshape(x.shape))


def small_time_slope(
    k: float,
    f: InitialProfile,
    x: float,
    t: float,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
) -> float:
    """u(t, x) / t for small t; tends to f(x) with O(t^2) error.

    Uses the regularized form, whose integrand stays O(1) as t -> 0.
    """
    if not (math.isfinite(t) and 0.0 < t <= 0.1):
        raise DomainError(f"small-time slope requires 0 < t <= 0.1, got {t!r}")
    return solve_cauchy_regularized(k, f, t, x, quad, panels) / t


def solve_on_grid(
    coupling,
    f: InitialProfile,
    times,
    positions,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
    solver=solve_cauchy,
) -> SolutionField:
    """Values of a line solver on a (times x positions) grid, one batched row per time.

    solver is solve_cauchy, solve_cauchy_regularized, constant_potential_solve
    or telegraph_solve; coupling is its first argument.  Times may come in
    any order and are returned sorted.  The rule and panel count are
    checked before any row; t = 0 rows are zeros (the initial condition).
    """
    times = np.sort(np.asarray(times, dtype=float))
    positions = np.asarray(positions, dtype=float)
    require_finite("solve_on_grid", times=times)
    if np.any(times < 0.0):
        raise DomainError("grid times must be >= 0")
    quad = _check_rule(quad, panels)
    values = np.zeros((len(times), len(positions)))
    for i, t in enumerate(times):
        if t > 0.0:
            values[i] = solver(coupling, f, float(t), positions, quad, panels)

    return SolutionField(
        times=times,
        positions=positions,
        values=values,
        provenance="regularized" if solver is solve_cauchy_regularized else "quadrature",
        attrs={"coupling": coupling, "panels": panels, "order": quad.order},
    )
