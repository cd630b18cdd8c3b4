"""Cauchy-problem propagator for the exponential-potential wave equation.

Solves u_tt = u_xx - k^2 e^{2x} u with u(0, x) = 0 and u_t(0, x) = f(x) by
integrating the first-kind kernel against f over the domain of dependence.
Two exact forms are provided: the raw light-cone integral and a
regularized form on the fixed interval [0, 1] that is better conditioned
for small times.  Each solves one time for a number or a 1-D array of
positions; the raw form and the reductions on the line share one batched
cone-integral row core.
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
    a, b = f.support
    lo = np.maximum(xs - t, a)
    hi = np.minimum(xs + t, b)
    live = np.flatnonzero(lo < hi)
    out = np.zeros(xs.shape)
    if live.size:
        if np.ndim(coupling):
            coupling = np.asarray(coupling, dtype=float)[live, None]
        pts, wts = panel_points(quad, lo[live], hi[live], panels)
        vals = kernel(argument(t, xs[live, None], pts, coupling)) * f(pts)
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

    Exact transform of solve_cauchy: the half-cone offset s maps to
    z in [0, 1], giving the integrand

        J0(2|k| sinh(t/2) sqrt(e^{x+x'} (1 - z^2)))
          * [f(x + s(z)) + f(x - s(z))] * sinh(t/2) / sqrt(1 + z^2 sinh^2(t/2))

    with s(z) = 2 asinh(z sinh(t/2)) and x' = x +/- s(z) in the branch
    that multiplies the matching f term.  The fixed interval makes the
    small-time limit manifest: the integrand tends to f(x) * t.  x is a
    number or a 1-D array, as for solve_cauchy; all positions share the
    fixed nodes.
    """
    quad, x = _positions(t, x, k, quad, panels)
    xs = x[..., None]
    zpts, wts = panel_points(quad, 0.0, 1.0, panels)
    sh = math.sinh(0.5 * t)
    s = 2.0 * np.arcsinh(zpts * sh)
    xp_plus = xs + s
    xp_minus = xs - s
    amp = 2.0 * abs(k) * sh
    one_minus = np.maximum(1.0 - zpts * zpts, 0.0)
    # k = 0 gives z = 0 even where e^{x+x'} overflows; other overflows fail the row check
    with np.errstate(over="ignore", invalid="ignore"):
        z_plus = np.where(amp == 0.0, 0.0, amp * np.sqrt(np.exp(xs + xp_plus) * one_minus))
        z_minus = np.where(amp == 0.0, 0.0, amp * np.sqrt(np.exp(xs + xp_minus) * one_minus))
    jacobian = sh / np.sqrt(1.0 + (zpts * sh) ** 2)
    integrand = (_j0(z_plus) * f(xp_plus) + _j0(z_minus) * f(xp_minus)) * jacobian
    return _finished(t, x, weighted_sum(wts, integrand))


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
