"""Cauchy-problem propagator for the exponential-potential wave equation.

Solves u_tt = u_xx - k^2 e^{2x} u with u(0, x) = 0 and u_t(0, x) = f(x) by
integrating the first-kind kernel against f over the domain of dependence.
Two exact forms are provided: the raw light-cone integral and a
regularized form, substituted so that its integrand stays O(1) as t -> 0.
Both integrate only over the cone intersected with the support of f.  Each
solves one time for a number or a 1-D array of positions, or for a 1-D
array of couplings at one position; both forms and the reductions on the
line share one batched cone-integral row core.
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
# Nodes in one block of a row: each (row x node) float64 temporary stays under
# ~100 KiB, below glibc's default mmap threshold (128 KiB), so the allocator
# reuses its heap instead of faulting fresh pages in on every call.
BLOCK_NODES = 12_800

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


def _line_inputs(t: float, x, k, quad: QuadratureRule | None, panels: int):
    """Checked rule, positions (a 0-d or 1-D float array) and couplings of a line solve.

    k is a number (kept as it is), an array matching x, or, for a number
    x, a 1-D array of couplings at that one position.
    """
    _check_time(t)
    quad = _check_rule(quad, panels)
    require_finite("solve", x=x, k=k)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ConfigError(f"solve takes a number or a 1-D array of positions, got shape {x.shape}")
    if np.ndim(k):
        k = np.asarray(k, dtype=float)
        if k.shape != x.shape and not (x.ndim == 0 and k.ndim == 1):
            raise ConfigError(
                f"solve takes a coupling matching the positions' shape {x.shape}, or a 1-D "
                f"array of couplings at one position, got shape {k.shape}"
            )
    return quad, x, k


def _finished(t: float, x: np.ndarray, u):
    """Row u at positions x (broadcast to u) as a float or an array; non-finite values raise."""
    bad = ~np.isfinite(u)
    if np.any(bad):
        x = np.broadcast_to(x, u.shape)
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


def _support_rows(t, quad, lo, hi, panels):
    """Rule rows: the composite rule on each nonempty offset interval [lo, hi]."""
    live = np.flatnonzero(lo < hi)
    return (live, *panel_points(quad, lo[live], hi[live], panels))


def _regularized_rows(t, quad, lo, hi, panels):
    """Rule rows in z = sinh(s/2) / sinh(t/2), which is odd in s: two a position.

    Row i < n is the branch s >= 0 of position i, row n + i its branch s <= 0.
    With y = z sinh(t/2), s = 2 asinh(y) and ds = 2 sinh(t/2) dz / sqrt(1 + y^2).
    """
    try:
        sh = math.sinh(0.5 * t)
    except OverflowError:
        raise DomainError(f"regularized solve overflows at t={t} (sinh(t/2))") from None
    z_lo = np.sinh(0.5 * np.concatenate([np.maximum(lo, 0.0), lo])) / sh
    z_hi = np.sinh(0.5 * np.concatenate([hi, np.minimum(hi, 0.0)])) / sh
    live = np.flatnonzero(z_lo < z_hi)  # not s_lo < s_hi: a sliver of s can round to one z
    y, wts = panel_points(quad, z_lo[live], z_hi[live], panels)
    y *= sh
    wts *= 2.0 * sh / np.sqrt(1.0 + y * y)
    return live % lo.size, 2.0 * np.arcsinh(y), wts


def _cone_row(t, x, coupling, argument, kernel, f, quad, panels, rule_rows=_support_rows,
              branches=1):
    """(1/2) * integral of kernel(argument(t, x, x', coupling)) f(x') dx' over the cone.

    The integral runs over the cone intersected with the support of f, on
    the rows that rule_rows(t, quad, lo, hi, panels) gives for the offset
    intervals of _cone_offsets: each row's position index, offset nodes
    s = x' - x and weights, at most branches rows a position.  x is a
    number (a float is returned) or a 1-D array, and coupling is a number
    or an array matching x: one value a position.  Or x is a number and
    coupling a 1-D array: one value a coupling, all of them on that
    position's rows.  The values are taken in order, in equal blocks of at
    most ~BLOCK_NODES nodes (values x rows x nodes).  A block builds its
    positions' rows, profile values and the coupling-free factors of the
    argument once, and broadcasts its couplings against them; each row is
    added into its value.  A value does not depend on the block it lies
    in or on the other values, and a value no row reaches is exactly 0.0.
    """
    quad, x, k = _line_inputs(t, x, coupling, quad, panels)
    xs = x.reshape(-1)
    lo, hi = _cone_offsets(t, xs, f.support)
    k_ndim = np.ndim(k)
    coupling_row = x.ndim < k_ndim  # one position, a row of couplings
    shape = k.shape if coupling_row else x.shape
    n = math.prod(shape)
    out = np.zeros(n)
    blocks = max(1, -(-n * branches * panels * quad.order // BLOCK_NODES))
    for b in range(blocks):
        part = slice(b * n // blocks, (b + 1) * n // blocks)
        on = slice(0, 1) if coupling_row else part  # the block's positions
        if not (lo[on] < hi[on]).any():
            continue
        rows, pts, wts = rule_rows(t, quad, lo[on], hi[on], panels)
        rows += on.start
        xl = xs[rows, None]
        pts += xl  # offsets s to nodes x' = x + s
        if coupling_row:  # the block's couplings against the one position's rows
            # rows then index the values: one (coupling x row) grid of them
            kb, rows = k[part, None, None], np.arange(part.start, part.stop)[:, None] + rows
        else:
            kb = k[rows, None] if k_ndim else k
        vals = kernel(argument(t, xl, pts, kb)) * f(pts)
        np.add.at(out, rows, 0.5 * weighted_sum(wts, vals))
    return _finished(t, x, out.reshape(shape))


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
    the array of values.  k is a number, an array matching x, or, for a
    number x, a 1-D array, giving one value a coupling: those share one
    node row, as the modes of the half-plane Fourier route do.
    """
    return _cone_row(t, x, k, sinh_argument, _j0, f, quad, panels)


def solve_cauchy_regularized(
    k,
    f: InitialProfile,
    t: float,
    x,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
):
    """Solution value u(t, x) via the substitution sinh(s/2) = z sinh(t/2).

    Exact transform of solve_cauchy: the signed offset s = x' - x in
    [-t, t] maps to z in [-1, 1], giving the integrand

        J0(kernel_argument(t, x, x', k)) f(x') sinh(t/2) / sqrt(1 + y^2)

    with y = z sinh(t/2) and x' = x + 2 asinh(y).  The branches x' >= x
    and x' <= x are integrated apart, each only over the z interval whose
    x' lie in the support of f, on the row core of solve_cauchy; a branch
    that misses the support adds exactly 0.0.  The integrand tends to
    f(x) * t as t -> 0, which makes the small-time limit manifest.  x and
    k are as for solve_cauchy (k an array matching x, or x a number with
    a 1-D k).
    """
    return _cone_row(t, x, k, sinh_argument, _j0, f, quad, panels, _regularized_rows, 2)


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
