"""Wave propagation on the Poincare upper half-plane.

The operator is the Laplace-Beltrami operator plus 1/4; the propagator is
an integral over the geodesic disk of radius t with the inverse-square-root
kernel (cosh t - cosh d)^{-1/2}.  Geodesic polar coordinates plus the
radial substitution q^2 = cosh t - cosh r remove the endpoint singularity
exactly, so fixed-order quadrature converges fast.

A frequency-domain route rebuilds the same solution from one-dimensional
exponential-potential solves.  It checks a different formula, but not
independently: it takes its nodes from panel_points, as the disk integral
does, and its mode values from one solve_cauchy row over the frequencies.
Every mode sits at the same position, so the modes share one node row and
its profile values and differ only in their coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SeparabilityError
from .profiles import FunctionProfile, InitialProfile
from .propagator import DEFAULT_PANELS, _check_rule, _check_time, solve_cauchy
from .quadrature import QuadratureRule, panel_points, weighted_sum

# Normalization of the disk kernel.  The radial integral of the kernel
# against 1 is 2 sqrt(cosh t - 1) exactly, so the disk mass is
# 4 sqrt(2) pi sinh(t/2); the constant below makes the small-time slope
# of the propagator equal f(w), i.e. the initial condition holds.
DISK_KERNEL_NORM = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)

DEFAULT_N_THETA = 64

__all__ = [
    "DISK_KERNEL_NORM",
    "HyperbolicPoint",
    "HyperbolicProfile",
    "geodesic_distance",
    "separable_profile",
    "bump_profile_2d",
    "disk_kernel_mass",
    "hyperbolic_solve",
    "hyperbolic_fourier_check",
]


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point x + iy of the upper half-plane (y > 0 strictly)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0.0):
            raise DomainError(
                f"half-plane points need finite x and y > 0, got ({self.x}, {self.y})"
            )


def geodesic_distance(w: HyperbolicPoint, wp: HyperbolicPoint) -> float:
    """Geodesic distance: arccosh(((x-x')^2 + y^2 + y'^2) / (2 y y')).

    The quotient is clamped to >= 1 against roundoff for near-coincident
    points.
    """
    # grouping keeps the evaluation symmetric in the two points bitwise
    quot = ((w.x - wp.x) ** 2 + (w.y * w.y + wp.y * wp.y)) / (2.0 * w.y * wp.y)
    return math.acosh(max(quot, 1.0))


def _polar_points(w: HyperbolicPoint, r, theta):
    """Half-plane coordinates of the points at geodesic distance r, direction theta.

    Built from the disk-model point tanh(r/2) e^{i theta} pushed through
    the Cayley map (0 -> i) and the similarity taking i to w; both are
    isometries, so the geodesic distance to w is exactly r.  theta = 0
    points straight up (y = y_w e^r).

    With rho = tanh(r/2), the denominator |1 - rho e^{i theta}|^2 is formed
    as (1 - rho)^2 + 4 rho sin^2(theta/2), and 1 - rho as
    2 e^{-r} / (1 + e^{-r}), so nothing cancels as rho nears 1.
    """
    r = np.asarray(r)
    rho = np.tanh(0.5 * r)
    decay = np.exp(-r)
    gap = 2.0 * decay / (1.0 + decay)
    half = np.sin(0.5 * theta)
    denom = gap * gap + 4.0 * rho * half * half
    px = -2.0 * rho * np.sin(theta) / denom
    py = gap * (1.0 + rho) / denom
    return w.x + w.y * px, w.y * py


@dataclass(frozen=True)
class HyperbolicProfile:
    """Compactly supported initial velocity on the half-plane.

    func is a vectorized callable of (x, y); it is clamped to zero outside
    the bounding box.  x_part and y_part, when given, certify the profile
    as the product x_part(x) * y_part(y), which the frequency-domain route
    requires.
    """

    func: object
    box: tuple[float, float, float, float]
    x_part: InitialProfile | None = None
    y_part: InitialProfile | None = None

    def __post_init__(self) -> None:
        x0, x1, y0, y1 = self.box
        if not (x0 < x1 and 0.0 < y0 < y1):
            raise ConfigError(f"invalid support box {self.box}; need x0 < x1, 0 < y0 < y1")

    @property
    def separable(self) -> bool:
        return self.x_part is not None and self.y_part is not None

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x0, x1, y0, y1 = self.box
        out = np.zeros(np.broadcast(x, y).shape)
        inside = (x > x0) & (x < x1) & (y > y0) & (y < y1)
        if np.any(inside):
            xb, yb = np.broadcast_arrays(x, y)
            out[inside] = np.asarray(self.func(xb[inside], yb[inside]), dtype=float)
        return out


def separable_profile(x_part: InitialProfile, y_part: InitialProfile) -> HyperbolicProfile:
    """Product profile x_part(x) * y_part(y); the y support must stay above 0."""
    (x0, x1), (y0, y1) = x_part.support, y_part.support
    if y0 <= 0.0:
        raise ConfigError(f"y support must lie above 0, got [{y0}, {y1}]")
    return HyperbolicProfile(
        func=lambda x, y: x_part(x) * y_part(y),
        box=(x0, x1, y0, y1),
        x_part=x_part,
        y_part=y_part,
    )


def bump_profile_2d(x0: float, x1: float, y0: float, y1: float) -> HyperbolicProfile:
    """Separable product of canonical bumps on [x0, x1] x [y0, y1]."""
    from .profiles import BumpProfile

    return separable_profile(BumpProfile(x0, x1), BumpProfile(y0, y1))


def _radial_nodes(t: float, quad: QuadratureRule, panels: int):
    """Substituted radial nodes: q in (0, Q), r(q), and the factor-2 weights.

    Q = sqrt(cosh t - 1); the kernel times the area element reduces to the
    constant 2 dq, so weights need no kernel factor and integrands in q
    are smooth up to the disk edge and center.
    """
    try:
        cosh_t = math.cosh(t)
    except OverflowError:
        raise DomainError(f"disk rule overflows at t={t} (cosh t)") from None
    q_edge = math.sqrt(2.0) * math.sinh(0.5 * t)
    q, wq = panel_points(quad, 0.0, q_edge, panels)
    cosh_r = np.maximum(cosh_t - q * q, 1.0)
    r = np.arccosh(cosh_r)
    return q, 2.0 * wq, r


def disk_kernel_mass(t: float, quad: QuadratureRule | None = None, panels: int = DEFAULT_PANELS) -> float:
    """Integral of (cosh t - cosh d)^{-1/2} over the geodesic disk of radius t.

    Closed form 4 sqrt(2) pi sinh(t/2); computed here by the same polar
    quadrature the propagator uses, so it doubles as a quadrature test.
    """
    _check_time(t)
    quad = _check_rule(quad, panels)
    _, w2, _ = _radial_nodes(t, quad, panels)
    return 2.0 * math.pi * float(np.sum(w2))


def _check_disk_rule(quad: QuadratureRule | None, panels: int, n_theta: int) -> QuadratureRule:
    """The rule of a disk solve (the default if None), checked with the panel and angle counts."""
    if n_theta < 4:
        raise ConfigError(f"need at least 4 angular nodes, got {n_theta}")
    return _check_rule(quad, panels)


def hyperbolic_solve(
    f: HyperbolicProfile,
    t: float,
    w: HyperbolicPoint,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
    n_theta: int = DEFAULT_N_THETA,
) -> float:
    """Propagator value u(t, w) of the half-plane wave equation.

    u(t, w) = DISK_KERNEL_NORM * integral over the geodesic disk of
    (cosh t - cosh d(w, w'))^{-1/2} f(w') with the hyperbolic area
    element.  Angles use the periodic trapezoid rule (spectral for smooth
    integrands); the radial direction uses the substituted Gauss-Legendre
    nodes.  The profile is evaluated once on the whole (angle x radius)
    node grid.
    """
    _check_time(t)
    quad = _check_disk_rule(quad, panels, n_theta)
    _, w2, r = _radial_nodes(t, quad, panels)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    px, py = _polar_points(w, r, thetas[:, None])
    # a running sum over the per-angle radial sums gives the same value,
    # bit for bit, as adding them one angle at a time
    total = float(np.add.accumulate(weighted_sum(w2, f(px, py)))[-1])
    return DISK_KERNEL_NORM * (2.0 * math.pi / n_theta) * total


def hyperbolic_fourier_check(
    f: HyperbolicProfile,
    t: float,
    w: HyperbolicPoint,
    quad: QuadratureRule | None = None,
    panels: int = DEFAULT_PANELS,
    freq_max: float = 24.0,
    n_freq: int = 96,
) -> float:
    """u(t, w) rebuilt through the frequency domain, for cross-checking.

    Fourier transform in x turns the half-plane equation into a family of
    exponential-potential problems on the line, one per frequency: with
    u-hat = y^{1/2} v and y = e^X, each mode solves the line equation with
    coupling |freq| and data e^{-X/2} f-hat(freq, e^X).  The inverse
    transform is a trapezoid sum over the uniform grid [0, freq_max] with
    n_freq intervals, folded by conjugate symmetry.

    Requires a separable profile; the x factor enters only through its
    Fourier transform, the y factor only through the per-mode data.
    """
    _check_time(t)
    quad = _check_rule(quad, panels)
    if not f.separable:
        raise SeparabilityError(
            "frequency-domain route needs a separable profile x_part(x) * y_part(y)"
        )
    if not (freq_max > 0.0 and n_freq >= 8):
        raise ConfigError("need freq_max > 0 and n_freq >= 8")

    g, h = f.x_part, f.y_part
    gx0, gx1 = g.support
    hy0, hy1 = h.support

    # data profile of the per-frequency line problem, support [ln y0, ln y1]
    line_data = FunctionProfile(
        lambda big_x: np.exp(-0.5 * big_x) * h(np.exp(big_x)),
        math.log(hy0),
        math.log(hy1),
    )
    big_x = math.log(w.y)

    # Fourier transform of the x factor on its support, one oscillatory
    # quadrature per frequency node.  One dot per row: the single matrix-vector
    # product is large enough for OpenBLAS to hand to its worker threads,
    # and about one call in 200 then waits milliseconds for a thread to wake.
    gpts, gwts = panel_points(quad, gx0, gx1, panels)
    gvals = g(gpts)
    freqs = np.linspace(0.0, freq_max, n_freq + 1)
    phases = np.exp(-1j * np.outer(freqs, gpts))
    ghat = weighted_sum(gwts * gvals, phases)

    # one line solve per frequency: all sit at the observation's X, so the
    # modes share one node row and its profile values, a coupling a mode
    mode_values = solve_cauchy(freqs, line_data, t, big_x, quad, panels)
    integrand = np.real(np.exp(1j * freqs * w.x) * ghat) * mode_values
    dk = freq_max / n_freq
    trapezoid = dk * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1]))
    return math.sqrt(w.y) / math.pi * trapezoid
