import math
import warnings

import numpy as np
import pytest

from liouwave import (
    DEFAULT_PANELS,
    DISK_KERNEL_NORM,
    DomainError,
    FunctionProfile,
    HyperbolicPoint,
    HyperbolicProfile,
    SeparabilityError,
    bump_profile_2d,
    disk_kernel_mass,
    geodesic_distance,
    hyperbolic_fourier_check,
    hyperbolic_solve,
    solve_cauchy,
)
from liouwave.hyperbolic import DEFAULT_N_THETA, _polar_points, _radial_nodes
from liouwave.quadrature import default_rule, panel_points, weighted_sum
from oracles import translated


def test_distance_examples():
    w = HyperbolicPoint(0.0, 1.0)
    assert geodesic_distance(w, w) == 0.0
    assert geodesic_distance(w, HyperbolicPoint(0.0, 2.0)) == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_distance_symmetric_bitwise_and_positive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = HyperbolicPoint(rng.uniform(-3, 3), rng.uniform(0.2, 5.0))
        b = HyperbolicPoint(rng.uniform(-3, 3), rng.uniform(0.2, 5.0))
        d = geodesic_distance(a, b)
        assert geodesic_distance(b, a) == d
        assert d >= 0.0


def test_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pts = [HyperbolicPoint(rng.uniform(-3, 3), rng.uniform(0.2, 5.0)) for _ in range(3)]
        a, b, c = pts
        assert geodesic_distance(a, c) <= (
            geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-12
        )


def test_polar_points_sit_at_prescribed_distance():
    w = HyperbolicPoint(0.3, 1.7)
    for r in (0.1, 0.9, 2.4):
        for theta in np.linspace(0.0, 2 * math.pi, 9):
            px, py = _polar_points(w, r, float(theta))
            d = geodesic_distance(w, HyperbolicPoint(float(px), float(py)))
            assert d == pytest.approx(r, abs=1e-12)


@pytest.mark.parametrize("t", [1.0, 5.0, 10.0, 19.0])
def test_every_disk_node_sits_at_its_radius_to_a_few_ulps(t):
    """The geodesic distance from w to each node, in 40-digit arithmetic, is its r.

    Below r = 1 the bound is absolute: there the rounding of the node's
    coordinates alone moves the distance by a few ulps of 1, not of r.
    """
    mp = pytest.importorskip("mpmath")
    w = HyperbolicPoint(0.0, 1.4)
    _, _, r = _radial_nodes(t, default_rule(), DEFAULT_PANELS)
    thetas = np.linspace(0.0, 2 * math.pi, DEFAULT_N_THETA, endpoint=False)
    px, py = _polar_points(w, r, thetas[:, None])
    with mp.workdps(40):
        xw, yw = mp.mpf(w.x), mp.mpf(w.y)
        for x, y, radius in zip(px.ravel().tolist(), py.ravel().tolist(), np.tile(r, len(thetas)).tolist()):
            x, y = mp.mpf(x), mp.mpf(y)
            d = mp.acosh(1 + ((x - xw) ** 2 + (y - yw) ** 2) / (2 * y * yw))
            assert abs(d - radius) <= 4 * np.finfo(float).eps * max(radius, 1.0), (t, radius)


@pytest.mark.parametrize("t", [20.0, 40.0])
def test_disk_solve_past_the_tanh_limit_raises_no_warning(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = hyperbolic_solve(bump_profile_2d(-1.0, 1.0, 1.0, 2.0), t, HyperbolicPoint(0.0, 1.4))
    assert math.isfinite(value)


def test_point_validation():
    with pytest.raises(DomainError):
        HyperbolicPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        HyperbolicPoint(0.0, -1.0)


def test_disk_mass_closed_form():
    for t in (0.5, 1.0, 2.0):
        exact = 4.0 * math.sqrt(2.0) * math.pi * math.sinh(0.5 * t)
        assert disk_kernel_mass(t) == pytest.approx(exact, abs=1e-8)


def test_disk_rule_beyond_the_float_range_raises():
    # cosh t overflows above t ~ 710.48
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError, match="t=720.0"):
        disk_kernel_mass(720.0)
    with pytest.raises(DomainError, match="t=720.0"):
        hyperbolic_solve(f, 720.0, HyperbolicPoint(0.0, 1.4))


def test_uniform_velocity_gives_disk_mass_value():
    # f == 1 over the whole disk: u(t, w) = NORM * mass = 2 sinh(t/2)
    ones = HyperbolicProfile(
        func=lambda x, y: np.ones(np.broadcast(x, y).shape),
        box=(-80.0, 80.0, 1e-4, 1e4),
    )
    w = HyperbolicPoint(0.0, 1.4)
    u = hyperbolic_solve(ones, 1.0, w)
    assert u == pytest.approx(2.0 * math.sinh(0.5), abs=1e-10)
    assert u == pytest.approx(1.0421906109874948, abs=1e-10)
    assert DISK_KERNEL_NORM * disk_kernel_mass(1.0) == pytest.approx(u, abs=1e-12)


def test_small_time_slope_recovers_profile():
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.0, 1.4)
    t = 1e-2
    u = hyperbolic_solve(f, t, w)
    assert u / t == pytest.approx(f(w.x, w.y), abs=1e-3)


def test_doubled_norm_breaks_small_time_slope():
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.0, 1.4)
    t = 1e-2
    doubled = 2.0 * hyperbolic_solve(f, t, w)
    assert doubled / t / f(w.x, w.y) == pytest.approx(2.0, abs=0.01)


def test_support_outside_disk_gives_zero():
    f = bump_profile_2d(-1.0, 1.0, math.exp(2.0), math.exp(3.0))
    w = HyperbolicPoint(0.0, 1.0)
    assert hyperbolic_solve(f, 1.0, w) == 0.0


def test_horizontal_translation_invariance():
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.2, 1.3)
    shift = 2.7
    u = hyperbolic_solve(f, 1.0, w)
    u_shift = hyperbolic_solve(translated(f, shift), 1.0, HyperbolicPoint(w.x + shift, w.y))
    assert abs(u - u_shift) <= 1e-10


def test_fourier_route_agrees_with_disk_propagator():
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.0, 1.4)
    direct = hyperbolic_solve(f, 1.0, w)
    via_freq = hyperbolic_fourier_check(f, 1.0, w)
    assert abs(via_freq - direct) / abs(direct) <= 1e-2


def _fourier_route_mode_by_mode(f, t, w, freq_max=24.0, n_freq=96):
    """hyperbolic_fourier_check's sum with one single-coupling solve_cauchy call a mode."""
    quad, panels = default_rule(), DEFAULT_PANELS
    g, h = f.x_part, f.y_part
    line_data = FunctionProfile(lambda big_x: np.exp(-0.5 * big_x) * h(np.exp(big_x)),
                                math.log(h.support[0]), math.log(h.support[1]))
    gpts, gwts = panel_points(quad, *g.support, panels)
    freqs = np.linspace(0.0, freq_max, n_freq + 1)
    ghat = weighted_sum(gwts * g(gpts), np.exp(-1j * np.outer(freqs, gpts)))
    modes = np.array([solve_cauchy(k, line_data, t, math.log(w.y), quad, panels) for k in freqs])
    integrand = np.real(np.exp(1j * freqs * w.x) * ghat) * modes
    dk = freq_max / n_freq
    return math.sqrt(w.y) / math.pi * (dk * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])))


@pytest.mark.parametrize("t, w", [
    (0.05, HyperbolicPoint(0.1, 1.4)),
    (1.0, HyperbolicPoint(0.0, 1.4)),
    (4.0, HyperbolicPoint(-0.7, 1.1)),
    (1.0, HyperbolicPoint(3.5, 0.5)),  # outside the box, the cone in X reaching the support
    (1.0, HyperbolicPoint(0.0, math.exp(-3.0))),  # the cone in X misses the support
])
def test_fourier_route_equals_single_coupling_solves_bitwise(t, w):
    f = bump_profile_2d(-1.0, 1.5, 0.8, 2.6)
    u = hyperbolic_fourier_check(f, t, w)
    assert u == _fourier_route_mode_by_mode(f, t, w)
    assert (u == 0.0) == (w.y < 0.1)


def test_fourier_route_far_support_is_zero_both_ways():
    f = bump_profile_2d(-1.0, 1.0, math.exp(2.0), math.exp(3.0))
    w = HyperbolicPoint(0.0, 1.0)
    assert abs(hyperbolic_solve(f, 1.0, w)) <= 1e-6
    assert abs(hyperbolic_fourier_check(f, 1.0, w)) <= 1e-6


def test_fourier_route_requires_separable_profile():
    blob = HyperbolicProfile(
        func=lambda x, y: np.exp(-(x**2) - (y - 1.5) ** 2),
        box=(-1.0, 1.0, 1.0, 2.0),
    )
    with pytest.raises(SeparabilityError):
        hyperbolic_fourier_check(blob, 1.0, HyperbolicPoint(0.0, 1.4))


def test_time_preconditions():
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.0, 1.4)
    with pytest.raises(DomainError):
        hyperbolic_solve(f, 0.0, w)
    with pytest.raises(DomainError):
        hyperbolic_fourier_check(f, -1.0, w)
