"""Property tests of the line solvers on random inputs.

The two exact line forms, raw and regularized, integrate only over the
cone intersected with the support, so at order 32 x 8 panels they agree
to the bound of the `dalembert` suite on any bump support, and both are
exactly 0.0 where the cone misses it.  All four line solvers stay finite
where the cone's ends meet the support's edges, and a batched row equals
the single-position solves bitwise.  As k -> 0 the raw form tends to the
d'Alembert average within the bound 1 - J0(z) <= z^2/4, and the
transmission line stays finite for line coefficients up to 1e300.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from liouwave import (  # noqa: E402
    BumpProfile,
    TelegraphParams,
    constant_potential_solve,
    gauss_legendre,
    solve_cauchy,
    solve_cauchy_regularized,
    telegraph_solve,
)

RULE = gauss_legendre(32)


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(-2.0, 1.0),
    width=st.floats(0.3, 2.5),
    k=st.floats(0.0, 3.0),
    t=st.floats(0.01, 2.5),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
)
def test_raw_and_regularized_agree_and_vanish_off_the_cone(a, width, k, t, offsets):
    f = BumpProfile(a, a + width)
    a, b = f.support
    # positions from a distance 1 beyond the cone's reach to the same distance beyond it
    xs = 0.5 * (a + b) + np.array(offsets) * (0.5 * (b - a) + t + 1.0)
    raw = solve_cauchy(k, f, t, xs, RULE, 8)
    reg = solve_cauchy_regularized(k, f, t, xs, RULE, 8)
    assert np.max(np.abs(raw - reg)) <= 1e-9
    outside = (xs + t <= a) | (xs - t >= b)
    assert np.all(raw[outside] == 0.0) and np.all(reg[outside] == 0.0)


def _line_solves(k, beta):
    """(solver, coupling) of the four line solvers."""
    return [
        (solve_cauchy, k),
        (solve_cauchy_regularized, k),
        (constant_potential_solve, k),
        (telegraph_solve, TelegraphParams(k, beta)),
    ]


LINE_INPUTS = dict(
    a=st.floats(-4.0, 3.0),
    width=st.floats(0.3, 4.0),
    t=st.floats(1e-3, 6.0),
    k=st.floats(0.0, 3.0),
    beta=st.floats(0.0, 3.0),
)


@settings(max_examples=100, deadline=None)
@given(**LINE_INPUTS)
def test_cone_ends_at_the_support_edges_give_finite_values(a, width, t, k, beta):
    f = BumpProfile(a, a + width)
    a, b = f.support
    # x = a - t and x = b + t, rounded as floats, and their neighbours: the cone end
    # x + t or x - t then lies within an ulp or so of a support edge, on either side
    ends = np.array([a - t, b + t])
    xs = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    for solve, coupling in _line_solves(k, beta):
        assert np.all(np.isfinite(solve(coupling, f, t, xs)))
        for x in xs:
            assert np.isfinite(solve(coupling, f, t, float(x)))


@settings(max_examples=100, deadline=None)
@given(offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12), **LINE_INPUTS)
def test_batched_rows_equal_single_position_solves(a, width, t, k, beta, offsets):
    f = BumpProfile(a, a + width)
    a, b = f.support
    xs = 0.5 * (a + b) + np.array(offsets) * (0.5 * (b - a) + t + 0.5)
    for solve, coupling in _line_solves(k, beta):
        row = solve(coupling, f, t, xs)
        assert np.array_equal(row, [solve(coupling, f, t, float(x)) for x in xs])


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(-2.0, 1.0),
    width=st.floats(0.3, 2.5),
    k=st.floats(0.0, 1e-3),
    t=st.floats(0.01, 3.0),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
)
def test_small_coupling_stays_within_the_bessel_bound_of_dalembert(a, width, k, t, offsets):
    f = BumpProfile(a, a + width)
    a, b = f.support
    xs = 0.5 * (a + b) + np.array(offsets) * (0.5 * (b - a) + t)
    u0 = solve_cauchy(0.0, f, t, xs)
    gap = np.abs(solve_cauchy(k, f, t, xs) - u0)
    # 1 - J0(z) <= z^2 / 4, and over the cone z^2 / 4 = k^2 e^{x+x'} sinh((t+d)/2) sinh((t-d)/2)
    # <= k^2 e^{x+hi} sinh(t/2)^2 with hi the top of cone and support; the bump is <= 1/e,
    # and the positive Gauss weights of each row sum to the length hi - lo
    lo, hi = np.maximum(xs - t, a), np.minimum(xs + t, b)
    bound = 0.5 * np.maximum(hi - lo, 0.0) * np.exp(-1.0) * (
        k * k * np.exp(xs + hi) * np.sinh(0.5 * t) ** 2)
    assert np.all(gap <= bound + 1e-15 * np.abs(u0))  # plus the two sums' rounding


@settings(max_examples=100, deadline=None)
@example(alpha=1e300, beta=0.0, a=-1.0, width=2.0, t=6.0, offsets=[0.0, 0.5, -0.9])
@example(alpha=1e300, beta=1e300, a=-1.0, width=2.0, t=6.0, offsets=[0.0, 0.5, -0.9])
@example(alpha=0.0, beta=1e300, a=-1.0, width=2.0, t=1e-3, offsets=[0.0])
@given(
    alpha=st.floats(0.0, 1e300),
    beta=st.floats(0.0, 1e300),
    a=st.floats(-4.0, 3.0),
    width=st.floats(0.3, 4.0),
    t=st.floats(1e-3, 6.0),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
)
def test_telegraph_is_finite_for_any_finite_line_coefficients(alpha, beta, a, width, t, offsets):
    f = BumpProfile(a, a + width)
    a, b = f.support
    xs = 0.5 * (a + b) + np.array(offsets) * (0.5 * (b - a) + t + 0.5)
    assert np.all(np.isfinite(telegraph_solve(TelegraphParams(alpha, beta), f, t, xs)))
