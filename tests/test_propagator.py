import math

import numpy as np
import pytest

from liouwave import (
    BumpProfile,
    ConfigError,
    DomainError,
    FunctionProfile,
    SolutionField,
    TelegraphParams,
    constant_potential_solve,
    gauss_legendre,
    small_time_slope,
    solve_cauchy,
    solve_cauchy_regularized,
    solve_on_grid,
    telegraph_solve,
)
from oracles import dalembert_value


def test_zero_coupling_reproduces_dalembert(bump):
    for t, x in [(0.5, 0.0), (1.0, 0.3), (2.0, -0.4), (0.25, 0.9)]:
        assert solve_cauchy(0.0, bump, t, x) == pytest.approx(
            dalembert_value(bump, t, x), abs=1e-10
        )


def test_unit_factor_variant_fails_dalembert_by_factor_two(bump):
    t, x = 0.5, 0.0
    ref = dalembert_value(bump, t, x)
    literal = 2.0 * solve_cauchy(0.0, bump, t, x)
    assert abs(literal - ref) > 0.9 * abs(ref)
    assert literal / ref == pytest.approx(2.0, abs=1e-9)


def test_disjoint_supports_give_zero(bump):
    assert solve_cauchy(1.0, bump, 0.5, 3.0) == 0.0
    assert solve_cauchy(1.0, bump, 0.5, -9.0) == 0.0


def test_matches_shared_fd_reference(bump, liouville_fd_field):
    field = liouville_fd_field
    targets = np.linspace(-3.0, 3.0, 41)
    for it, t in enumerate(field.times):
        idx = np.array([field.position_index(x) for x in targets])
        xs = field.positions[idx]
        quad = np.array([solve_cauchy(1.0, bump, float(t), float(x)) for x in xs])
        fd = field.values[it, idx]
        rel = np.max(np.abs(fd - quad)) / np.max(np.abs(quad))
        assert rel <= 5e-3


def test_regularized_equals_raw(bump):
    rule = gauss_legendre(32)
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.uniform(0.2, 3.0)
        t = rng.uniform(0.2, 2.5)
        x = rng.uniform(-2.0, 2.0)
        raw = solve_cauchy(k, bump, t, x, rule, 8)
        reg = solve_cauchy_regularized(k, bump, t, x, rule, 8)
        assert abs(raw - reg) <= 1e-9


def test_regularized_splits_at_the_support_edges(bump):
    # at t = 3 the cone outgrows the support, whose edges are kinks of the integrand
    xs = np.linspace(-4.0, 4.0, 41)
    ref = solve_cauchy(1.0, bump, 3.0, xs, gauss_legendre(32), 256)
    reg = solve_cauchy_regularized(1.0, bump, 3.0, xs)
    assert np.max(np.abs(reg - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_regularized_zero_coupling_is_cone_average(bump):
    for t, x in [(0.5, 0.1), (1.5, -0.2)]:
        assert solve_cauchy_regularized(0.0, bump, t, x) == pytest.approx(
            dalembert_value(bump, t, x), abs=1e-10
        )


def test_regularized_value_linear_in_small_time(bump):
    vals = [solve_cauchy_regularized(1.0, bump, t, 0.2) for t in (1e-3, 2e-3, 4e-3)]
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-4)
    assert vals[2] / vals[1] == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize("solve", [
    lambda f, t, x: solve_cauchy(0.0, f, t, x),
    lambda f, t, x: constant_potential_solve(0.0, f, t, x),
    lambda f, t, x: telegraph_solve(TelegraphParams(0.0, 0.0), f, t, x),
], ids=["raw", "constant", "telegraph"])
def test_cone_row_keeps_small_time_accuracy_far_from_the_origin(solve):
    # the cone length 2t must not carry the eps * |x| rounding of (x + t) - (x - t)
    f, t, x = BumpProfile(99.0, 101.0), 1e-6, 100.3
    assert abs(solve(f, t, x) / t - f(x)) <= 1e-12


def test_panel_doubling_contracts_raw_regularized_gap(bump):
    rule = gauss_legendre(16)
    gaps = []
    panels = 1
    while panels <= 64:
        gap = abs(
            solve_cauchy(2.0, bump, 2.0, 0.3, rule, panels)
            - solve_cauchy_regularized(2.0, bump, 2.0, 0.3, rule, panels)
        )
        gaps.append(gap)
        panels *= 2
    for prev, cur in zip(gaps, gaps[1:]):
        if prev <= 1e-10:
            break
        assert cur < prev
    assert min(gaps) <= 1e-10


def test_linearity(bump):
    # same support keeps the quadrature nodes of both solves aligned, so
    # linearity holds to rounding
    other = FunctionProfile(lambda x: np.sin(3.0 * x) * bump(x), -1.0, 1.0)
    a, b = 0.7, -2.3
    combo = FunctionProfile(lambda x: a * bump(x) + b * other(x), -1.0, 1.0)
    t, x, k = 1.2, 0.1, 1.0
    lhs = solve_cauchy(k, combo, t, x)
    rhs = a * solve_cauchy(k, bump, t, x) + b * solve_cauchy(k, other, t, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_linearity_with_mismatched_supports(bump):
    # different supports shift panel edges; agreement is then only at the
    # quadrature-error level
    other = BumpProfile(-0.5, 1.0)
    a, b = 0.7, -2.3
    combo = FunctionProfile(lambda x: a * bump(x) + b * other(x), -1.0, 1.0)
    t, x, k = 1.2, 0.1, 1.0
    lhs = solve_cauchy(k, combo, t, x)
    rhs = a * solve_cauchy(k, bump, t, x) + b * solve_cauchy(k, other, t, x)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_small_time_slope_recovers_profile(bump):
    for x in np.linspace(-0.75, 0.75, 11):
        slope = small_time_slope(1.0, bump, float(x), 1e-2)
        assert slope == pytest.approx(bump(float(x)), abs=1e-4)
    # outside the enlarged support the slope is exactly zero
    assert small_time_slope(1.0, bump, 1.5, 1e-2) == 0.0


def test_small_time_slope_zero_coupling(bump):
    x = 0.3
    assert small_time_slope(0.0, bump, x, 1e-2) == pytest.approx(
        dalembert_value(bump, 1e-2, x) / 1e-2, abs=1e-12
    )


def test_time_and_order_preconditions(bump):
    with pytest.raises(DomainError):
        solve_cauchy(1.0, bump, 0.0, 0.0)
    with pytest.raises(DomainError):
        solve_cauchy(1.0, bump, -1.0, 0.0)
    with pytest.raises(DomainError):
        solve_cauchy_regularized(1.0, bump, -0.5, 0.0)
    with pytest.raises(DomainError):
        small_time_slope(1.0, bump, 0.0, 0.5)
    with pytest.raises(ConfigError):
        solve_cauchy(1.0, bump, 1.0, 0.0, gauss_legendre(4))


def test_solve_on_grid_field_invariants(bump):
    times = [0.0, 0.5, 1.0]
    xs = np.linspace(-3.0, 3.0, 25)
    field = solve_on_grid(1.0, bump, times, xs)
    assert np.all(field.values[0] == 0.0)
    # finite propagation speed: support [-1,1] widened by t
    for it, t in enumerate(times):
        outside = (xs < -1.0 - t) | (xs > 1.0 + t)
        assert np.max(np.abs(field.values[it, outside])) <= 1e-12
    assert field.provenance == "quadrature"



LINE_SOLVERS = {
    "raw": solve_cauchy,
    "regularized": solve_cauchy_regularized,
    "constant": constant_potential_solve,
    "telegraph": lambda k, f, t, x: telegraph_solve(TelegraphParams(1.0, 0.5), f, t, x),
}


@pytest.mark.parametrize("solver", sorted(LINE_SOLVERS))
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.array([0.0, math.nan])])
def test_line_solvers_reject_non_finite_positions(bump, solver, x):
    with pytest.raises(DomainError):
        LINE_SOLVERS[solver](1.0, bump, 1.0, x)


@pytest.mark.parametrize("solver", ["raw", "regularized", "constant"])
@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_line_solvers_reject_non_finite_coupling(bump, solver, k):
    with pytest.raises(DomainError):
        LINE_SOLVERS[solver](k, bump, 1.0, 0.3)


# e^{(x+x')/2} overflows near x + x' = 1420, where the true solution is finite
FAR_BUMP = BumpProfile(709.0, 711.0)


def test_overflowing_kernel_raises_instead_of_nan():
    for solver in (solve_cauchy, solve_cauchy_regularized):
        with pytest.raises(DomainError, match="overflows"):
            solver(1.0, FAR_BUMP, 1.0, 710.0)
        assert solver(1.0, FAR_BUMP, 1.0, 705.0) == 0.0  # the cone (704, 706) misses the support
    with pytest.raises(DomainError, match="x=710.0"):
        solve_cauchy(1.0, FAR_BUMP, 1.0, np.array([705.0, 710.0]))  # 705: cone misses support


def test_zero_coupling_is_finite_where_the_exponential_overflows():
    # k = 0 is d'Alembert's cone average whatever e^{x+x'} is
    average = constant_potential_solve(0.0, FAR_BUMP, 1.0, 710.0)
    assert average == pytest.approx(0.2220, abs=1e-4)
    assert solve_cauchy(0.0, FAR_BUMP, 1.0, 710.0) == average
    assert solve_cauchy_regularized(0.0, FAR_BUMP, 1.0, 710.0) == pytest.approx(average, rel=1e-8)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_on_grid_rejects_non_finite_times(bump, bad):
    with pytest.raises(DomainError):
        solve_on_grid(1.0, bump, [bad, 1.0], np.linspace(-1.0, 1.0, 5))


GRID_SOLVERS = {
    "raw": (solve_cauchy, 1.3),
    "regularized": (solve_cauchy_regularized, 1.3),
    "constant": (constant_potential_solve, 1.3),
    "telegraph": (telegraph_solve, TelegraphParams(1.0, 0.5)),
}


@pytest.mark.parametrize("name", sorted(GRID_SOLVERS))
def test_solve_on_grid_rows_equal_row_solves(bump, name):
    solver, coupling = GRID_SOLVERS[name]
    times = [0.0, 0.4, 1.7]
    xs = np.linspace(-3.0, 3.0, 31)
    field = solve_on_grid(coupling, bump, times, xs, solver=solver)
    assert np.all(field.values[0] == 0.0)
    for it, t in enumerate(times[1:], start=1):
        assert np.array_equal(field.values[it], solver(coupling, bump, t, xs))
    assert field.provenance == ("regularized" if name == "regularized" else "quadrature")


def test_solve_on_grid_returns_times_sorted(bump):
    xs = np.linspace(-3.0, 3.0, 13)
    shuffled = solve_on_grid(1.0, bump, [1.0, 0.0, 0.5], xs)
    ordered = solve_on_grid(1.0, bump, [0.0, 0.5, 1.0], xs)
    assert np.array_equal(shuffled.times, [0.0, 0.5, 1.0])
    assert np.array_equal(shuffled.values, ordered.values)


@pytest.mark.parametrize("config", [{"panels": 0}, {"panels": -2}, {"quad": gauss_legendre(4)}])
def test_solve_on_grid_checks_rule_before_any_row(bump, config):
    with pytest.raises(ConfigError):
        solve_on_grid(1.0, bump, [0.0], np.linspace(-1.0, 1.0, 5), **config)


@pytest.mark.parametrize("times, positions", [
    ([0.0, math.nan], [0.0, 1.0]),
    ([0.0, math.inf], [0.0, 1.0]),
    ([1.0], [0.0, math.nan]),
    ([1.0], [0.0, math.inf]),
])
def test_solution_field_rejects_non_finite_axes(times, positions):
    with pytest.raises(DomainError):
        SolutionField(times, positions, np.zeros((len(times), len(positions))), "quadrature")


def test_line_solve_rejects_two_dimensional_positions(bump):
    with pytest.raises(ConfigError):
        solve_cauchy(1.0, bump, 1.0, np.zeros((2, 3)))
