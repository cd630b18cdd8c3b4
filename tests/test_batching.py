"""Batched line solves against literal one-position-at-a-time loops."""

import numpy as np
import pytest

from liouwave import (
    BumpProfile,
    SampledProfile,
    TelegraphParams,
    constant_potential_solve,
    gauss_legendre,
    solve_cauchy,
    solve_cauchy_regularized,
    telegraph_solve,
)
from oracles import (
    cone_row_per_point,
    flat_kernel,
    regularized_row_per_point,
    sinh_kernel,
    telegraph_kernel,
)

RULE = gauss_legendre(16)
POSITIONS = np.linspace(-4.0, 4.5, 69)
TIMES = (0.35, 1.0, 2.2)


def _sampled():
    nodes = np.linspace(-1.3, 1.1, 49)
    values = np.sin(2.0 * nodes + 0.4) * (1.3 - nodes) * (1.1 - nodes) * (nodes + 1.3)
    return SampledProfile(nodes, values)


PROFILES = {"bump": BumpProfile(-0.9, 1.2), "sampled": _sampled()}

# name -> (batched row, per-position reference), both as functions of (f, t, xs)
SOLVERS = {
    "raw": (
        lambda f, t, xs: solve_cauchy(1.3, f, t, xs, RULE),
        lambda f, t, xs: cone_row_per_point(sinh_kernel(1.3, t), f, t, xs, RULE),
    ),
    "regularized": (
        lambda f, t, xs: solve_cauchy_regularized(1.3, f, t, xs, RULE),
        lambda f, t, xs: regularized_row_per_point(1.3, f, t, xs, RULE),
    ),
    "constant": (
        lambda f, t, xs: constant_potential_solve(2.1, f, t, xs, RULE),
        lambda f, t, xs: cone_row_per_point(flat_kernel(2.1, t), f, t, xs, RULE),
    ),
    "telegraph": (
        lambda f, t, xs: telegraph_solve(TelegraphParams(2.5, 0.4), f, t, xs, RULE),
        lambda f, t, xs: cone_row_per_point(telegraph_kernel(2.5, 0.4, t), f, t, xs, RULE),
    ),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_batched_row_matches_per_point_loop(solver, profile):
    batched, loop = SOLVERS[solver]
    f = PROFILES[profile]
    for t in TIMES:
        row = batched(f, t, POSITIONS)
        ref = loop(f, t, POSITIONS)
        assert row.shape == POSITIONS.shape
        assert np.max(np.abs(row - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_points_outside_cone_and_support_are_exactly_zero(solver):
    batched, _ = SOLVERS[solver]
    f = PROFILES["bump"]
    a, b = f.support
    for t in TIMES:
        row = batched(f, t, POSITIONS)
        outside = (POSITIONS + t <= a) | (POSITIONS - t >= b)
        assert outside.any() and not outside.all()
        assert np.all(row[outside] == 0.0)
        assert not np.any(np.signbit(row[outside]))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_scalar_position_returns_python_float(solver):
    batched, _ = SOLVERS[solver]
    f = PROFILES["bump"]
    for x in (0.2, np.float64(0.2), 7.5):
        value = batched(f, 1.0, x)
        assert type(value) is float
    assert batched(f, 1.0, 0.2) == batched(f, 1.0, np.array([0.2]))[0]


def test_coupling_array_pairs_with_positions():
    f = PROFILES["bump"]
    xs = np.linspace(-3.0, 3.5, 27)
    ks = np.linspace(0.0, 4.0, xs.size)
    row = solve_cauchy(ks, f, 1.1, xs, RULE)
    single = [solve_cauchy(k, f, 1.1, x, RULE) for k, x in zip(ks, xs)]
    assert np.array_equal(row, single)
    assert np.any(row == 0.0) and np.any(row != 0.0)
