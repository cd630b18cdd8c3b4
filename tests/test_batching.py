"""Batched line solves against literal one-position-at-a-time loops."""

import numpy as np
import pytest

from liouwave import (
    DEFAULT_PANELS,
    BumpProfile,
    ConfigError,
    DomainError,
    SampledProfile,
    TelegraphParams,
    constant_potential_solve,
    gauss_legendre,
    solve_cauchy,
    solve_cauchy_regularized,
    telegraph_solve,
)
from liouwave import propagator
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
# A row this long runs in several position blocks, the first of them wholly off the cone
MANY_POSITIONS = np.linspace(-12.0, 4.5, 400)


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
    for xs in (POSITIONS, MANY_POSITIONS):
        for t in TIMES:
            row = batched(f, t, xs)
            ref = loop(f, t, xs)
            assert row.shape == xs.shape
            assert np.max(np.abs(row - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_many_positions_span_blocks_the_first_off_the_cone():
    # blocks of the raw row; the regularized row, two rows a position, has at most twice as many
    blocks = -(-MANY_POSITIONS.size * DEFAULT_PANELS * RULE.order // propagator.BLOCK_NODES)
    assert blocks >= 3
    first_block = MANY_POSITIONS[: MANY_POSITIONS.size // (2 * blocks)]
    assert np.all(first_block + max(TIMES) < min(f.support[0] for f in PROFILES.values()))


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


@pytest.mark.parametrize("solve", [solve_cauchy, solve_cauchy_regularized], ids=["raw", "regularized"])
def test_coupling_array_pairs_with_positions(solve):
    f = PROFILES["bump"]
    for xs in (np.linspace(-3.0, 3.5, 27), MANY_POSITIONS):
        ks = np.linspace(0.0, 4.0, xs.size)
        row = solve(ks, f, 1.1, xs, RULE)
        single = [solve(k, f, 1.1, x, RULE) for k, x in zip(ks, xs)]
        assert np.array_equal(row, single)
        assert np.any(row == 0.0) and np.any(row != 0.0)


# name -> solver taking a coupling first; each takes a 1-D coupling row at one position
COUPLING_SOLVERS = {
    "raw": solve_cauchy,
    "regularized": solve_cauchy_regularized,
    "constant": constant_potential_solve,
}
# 400 couplings with zeros among them: 4 blocks of the raw row, 8 of the regularized one
MANY_COUPLINGS = np.concatenate([[0.0], np.linspace(0.0, 24.0, 398), [0.0]])


def test_many_couplings_span_blocks():
    per_coupling = DEFAULT_PANELS * RULE.order
    assert -(-MANY_COUPLINGS.size * per_coupling // propagator.BLOCK_NODES) == 4
    assert -(-MANY_COUPLINGS.size * 2 * per_coupling // propagator.BLOCK_NODES) == 8


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("solver", sorted(COUPLING_SOLVERS))
def test_coupling_row_at_one_position_equals_single_coupling_solves(solver, profile):
    solve = COUPLING_SOLVERS[solver]
    f = PROFILES[profile]
    for ks in (np.array([1.3]), np.linspace(0.0, 4.0, 27), MANY_COUPLINGS):
        for t, x in ((0.35, 0.1), (1.0, -1.4), (2.2, 2.9)):
            row = solve(ks, f, t, x, RULE)
            single = [solve(k, f, t, x, RULE) for k in ks]
            assert type(row) is np.ndarray and row.dtype == np.float64 and row.shape == ks.shape
            assert np.array_equal(row, single)
            assert np.all(row != 0.0)


@pytest.mark.parametrize("solver", sorted(COUPLING_SOLVERS))
def test_coupling_row_where_the_cone_misses_the_support_is_exactly_zero(solver):
    f = PROFILES["bump"]
    for x in (-3.0, 4.0):
        row = COUPLING_SOLVERS[solver](MANY_COUPLINGS, f, 1.0, x, RULE)
        assert row.shape == MANY_COUPLINGS.shape
        assert np.all(row == 0.0) and not np.any(np.signbit(row))


@pytest.mark.parametrize("solver", sorted(COUPLING_SOLVERS))
def test_coupling_row_rejects_a_non_finite_entry(solver):
    for bad in (np.nan, np.inf):
        ks = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(DomainError):
            COUPLING_SOLVERS[solver](ks, PROFILES["bump"], 1.0, 0.2, RULE)


@pytest.mark.parametrize("solver", sorted(COUPLING_SOLVERS))
@pytest.mark.parametrize("k, x", [
    (np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.2])),  # more couplings than positions
    (np.array([0.5]), np.array([0.1, 0.2])),  # fewer couplings than positions
    (np.array([0.5, 1.0]), np.array([0.1])),
    (np.ones((2, 2)), 0.3),  # 2-D couplings at one position
    (np.ones((1, 2)), np.array([0.1, 0.2])),
], ids=["3-for-2", "1-for-2", "2-for-1", "2d-at-number", "2d-at-row"])
def test_coupling_shape_matching_neither_x_nor_a_number_x_raises(solver, k, x):
    with pytest.raises(ConfigError, match="coupling"):
        COUPLING_SOLVERS[solver](k, PROFILES["bump"], 1.0, x, RULE)


def test_empty_coupling_row_gives_an_empty_array():
    row = solve_cauchy(np.array([]), PROFILES["bump"], 1.0, 0.2, RULE)
    assert row.shape == (0,) and row.dtype == np.float64


def test_overflow_in_a_coupling_row_names_the_position():
    far = BumpProfile(709.0, 711.0)  # e^{(x+x')/2} overflows near x + x' = 1420
    with pytest.raises(DomainError, match="x=710.0"):
        solve_cauchy(np.array([0.0, 1.0]), far, 1.0, 710.0)
