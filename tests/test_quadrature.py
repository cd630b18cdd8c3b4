import numpy as np
import pytest

from liouwave import ConfigError, gauss_legendre, integrate
from liouwave.quadrature import panel_points, weighted_sum


@pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
def test_weights_sum_to_reference_length(order):
    rule = gauss_legendre(order)
    assert abs(np.sum(rule.weights) - 2.0) <= 1e-14


@pytest.mark.parametrize("order", [4, 8, 16, 32])
def test_polynomial_exactness_up_to_degree_2n_minus_1(order):
    rule = gauss_legendre(order)
    for deg in range(2 * order):
        approx = float(np.dot(rule.weights, rule.nodes**deg))
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(approx - exact) <= 1e-13


def test_nodes_strictly_interior_and_symmetric():
    rule = gauss_legendre(16)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=0)


def test_panel_points_partition_interval():
    rule = gauss_legendre(8)
    pts, wts = panel_points(rule, -2.0, 3.0, panels=5)
    assert len(pts) == 40
    assert np.all((pts > -2.0) & (pts < 3.0))
    assert abs(np.sum(wts) - 5.0) <= 1e-13


def test_integrate_smooth_function():
    val = integrate(np.cos, 0.0, np.pi / 2, gauss_legendre(16), panels=2)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_integrate_empty_interval_is_zero():
    assert integrate(np.cos, 1.0, 1.0) == 0.0
    assert integrate(np.cos, 2.0, 1.0) == 0.0


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        gauss_legendre(0)
    rule = gauss_legendre(4)
    with pytest.raises(ConfigError):
        panel_points(rule, 0.0, 1.0, panels=0)
    with pytest.raises(ConfigError):
        panel_points(rule, 1.0, 1.0, panels=1)


def test_panel_points_rows_equal_single_intervals_bitwise():
    rule = gauss_legendre(16)
    rng = np.random.default_rng(4)
    lo = rng.uniform(-3.0, 0.0, 12)
    hi = lo + rng.uniform(1e-3, 4.0, 12)
    pts, wts = panel_points(rule, lo, hi, 8)
    assert pts.shape == wts.shape == (12, 128)
    for i in range(12):
        p, w = panel_points(rule, lo[i], hi[i], 8)
        assert np.array_equal(pts[i], p) and np.array_equal(wts[i], w)
    with pytest.raises(ConfigError):
        panel_points(rule, lo, lo, 8)


def test_weighted_sum_rows_equal_dot_bitwise():
    rng = np.random.default_rng(6)
    wts = rng.uniform(0.0, 1.0, (9, 128))
    vals = rng.standard_normal((9, 128)) * np.exp(rng.uniform(-8.0, 8.0, (9, 128)))
    rows = weighted_sum(wts, vals)
    shared = weighted_sum(wts[0], vals)
    for i in range(9):
        assert rows[i] == np.dot(wts[i], vals[i])
        assert shared[i] == np.dot(wts[0], vals[i])
