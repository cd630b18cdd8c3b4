import math

import numpy as np
import pytest
from scipy.special import j0

from liouwave import (
    DomainError,
    SingularityError,
    kernel_argument,
    kernel_argument_partials,
    pde_residual,
    wave_kernel,
)
from oracles import j0_series


def test_argument_at_origin_pair():
    # cosh t - 1 = 2 sinh^2(t/2), so z(1, 0, 0; 1) = 2 sinh(1/2)
    assert kernel_argument(1.0, 0.0, 0.0, 1.0) == pytest.approx(
        1.0421906109874948, abs=1e-15
    )


def test_argument_vanishes_on_cone_and_for_zero_coupling():
    assert kernel_argument(1.0, 0.3, -0.7, 5.0) == 0.0
    assert kernel_argument(17.0, 2.0, -3.0, 0.0) == 0.0
    # k = 0 wins even outside the cone
    assert kernel_argument(0.1, 4.0, -4.0, 0.0) == 0.0


def test_argument_outside_cone_raises():
    with pytest.raises(DomainError):
        kernel_argument(0.5, 1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        kernel_argument(math.nan, 0.0, 0.0, 1.0)


def test_argument_array_outside_cone_names_first_bad_point():
    xs = np.array([0.0, 0.25, 0.8, 1.5])
    with pytest.raises(DomainError, match=r"point \(t=0\.5, x=0\.8, x'=0\.0\) lies outside"):
        kernel_argument(0.5, xs, 0.0, 1.0)
    with pytest.raises(DomainError, match=r"x=1\.5, x'=0\.2"):
        wave_kernel(np.array([[1.0], [0.5]]), np.array([0.5, 1.5]), 0.2, 1.0)
    assert np.array_equal(kernel_argument(0.5, xs, 0.0, 0.0), np.zeros(4))


def test_numbers_give_floats_and_arrays_give_arrays():
    assert type(kernel_argument(1.0, 0.0, 0.0, 1.0)) is float
    assert type(wave_kernel(1, 0, 0, 1)) is float
    assert type(pde_residual(2.0, 0.0, 0.3, 1.0)) is float
    assert all(type(v) is float for v in kernel_argument_partials(2.0, 0.1, -0.4, 1.5))
    ts, xs = np.array([[1.0], [2.0]]), np.linspace(-0.5, 0.5, 3)
    assert kernel_argument(ts, xs, 0.0, 1.0).shape == (2, 3)
    assert all(v.shape == (2, 3) for v in kernel_argument_partials(ts, xs, 0.0, 1.0))


def test_overflowing_argument_raises_and_zero_coupling_stays_zero():
    # the true z is about 2.3e8, but e^{(x+x')/2} = e^710 overflows
    with pytest.raises(DomainError, match="overflows"):
        kernel_argument(1.0, 710.0, 710.0, 1e-300)
    with pytest.raises(DomainError, match="x=710.0, x'=710.0.* overflows"):
        wave_kernel(1.0, np.array([709.2, 710.0]), 710.0, 1e-300)
    assert kernel_argument(1.0, 710.0, 710.0, 0.0) == 0.0
    assert kernel_argument(1.0, 709.0, 710.0, 1.0) == 0.0  # on the cone
    assert wave_kernel(0.5, 800.0, 700.0, 0.0) == 1.0


def test_argument_symmetries_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, xp = rng.uniform(-2, 2, size=2)
        t = abs(x - xp) + rng.uniform(0.01, 3.0)
        k = rng.uniform(0.1, 4.0)
        z = kernel_argument(t, x, xp, k)
        assert kernel_argument(t, xp, x, k) == z
        assert kernel_argument(-t, x, xp, k) == z
        assert kernel_argument(t, x, xp, -k) == z


def test_argument_zero_on_randomly_constructed_cone_points():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, xp = rng.uniform(-3, 3, size=2)
        t = abs(x - xp)
        if t == 0.0:
            continue
        assert kernel_argument(t, x, xp, rng.uniform(0.1, 5.0)) <= 1e-12


def test_partials_match_central_differences_at_spec_point():
    t, x, xp, k = 2.0, 0.1, -0.4, 1.5
    p = kernel_argument_partials(t, x, xp, k)
    h = 1e-5

    def z(tt, xx):
        return kernel_argument(tt, xx, xp, k)

    assert p.d_x == pytest.approx((z(t, x + h) - z(t, x - h)) / (2 * h), abs=1e-6)
    assert p.d_t == pytest.approx((z(t + h, x) - z(t - h, x)) / (2 * h), abs=1e-6)
    # second differences at h=1e-5 are roundoff-limited near 1e-5; use a
    # balanced step for them
    h2 = 1e-4
    assert p.d_xx == pytest.approx(
        (z(t, x + h2) - 2 * z(t, x) + z(t, x - h2)) / h2**2, abs=1e-6
    )
    assert p.d_tt == pytest.approx(
        (z(t + h2, x) - 2 * z(t, x) + z(t - h2, x)) / h2**2, abs=1e-6
    )


def test_partials_equal_source_position_gives_half_argument_exactly():
    for t, x, k in [(1.0, 0.2, 1.0), (2.5, -0.7, 0.5)]:
        z = kernel_argument(t, x, x, k)
        p = kernel_argument_partials(t, x, x, k)
        assert p.d_x == 0.5 * z


def test_partials_time_product_identity():
    # d_t * z = k^2 e^{x+x'} sinh t, exactly as assembled
    for t in (0.05, 0.3, 1.0, 2.0):
        z = kernel_argument(t, 0.1, 0.1, 1.0)
        p = kernel_argument_partials(t, 0.1, 0.1, 1.0)
        rhs = math.exp(0.2) * math.sinh(t)
        assert p.d_t * z == pytest.approx(rhs, rel=1e-14)


def test_partials_singular_on_cone():
    with pytest.raises(SingularityError):
        kernel_argument_partials(1.0, 0.5, -0.5, 2.0)
    with pytest.raises(SingularityError):
        kernel_argument_partials(1.0, 0.0, 0.5, 0.0)


def test_wave_kernel_first_kind_values():
    assert wave_kernel(1.0, 0.3, -0.7, 5.0) == 1.0  # on the cone, J0(0)
    z = kernel_argument(1.0, 0.0, 0.0, 1.0)
    assert wave_kernel(1.0, 0.0, 0.0, 1.0) == pytest.approx(j0_series(z), abs=1e-14)
    assert wave_kernel(1.0, 0.0, 0.0, 1.0) == j0(z)


def test_wave_kernel_second_kind_singular_on_cone():
    with pytest.raises(SingularityError):
        wave_kernel(1.0, 0.3, -0.7, 5.0, a=0.0, b=1.0)
    val = wave_kernel(2.0, 0.0, 0.3, 1.0, a=0.25, b=-0.5)
    assert math.isfinite(val)


@pytest.mark.parametrize("a, b", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_wave_kernel_rejects_non_finite_weights(a, b):
    with pytest.raises(DomainError):
        wave_kernel(2.0, 0.0, 0.3, 1.0, a=a, b=b)


def test_pde_residual_small_for_both_branches():
    assert abs(pde_residual(2.0, 0.0, 0.3, 1.0, h=1e-3)) <= 1e-4
    assert abs(pde_residual(2.0, 0.0, 0.3, 1.0, a=0.0, b=1.0, h=1e-3)) <= 1e-4


def test_pde_residual_second_order_richardson():
    r_coarse = pde_residual(2.0, 0.0, 0.3, 1.0, h=1e-2)
    r_fine = pde_residual(2.0, 0.0, 0.3, 1.0, h=1e-3)
    ratio = abs(r_coarse / r_fine)
    assert 10.0**1.8 <= ratio <= 10.0**2.2


def test_pde_residual_stencil_must_stay_inside_cone():
    with pytest.raises(DomainError):
        pde_residual(1.0, 0.0, 0.999, 1.0, h=1e-2)
    with pytest.raises(DomainError):
        pde_residual(1.0, 0.0, 0.0, 1.0, h=-1e-3)
