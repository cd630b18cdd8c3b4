import math

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad
from scipy.special import i0e

from liouwave import (
    BumpProfile,
    ConfigError,
    DomainError,
    FDConfig,
    ScalingStudy,
    TelegraphParams,
    constant_potential_solve,
    fd_telegraph_solve,
    fd_wave_solve,
    scaling_limit_gap,
    telegraph_solve,
)
from oracles import dalembert_value


def test_constant_potential_zero_coupling_is_dalembert(bump):
    for t, x in [(0.5, 0.0), (1.0, 0.4), (2.0, -0.3)]:
        assert constant_potential_solve(0.0, bump, t, x) == pytest.approx(
            dalembert_value(bump, t, x), abs=1e-10
        )


def test_constant_potential_matches_fd(bump):
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=1e-3, t_final=1.0)
    field = fd_wave_solve(lambda x: np.ones_like(x), bump, cfg)
    t = float(field.times[0])
    idx = [field.position_index(x) for x in np.linspace(-2.0, 2.0, 41)]
    xs = field.positions[idx]
    closed = np.array([constant_potential_solve(1.0, bump, t, float(x)) for x in xs])
    rel = np.max(np.abs(field.values[0, idx] - closed)) / np.max(np.abs(closed))
    assert rel <= 5e-3


def test_constant_potential_continuous_across_cone_edge(bump):
    # the kernel equals 1 on the cone boundary, so the value is continuous
    # as the cone endpoint crosses the support edge
    eps = 1e-9
    lo = constant_potential_solve(1.0, bump, 1.0, 2.0 - eps)
    hi = constant_potential_solve(1.0, bump, 1.0, 2.0 + eps)
    assert hi == 0.0
    assert abs(lo - hi) <= 1e-7


def test_constant_potential_requires_positive_time(bump):
    with pytest.raises(DomainError):
        constant_potential_solve(1.0, bump, 0.0, 0.0)


def test_telegraph_distortionless_is_damped_dalembert(bump):
    params = TelegraphParams(1.0, 1.0)
    for t, x in [(0.5, 0.0), (1.0, 0.3)]:
        expected = math.exp(-t) * dalembert_value(bump, t, x)
        assert telegraph_solve(params, bump, t, x) == pytest.approx(expected, abs=1e-10)


def test_telegraph_no_damping_is_plain_dalembert(bump):
    params = TelegraphParams(0.0, 0.0)
    assert telegraph_solve(params, bump, 1.0, 0.2) == pytest.approx(
        dalembert_value(bump, 1.0, 0.2), abs=1e-10
    )


def test_telegraph_matches_fd_oracle(bump):
    params = TelegraphParams(2.0, 0.0)
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=1e-3, t_final=1.0)
    field = fd_telegraph_solve(params, bump, cfg)
    t = float(field.times[0])
    idx = [field.position_index(x) for x in np.linspace(-2.0, 2.0, 41)]
    xs = field.positions[idx]
    closed = np.array([telegraph_solve(params, bump, t, float(x)) for x in xs])
    rel = np.max(np.abs(field.values[0, idx] - closed)) / np.max(np.abs(field.values[0, idx]))
    assert rel <= 5e-3


def test_literal_flat_potential_reduction_fails_for_unbalanced_line(bump):
    # coupling (alpha - beta)^2 / 4 fed into the first-kind kernel misses
    # the damped-wave oracle badly at alpha=2, beta=0
    params = TelegraphParams(2.0, 0.0)
    printed_coupling = 0.25 * (params.alpha - params.beta) ** 2
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=2e-3, t_final=1.0)
    field = fd_telegraph_solve(params, bump, cfg)
    t = float(field.times[0])
    idx = [field.position_index(x) for x in np.linspace(-2.0, 2.0, 41)]
    xs = field.positions[idx]
    literal = np.array([
        math.exp(-params.damping * t)
        * constant_potential_solve(printed_coupling, bump, t, float(x))
        for x in xs
    ])
    rel = np.max(np.abs(field.values[0, idx] - literal)) / np.max(np.abs(field.values[0, idx]))
    assert rel > 0.05


def test_scaling_gap_spec_point():
    study = ScalingStudy(lambdas=(0.01,), samples=((1.0, 0.2, -0.1),), k=1.0)
    assert scaling_limit_gap(study)[0] <= 1e-3


def test_scaling_gaps_monotone_and_zero_for_zero_coupling():
    gaps = scaling_limit_gap(ScalingStudy(lambdas=(0.5, 0.1, 0.01), k=1.0))
    assert np.all(np.diff(gaps) <= 0.0)
    assert gaps[-1] <= 1e-3
    zero = scaling_limit_gap(ScalingStudy(lambdas=(0.5, 0.1, 0.01), k=0.0))
    assert np.all(zero == 0.0)


def test_scaling_study_validation():
    with pytest.raises(DomainError):
        ScalingStudy(lambdas=(0.5, -0.1))
    with pytest.raises(ConfigError):
        ScalingStudy(lambdas=(0.1, 0.5))
    with pytest.raises(ConfigError):
        ScalingStudy(lambdas=(0.5,), samples=((1.0, 2.0, 0.0),))


def test_telegraph_heavy_damping_is_finite_and_matches_quadrature():
    # e^{-damping t} alone underflows and I0(mass r) alone overflows here
    params = TelegraphParams(2000.0, 0.0)
    f = BumpProfile(-1.0, 1.0)
    t = 1.0
    m, d = params.mass, params.damping
    for x in (0.0, 0.3, -0.5, 0.9):
        value = telegraph_solve(params, f, t, x)
        assert math.isfinite(value) and value > 0.0

        def integrand(xp):
            r = math.sqrt(t * t - (x - xp) ** 2)
            return 0.5 * i0e(m * r) * math.exp(m * r - d * t) * f(xp)

        ref, _ = adaptive_quad(integrand, max(x - t, -1.0), min(x + t, 1.0), points=[x],
                               epsabs=0.0, epsrel=1e-13, limit=400)
        assert value == pytest.approx(ref, rel=1e-9)
