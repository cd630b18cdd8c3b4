import numpy as np
import pytest

from liouwave import (
    BumpProfile,
    ConfigError,
    FDConfig,
    TelegraphParams,
    fd_telegraph_solve,
    fd_wave_solve,
)
from liouwave import fd_oracle
from oracles import dalembert_value, leapfrog_full_domain, wave_step


def _free_wave_cfg(dx=2e-3, t_final=1.0):
    return FDConfig(x_min=-3.5, x_max=3.5, dx=dx, t_final=t_final)


def test_free_wave_matches_dalembert(bump):
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=1e-3, t_final=1.0)
    field = fd_wave_solve(lambda x: 0.0 * x, bump, cfg)
    t = float(field.times[0])
    idx = [field.position_index(x) for x in np.linspace(-2.0, 2.0, 41)]
    xs = field.positions[idx]
    ref = np.array([dalembert_value(bump, t, float(x)) for x in xs])
    rel = np.max(np.abs(field.values[0, idx] - ref)) / np.max(np.abs(ref))
    assert rel <= 1e-4


def test_refinement_contracts_error_fourfold(bump):
    errs = []
    for dx in (2e-3, 1e-3):
        cfg = _free_wave_cfg(dx=dx)
        field = fd_wave_solve(lambda x: 0.0 * x, bump, cfg)
        t = float(field.times[0])
        idx = [field.position_index(x) for x in np.linspace(-2.0, 2.0, 41)]
        xs = field.positions[idx]
        ref = np.array([dalembert_value(bump, t, float(x)) for x in xs])
        errs.append(np.max(np.abs(field.values[0, idx] - ref)))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_initial_row_is_zero_and_finite_speed(bump):
    cfg = _free_wave_cfg()
    field = fd_wave_solve(lambda x: np.exp(2.0 * x), bump, cfg, record_times=(0.0, 0.5, 1.0))
    assert field.times[0] == 0.0
    assert np.all(field.values[0] == 0.0)
    dx = field.attrs["dx"]
    for it, t in enumerate(field.times):
        outside = (field.positions < -1.0 - t - 3 * dx) | (field.positions > 1.0 + t + 3 * dx)
        assert np.max(np.abs(field.values[it, outside])) <= 1e-8


def test_stability_bound(bump):
    cfg = _free_wave_cfg()
    dt = cfg.time_step()
    every_step = dt * np.arange(cfg.step_count() + 1)
    field = fd_wave_solve(lambda x: np.exp(2.0 * x), bump, cfg, record_times=every_step)
    assert len(field.times) == cfg.step_count() + 1
    assert np.max(np.abs(field.values)) <= 10.0 * np.exp(-1.0) * cfg.t_final


@pytest.mark.parametrize("solve", [
    lambda cfg, f: fd_wave_solve(lambda x: 0.0 * x, f, cfg),
    lambda cfg, f: fd_telegraph_solve(TelegraphParams(0.5, 1.5), f, cfg),
], ids=["wave", "telegraph"])
def test_leapfrog_attrs_are_the_step_metadata(bump, solve):
    field = solve(_free_wave_cfg(dx=1e-2), bump)
    assert field.attrs.keys() == {"dt", "dx", "steps", "cell_updates"}


def test_cfl_violation_rejected():
    # the step is cfl_safety * dx, so the stability bound dt <= dx is the range (0, 1]
    for cfl_safety in (1.5, 0.0):
        with pytest.raises(ConfigError, match="cfl_safety"):
            FDConfig(x_min=-3.0, x_max=3.0, dx=1e-3, t_final=1.0, cfl_safety=cfl_safety)


def test_insufficient_padding_rejected(bump):
    cfg = FDConfig(x_min=-1.5, x_max=1.5, dx=1e-2, t_final=1.0)
    with pytest.raises(ConfigError):
        fd_wave_solve(lambda x: 0.0 * x, bump, cfg)


def test_non_finite_potential_rejected(bump):
    cfg = _free_wave_cfg()
    with pytest.raises(Exception):
        fd_wave_solve(lambda x: np.where(x > 0, np.inf, 0.0), bump, cfg)


def test_leapfrog_time_reversal(bump):
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=5e-3, t_final=1.0)
    dt = cfg.time_step()
    field = fd_wave_solve(lambda x: np.exp(2.0 * x), bump, cfg,
                          record_times=(cfg.t_final - dt, cfg.t_final))
    assert len(field.times) == 2
    u_prev, u = field.values
    dx = field.attrs["dx"]
    v_grid = np.exp(2.0 * field.positions)
    # the undamped update is symmetric in time: stepping backward from the
    # pair (u^{N-1}, u^N) for N-2 steps must recover the startup level u^1
    back_next, back = u, u_prev
    for _ in range(field.attrs["steps"] - 2):
        back_next, back = back, wave_step(back, back_next, dt, 1.0 / (dx * dx), v_grid)
    u1 = dt * bump(field.positions)
    assert np.max(np.abs(back - u1)) <= 1e-8


def test_telegraph_zero_damping_identical_to_wave(bump):
    cfg = _free_wave_cfg()
    wave = fd_wave_solve(lambda x: 0.0 * x, bump, cfg, record_times=(0.5, 1.0))
    tel = fd_telegraph_solve(TelegraphParams(0.0, 0.0), bump, cfg, record_times=(0.5, 1.0))
    assert np.array_equal(wave.values, tel.values)


def test_telegraph_distortionless_substitution(bump):
    # with alpha = beta = 1 the rescaled line solution e^t v solves the
    # free wave equation
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=1e-3, t_final=1.0)
    wave = fd_wave_solve(lambda x: 0.0 * x, bump, cfg, record_times=(0.5, 1.0))
    tel = fd_telegraph_solve(TelegraphParams(1.0, 1.0), bump, cfg, record_times=(0.5, 1.0))
    for it, t in enumerate(tel.times):
        diff = np.max(np.abs(np.exp(float(t)) * tel.values[it] - wave.values[it]))
        assert diff <= 5e-6


def test_telegraph_params_identities():
    p = TelegraphParams(0.5, 1.5)
    assert p.damping**2 - p.mass**2 == pytest.approx(p.alpha * p.beta, rel=1e-15)
    assert TelegraphParams(2.0, 2.0).mass == 0.0
    with pytest.raises(ConfigError):
        TelegraphParams(-1.0, 0.0)


def test_record_times_snap_to_steps(bump):
    cfg = _free_wave_cfg()
    field = fd_wave_solve(lambda x: 0.0 * x, bump, cfg, record_times=(0.3, 0.7))
    dt = field.attrs["dt"]
    for t in field.times:
        assert abs(t / dt - round(t / dt)) <= 1e-9
    assert abs(field.times[0] - 0.3) <= dt
    assert abs(field.times[1] - 0.7) <= dt


@pytest.mark.parametrize("cfl", [0.1, 0.37, 0.5, 0.9, 0.99, 1.0])
def test_a_step_given_as_dt_over_dx_keeps_its_step_count(cfl):
    # N steps at dx; the same time step at dx / 2, given as cfl_safety = dt / (dx / 2),
    # is 2N steps.  An absolute guard on the ceiling let the ratio's rounding, which
    # grows with the step count, add one: dx = 1.2226e-4, cfl 1 gave 32 719, not 32 718.
    for dx in [1.2226e-4, *np.geomspace(1e-4, 5e-2, 200)]:
        cfg = FDConfig(-4.5, 4.5, dx, 2.0, cfl)
        n = cfg.step_count()
        half = FDConfig(-4.5, 4.5, 0.5 * dx, 2.0, (2.0 / n) / dx)
        assert half.step_count() == 2 * n, (dx, cfl)


class _NonzeroEverywhere:
    """exp(-x^2): nonzero on every node, ends included, despite its nominal support."""

    support = (-1.0, 1.0)

    def __call__(self, x):
        return np.exp(-x * x)


def _exp_potential(x):
    return np.exp(2.0 * x)


_SMALL = FDConfig(x_min=-3.5, x_max=3.5, dx=5e-3, t_final=1.0)
_COARSE = FDConfig(x_min=-3.0, x_max=3.0, dx=1e-2, t_final=1.0)
# the domain is padded by exactly t_final + 1, and with cfl 0.9 the window
# grows faster than the physical cone, so it reaches both Dirichlet ends
_LONG = FDConfig(x_min=-14.0, x_max=14.0, dx=0.05, t_final=12.0)

# (potential or (alpha, beta), profile, config, record times)
_WINDOW_CASES = {
    "exp-potential": (_exp_potential, None, _SMALL, None),
    "zero-potential": (lambda x: 0.0 * x, None, _SMALL, None),
    "constant-potential": (lambda x: 2.0, None, _SMALL, (0.5, 1.0)),
    "telegraph-1-1": ((1.0, 1.0), None, _SMALL, (0.5, 1.0)),
    "telegraph-2-0": ((2.0, 0.0), None, _SMALL, (0.5, 1.0)),
    "telegraph-0.5-1.5": ((0.5, 1.5), None, _SMALL, (0.5, 1.0)),
    "record-0-dt-t_final": (_exp_potential, None, _SMALL, (0.0, _SMALL.time_step(), 1.0)),
    "asymmetric-support": (_exp_potential, BumpProfile(-0.3, 1.7),
                           FDConfig(x_min=-2.8, x_max=4.5, dx=5e-3, t_final=1.5), (0.2, 1.5)),
    "cfl-0.5": (_exp_potential, None,
                FDConfig(x_min=-3.5, x_max=3.5, dx=5e-3, t_final=1.0, cfl_safety=0.5), None),
    "reaches-both-ends": (lambda x: 0.1 * np.exp(0.1 * x), None, _LONG, (0.0, 6.0, 12.0)),
    "reaches-both-ends-telegraph": ((0.5, 1.5), None, _LONG, (6.0, 12.0)),
    "zero-on-every-node": (_exp_potential, BumpProfile(0.0101, 0.0109), _COARSE, (0.0, 1.0)),
    "nonzero-on-every-node": (_exp_potential, _NonzeroEverywhere(), _COARSE, (0.5, 1.0)),
}


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("case", list(_WINDOW_CASES))
def test_light_cone_window_is_bitwise_the_full_domain_loop(bump, case):
    equation, profile, cfg, record_times = _WINDOW_CASES[case]
    profile = profile or bump
    if callable(equation):
        field = fd_wave_solve(equation, profile, cfg, record_times)
        ref = leapfrog_full_domain(profile, cfg, equation(cfg.grid()), None, record_times)
    else:
        alpha, beta = equation
        field = fd_telegraph_solve(TelegraphParams(alpha, beta), profile, cfg, record_times)
        ref = leapfrog_full_domain(profile, cfg, alpha * beta, alpha + beta, record_times)
    times, values = ref
    assert _same_bits(field.times, times)
    assert _same_bits(field.values, values)
    if case == "zero-on-every-node":
        assert not np.any(field.values) and field.attrs["cell_updates"] == 0
    if case.startswith("reaches-both-ends"):
        live = np.flatnonzero(profile(field.positions))
        last_step = field.attrs["steps"] - 1
        assert live[0] - last_step <= 1
        assert live[-1] + 1 + last_step >= len(field.positions) - 1


def test_cell_updates_count_the_window(liouville_fd_field, bump):
    field = liouville_fd_field
    steps, n_cells = field.attrs["steps"], len(field.positions)
    # the bump is positive on one run of nodes, well inside the padding,
    # so step n updates that run widened by n cells on each side
    span = np.count_nonzero(bump(field.positions))
    assert field.attrs["cell_updates"] == sum(span + 2 * n for n in range(1, steps))
    assert field.attrs["cell_updates"] < (steps - 1) * (n_cells - 2)

    everywhere = fd_wave_solve(_exp_potential, _NonzeroEverywhere(), _COARSE)
    steps, n_cells = everywhere.attrs["steps"], len(everywhere.positions)
    assert everywhere.attrs["cell_updates"] == (steps - 1) * (n_cells - 2)


def _no_step(*args):
    raise AssertionError("the leapfrog stepped before rejecting its input")


@pytest.mark.parametrize("potential", [
    lambda x: np.exp(2.0 * x)[:, None],
    lambda x: np.exp(2.0 * x)[:-1],
], ids=["column", "one-short"])
def test_potential_of_wrong_shape_rejected_before_stepping(bump, monkeypatch, potential):
    monkeypatch.setattr(fd_oracle, "_leapfrog_update", _no_step)
    with pytest.raises(ConfigError, match="one value per grid position"):
        fd_wave_solve(potential, bump, _free_wave_cfg())


@pytest.mark.parametrize("solve", [
    lambda f, cfg, rts: fd_wave_solve(lambda x: 0.0 * x, f, cfg, rts),
    lambda f, cfg, rts: fd_telegraph_solve(TelegraphParams(1.0, 1.0), f, cfg, rts),
], ids=["wave", "telegraph"])
def test_record_time_beyond_t_final_rejected_before_stepping(bump, monkeypatch, solve):
    cfg = _free_wave_cfg(dx=1e-2)
    with monkeypatch.context() as patch:
        patch.setattr(fd_oracle, "_leapfrog_update", _no_step)
        with pytest.raises(ConfigError, match="beyond t_final"):
            solve(bump, cfg, [2.0])
    # within half a step of t_final the time still snaps to t_final
    field = solve(bump, cfg, [cfg.t_final + 0.4 * cfg.time_step()])
    assert field.times[0] == cfg.step_count() * cfg.time_step()
