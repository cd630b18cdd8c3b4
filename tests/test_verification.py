import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import liouwave.verification as verification
from liouwave import BumpProfile, FDConfig, TelegraphParams, fd_telegraph_solve, fd_wave_solve
from liouwave.fd_oracle import DEFAULT_CFL
from liouwave.verification import ORACLE_TIMES, TELEGRAPH_PAIRS, run_suite

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("overrides", [{}, {"dx": 4e-3}], ids=["default", "dx-4e-3"])
def test_telegraph_suite_solves_each_leapfrog_once(monkeypatch, overrides):
    calls = []
    solve = verification.fd_telegraph_solve

    def counted(params, f, cfg, record_times=None):
        calls.append((params.alpha, params.beta, cfg.dx))
        return solve(params, f, cfg, record_times)

    monkeypatch.setattr(verification, "fd_telegraph_solve", counted)
    checks = run_suite("telegraph", **overrides)
    dx = overrides.get("dx", verification.FD_DX)
    # one pair per (alpha, beta): the coarse mesh, then half of it
    assert calls == [(alpha, beta, h) for alpha, beta in TELEGRAPH_PAIRS for h in (dx, 0.5 * dx)]
    assert len(checks) == 7 and all(c.passed for c in checks)


def _oracle_pair(dx, cfl):
    bump = BumpProfile(-1.0, 1.0)
    cfg = FDConfig(x_min=-4.5, x_max=4.5, dx=dx, t_final=2.0, cfl_safety=cfl)
    return verification._leapfrog_pair(
        lambda c, times: fd_wave_solve(lambda x: np.exp(2.0 * x), bump, c, record_times=times),
        cfg, ORACLE_TIMES)


@pytest.mark.parametrize("dx, cfl, first_time", [
    (verification.FD_DX, DEFAULT_CFL, 0.5),
    (4e-3, 0.5, 0.5),
    (8e-3, DEFAULT_CFL, 0.50360),  # the step is 2/278: t = 0.5 is half a step from two levels
], ids=["default", "dx-4e-3-cfl-0.5", "dx-8e-3"])
def test_leapfrog_pair_nests_in_space_and_time(dx, cfl, first_time):
    coarse, fine = _oracle_pair(dx, cfl)
    assert coarse.times[0] == pytest.approx(first_time, abs=1e-5)
    assert fine.attrs["steps"] == 2 * coarse.attrs["steps"]
    assert fine.attrs["dt"] == 0.5 * coarse.attrs["dt"]
    assert np.array_equal(fine.times, coarse.times)
    assert np.array_equal(fine.positions[::2], coarse.positions)


def test_leapfrog_pair_nests_where_dx_does_not_divide_the_domain():
    # 7/3e-3 and 7/1.5e-3 round to 2333 and 4667 cells, which do not nest
    bump = BumpProfile(-1.0, 1.0)
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=3e-3, t_final=1.0, cfl_safety=1.0)
    coarse, fine = verification._leapfrog_pair(
        lambda c, times: fd_telegraph_solve(TelegraphParams(1.0, 1.0), bump, c,
                                            record_times=times),
        cfg, (0.5, 1.0))
    assert fine.positions.size == 2 * coarse.positions.size - 1
    assert np.allclose(fine.positions[::2], coarse.positions, rtol=0.0, atol=1e-12)
    assert fine.attrs["steps"] == 2 * coarse.attrs["steps"]
    assert np.array_equal(fine.times, coarse.times)


@pytest.mark.parametrize("dx, cfl", [(1.116086108435023e-4, 0.37), (1.222632104147827e-4, 1.0)])
def test_leapfrog_pair_doubles_the_steps_of_a_fine_mesh(dx, cfl):
    # with ~1e4 coarse steps, cfl_safety = dt / dx lands ulps above 2N in
    # step_count, past its 1e-12 guard; configurations only, no stepping
    configs = []

    def record(c, times):
        configs.append(c)
        return SimpleNamespace(positions=c.grid(), times=np.asarray(times),
                               attrs={"steps": c.step_count(), "dt": c.time_step()})

    cfg = FDConfig(x_min=-4.5, x_max=4.5, dx=dx, t_final=2.0, cfl_safety=cfl)
    verification._leapfrog_pair(record, cfg, ORACLE_TIMES)
    coarse, fine = configs
    assert fine.step_count() == 2 * coarse.step_count()
    assert fine.time_step() == 0.5 * coarse.time_step()
    assert fine.grid().size == 2 * coarse.grid().size - 1


def test_extrapolated_checks_catch_what_the_single_grid_checks_pass(monkeypatch):
    # a 1e-5 relative error in both closed forms is 500x under the single-grid
    # tolerance and 10x over the extrapolated one
    for name in ("solve_cauchy", "telegraph_solve"):
        exact = getattr(verification, name)
        monkeypatch.setattr(verification, name,
                            lambda *args, _exact=exact: (1.0 + 1e-5) * _exact(*args))
    checks = run_suite("oracle") + run_suite("telegraph")
    extrapolated = [c for c in checks if "extrapolated" in c.name]
    single_grid = [c for c in checks if c.tol == 5e-3]
    assert len(extrapolated) == 4 and not any(c.passed for c in extrapolated)
    assert len(single_grid) == 4 and all(c.passed for c in single_grid)


def test_dalembert_reference_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    bump = BumpProfile(-1.0, 1.0)
    for t, x in [(0.5, 0.0), (1.0, 0.3), (2.0, -0.4), (0.7, 0.9), (0.05, -0.97)]:
        lo, hi = max(x - t, -1.0), min(x + t, 1.0)
        exact = 0.5 * mpmath.quad(lambda s: mpmath.exp(-1 / (1 - s * s)), [lo, hi])
        assert verification._dalembert_reference(bump, t, x) == pytest.approx(
            float(exact), rel=1e-14, abs=1e-17)
    assert verification._dalembert_reference(bump, 0.5, 2.0) == 0.0


def test_dalembert_suite_leaves_scipy_integrate_unloaded():
    code = (
        "import sys\n"
        "from liouwave.verification import run_suite\n"
        "assert all(c.passed for c in run_suite('dalembert'))\n"
        "print('scipy.integrate' in sys.modules)"
    )
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _by_partial(checks):
    # "kernel-argument d2/dx2 closed form vs ..." -> "d2/dx2"
    return {c.name.split()[1]: c for c in checks}


def test_lemma1_measures_the_closed_forms_not_roundoff():
    checks = run_suite("lemma1")
    assert sorted(_by_partial(checks)) == ["d/dt", "d/dx", "d2/dt2", "d2/dx2"]
    assert all(c.max_err <= 1e-2 * c.tol for c in checks)


@pytest.mark.parametrize("partial,name", [("d_xx", "d2/dx2"), ("d_tt", "d2/dt2")])
def test_lemma1_fails_on_a_perturbed_second_partial(monkeypatch, partial, name):
    exact = verification.kernel_argument_partials

    def perturbed(*args):
        p = exact(*args)
        return p._replace(**{partial: getattr(p, partial) + 2e-6})

    monkeypatch.setattr(verification, "kernel_argument_partials", perturbed)
    checks = _by_partial(run_suite("lemma1"))
    assert not checks[name].passed
    assert all(c.passed for n, c in checks.items() if n != name)


def test_cone_interior_samples_are_the_nested_loop_grid():
    # the batched suites must see the same points, in the same order, as
    # the nested loop over the canonical sample sets
    loop = [(t, x, xp, k) for t in verification.PARTIALS_TS for x in verification.PARTIALS_XS
            for xp in verification.PARTIALS_XS if t - abs(x - xp) > verification.CONE_MARGIN
            for k in verification.PARTIALS_KS]
    samples = np.array(verification._cone_interior_samples())
    assert samples.shape == (4, len(loop))
    assert np.array_equal(samples, np.transpose(loop))
