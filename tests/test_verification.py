import numpy as np
import pytest

import liouwave.verification as verification
from liouwave.verification import TELEGRAPH_PAIRS, run_suite


@pytest.mark.parametrize("overrides", [{}, {"dx": 4e-3}], ids=["default", "dx-4e-3"])
def test_telegraph_suite_solves_each_leapfrog_once(monkeypatch, overrides):
    calls = []
    solve = verification.fd_telegraph_solve

    def counted(params, f, cfg, record_times=None):
        calls.append((params.alpha, params.beta, cfg.dx))
        return solve(params, f, cfg, record_times)

    monkeypatch.setattr(verification, "fd_telegraph_solve", counted)
    checks = run_suite("telegraph", **overrides)
    dx = overrides.get("dx", 1e-3)
    assert calls == [(alpha, beta, dx) for alpha, beta in TELEGRAPH_PAIRS]
    assert len(checks) == 4 and all(c.passed for c in checks)


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
