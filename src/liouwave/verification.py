"""Named verification suites with pinned tolerances.

Each suite checks one family of identities and returns worst-case errors;
the command-line ``verify`` command and the acceptance tests both run
these, so there is exactly one definition of every tolerance and sample
set.  Adjudication checks measure that a rejected variant (doubled
normalization, wrong line coupling) misses by the predicted amount.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0 as _sj0, y0 as _sy0

from .errors import ConfigError
from .fd_oracle import DEFAULT_CFL, FDConfig, fd_telegraph_solve, fd_wave_solve
from .hyperbolic import (
    HyperbolicPoint,
    bump_profile_2d,
    disk_kernel_mass,
    hyperbolic_fourier_check,
    hyperbolic_solve,
)
from .kernel import kernel_argument, kernel_argument_partials, pde_residual
from .profiles import BumpProfile
from .propagator import small_time_slope, solve_cauchy, solve_cauchy_regularized, solve_on_grid
from .quadrature import gauss_legendre
from .reductions import (
    ScalingStudy,
    TelegraphParams,
    constant_potential_solve,
    scaling_limit_gap,
    telegraph_solve,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check: worst error against its tolerance."""

    suite: str
    name: str
    max_err: float
    tol: float
    passed: bool
    note: str = ""


def _check(suite: str, name: str, err: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(suite, name, float(err), float(tol), bool(err <= tol), note)


# ---------------------------------------------------------------------------
# canonical sample sets

PARTIALS_TS = np.linspace(0.5, 3.0, 5)
PARTIALS_XS = np.linspace(-1.0, 1.0, 5)
PARTIALS_KS = (0.5, 1.0, 2.0)
CONE_MARGIN = 0.3

FD_DX = 4e-3  # coarse leapfrog mesh of the oracle and telegraph suites; each also runs dx/2

ORACLE_X_TARGETS = np.linspace(-3.0, 3.0, 41)
ORACLE_TIMES = (0.5, 1.0, 2.0)

TELEGRAPH_PAIRS = ((1.0, 1.0), (2.0, 0.0), (0.5, 1.5))
TELEGRAPH_TIMES = (0.5, 1.0)
TELEGRAPH_X_TARGETS = np.linspace(-2.0, 2.0, 41)

SMALL_TIME_XS = np.linspace(-0.75, 0.75, 11)


def _cone_interior_samples():
    """Grid sample of (t, x, x', k) strictly inside the cone with margin, as four arrays."""
    t, x, xp, k = (a.ravel() for a in np.meshgrid(
        PARTIALS_TS, PARTIALS_XS, PARTIALS_XS, PARTIALS_KS, indexing="ij"))
    inside = t - np.abs(x - xp) > CONE_MARGIN
    return t[inside], x[inside], xp[inside], k[inside]


# ---------------------------------------------------------------------------
# suite: closed-form kernel-argument partials vs finite differences

def _five_point(fn, v, h: float):
    """Fourth-order central first and second differences of fn at v."""
    fm2, fm1, f0, fp1, fp2 = (fn(v + j * h) for j in (-2, -1, 0, 1, 2))
    d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
    return d1, d2


def suite_lemma1() -> list[CheckResult]:
    # Fourth-order stencils at h = 1e-3 keep truncation (~h^4) and roundoff
    # (~eps |z| / h^2) near 1e-8, so the checks see the closed forms; a
    # three-point second difference at h = 1e-4 multiplies last-bit noise
    # in z by 1/h^2 = 1e8 and reads roundoff close to the tolerance.
    h = 1e-3
    tol = 1e-6
    t, x, xp, k = _cone_interior_samples()
    p = kernel_argument_partials(t, x, xp, k)
    dx1, dx2 = _five_point(lambda v: kernel_argument(t, v, xp, k), x, h)
    dt1, dt2 = _five_point(lambda v: kernel_argument(v, x, xp, k), t, h)
    gaps = {"d/dx": p.d_x - dx1, "d2/dx2": p.d_xx - dx2,
            "d/dt": p.d_t - dt1, "d2/dt2": p.d_tt - dt2}
    note = f"{t.size} cone-interior grid points, 5-point fourth-order stencils, step {h:g}"
    return [
        _check("lemma1", f"kernel-argument {name} closed form vs central difference",
               np.max(np.abs(gap)), tol, note)
        for name, gap in gaps.items()
    ]


# ---------------------------------------------------------------------------
# suite: the kernel solves the wave equation (both branches, 2nd order)

def _pde_branch_checks(a: float, b: float, branch: str) -> list[CheckResult]:
    h_fine, h_coarse = 1e-3, 1e-2
    tol = 1e-4
    samples = _cone_interior_samples()
    z = kernel_argument(*samples)
    t, x, xp, k = (v[(0.1 <= z) & (z <= 10.0)] for v in samples)
    r_fine = np.abs(pde_residual(t, x, xp, k, a, b, h_fine))
    r_coarse = np.abs(pde_residual(t, x, xp, k, a, b, h_coarse))
    resolved = (r_coarse > 1e-8) & (r_fine > 1e-12)
    order = float(np.median(np.log10(r_coarse[resolved] / r_fine[resolved])))
    return [
        _check("prop2", f"{branch} branch wave-equation residual at h={h_fine:g}",
               np.max(r_fine), tol, f"{t.size} interior points with argument in [0.1, 10]"),
        _check("prop2", f"{branch} branch Richardson order is 2",
               abs(order - 2.0), 0.2, f"median measured order {order:.3f}"),
    ]


def suite_prop2() -> list[CheckResult]:
    return _pde_branch_checks(1.0, 0.0, "first-kind") + _pde_branch_checks(0.0, 1.0, "second-kind")


# ---------------------------------------------------------------------------
# suite: free-wave normalization, small-time limit, raw/regularized identity

def _dalembert_reference(f: BumpProfile, t: float, x: float) -> float:
    """Half the integral of f over the cone (x - t, x + t), by tanh-sinh quadrature.

    The map tau -> tanh(pi/2 sinh tau) packs nodes double-exponentially
    towards both ends, so 205 nodes at step 1/32 on tau in [-3.2, 3.2]
    reach double precision for the bump, flat to all orders at its edges
    (Takahasi & Mori, Publ. RIMS 9, 1974).  It shares nothing with the
    solvers' Gauss-Legendre panels.
    """
    a, b = f.support
    lo, hi = max(x - t, a), min(x + t, b)
    if lo >= hi:
        return 0.0
    tau = np.arange(-102, 103) / 32.0
    u = 0.5 * math.pi * np.sinh(tau)
    weights = (0.5 * math.pi / 32.0) * np.cosh(tau) / np.cosh(u) ** 2
    half = 0.5 * (hi - lo)
    return 0.5 * half * float(np.dot(weights, f(lo + half + half * np.tanh(u))))


def suite_dalembert() -> list[CheckResult]:
    checks = []
    bump = BumpProfile(-1.0, 1.0)
    cases = [(0.5, 0.0), (1.0, 0.3), (2.0, -0.4), (0.7, 0.9)]
    refs = [_dalembert_reference(bump, t, x) for t, x in cases]

    err = 0.0
    ratio_err = 0.0
    for (t, x), ref in zip(cases, refs):
        val = solve_cauchy(0.0, bump, t, x)
        err = max(err, abs(val - ref))
        ratio_err = max(ratio_err, abs(2.0 * val / ref - 2.0))
    checks.append(_check("dalembert", "zero-coupling propagator equals half the cone integral",
                         err, 1e-10, f"{len(cases)} (t, x) cases"))
    checks.append(_check("dalembert", "doubled normalization misses the free-wave value by factor 2",
                         ratio_err, 0.05, "measured ratio of the unit-factor variant to the oracle"))

    err_reg = max(
        abs(solve_cauchy_regularized(0.0, bump, t, x) - ref) for (t, x), ref in zip(cases, refs)
    )
    checks.append(_check("dalembert", "zero-coupling regularized form reduces to the cone average",
                         err_reg, 1e-10))

    t_small = 1e-2
    slope_err = np.max(np.abs(
        small_time_slope(1.0, bump, SMALL_TIME_XS, t_small) - bump(SMALL_TIME_XS)
    ))
    checks.append(_check("dalembert", "small-time slope recovers the initial velocity",
                         slope_err, 1e-4, f"t = {t_small:g}, 11 interior positions"))

    rng = np.random.default_rng(20250810)
    rule = gauss_legendre(32)
    gap = 0.0
    for _ in range(20):
        k = rng.uniform(0.25, 3.0)
        t = rng.uniform(0.2, 2.5)
        x = rng.uniform(-2.0, 2.0)
        gap = max(gap, abs(
            solve_cauchy(k, bump, t, x, rule, 8)
            - solve_cauchy_regularized(k, bump, t, x, rule, 8)
        ))
    checks.append(_check("dalembert", "raw and substituted cone integrals agree",
                         gap, 1e-9, "20 random admissible (k, t, x), order 32, 8 panels"))
    return checks


# ---------------------------------------------------------------------------
# suite: quadrature route vs leapfrog oracle, with mesh-refinement contraction

def _leapfrog_pair(solve, cfg: FDConfig, record_times):
    """Leapfrog fields at cfg's mesh and at half its mesh and step, on the same times.

    solve(cfg, record_times) runs one leapfrog.  The fine run halves the
    coarse grid's spacing, so the grids nest even where dx does not divide
    the domain: coarse node i is fine node 2i.  Its cfl_safety aims
    step_count at 2N - 1/2 for N coarse steps, so the ceiling gives
    exactly 2N whatever the rounding, and the fine step t_final / 2N is
    exactly half the coarse one; the fine run then records the coarse
    run's snapped times.  (4 fine - coarse) / 3 cancels the h^2 error term
    of the pair (Richardson, Phil. Trans. R. Soc. A 210, 1911).
    """
    coarse = solve(cfg, record_times)
    steps = 2 * coarse.attrs["steps"]
    half = 0.5 * (cfg.x_max - cfg.x_min) / (coarse.positions.size - 1)
    fine_cfg = FDConfig(cfg.x_min, cfg.x_max, half, cfg.t_final,
                        cfl_safety=min(cfg.t_final / ((steps - 0.5) * half), 1.0))
    if fine_cfg.step_count() != steps:  # only a coarse step at the CFL limit, rounded over it
        raise ConfigError(f"the leapfrog at dx={half!r} would take {fine_cfg.step_count()} "
                          f"steps, not {steps}; choose a cfl below 1")
    return coarse, solve(fine_cfg, coarse.times)


def _pair_rows(pair, targets, solver, coupling):
    """Coarse, fine and extrapolated leapfrog rows, and the solver's rows, at the nearest nodes.

    The rows are at the pair's record times and at the coarse nodes
    nearest the targets; the solver runs on the unit bump.
    """
    coarse, fine = pair
    idx = np.unique([coarse.position_index(x) for x in targets])
    closed = solve_on_grid(coupling, BumpProfile(-1.0, 1.0), coarse.times,
                           coarse.positions[idx], solver=solver).values
    coarse_vals, fine_vals = coarse.values[:, idx], fine.values[:, 2 * idx]
    return coarse_vals, fine_vals, (4.0 * fine_vals - coarse_vals) / 3.0, closed


def _rel_gap(vals, ref) -> float:
    """Worst over the times of max |vals - ref| relative to max |ref| at that time."""
    gap = np.max(np.abs(vals - ref), axis=1)
    return float(np.max(gap / np.max(np.abs(ref), axis=1)))


def suite_oracle(dx: float = FD_DX, cfl: float = DEFAULT_CFL) -> list[CheckResult]:
    bump = BumpProfile(-1.0, 1.0)
    cfg = FDConfig(x_min=-4.5, x_max=4.5, dx=dx, t_final=2.0, cfl_safety=cfl)
    pair = _leapfrog_pair(
        lambda c, times: fd_wave_solve(lambda x: np.exp(2.0 * x), bump, c, record_times=times),
        cfg, ORACLE_TIMES)
    coarse, fine, extrapolated, quad_vals = _pair_rows(pair, ORACLE_X_TARGETS, solve_cauchy, 1.0)
    err_coarse = _rel_gap(coarse, quad_vals)
    ratio = err_coarse / _rel_gap(fine, quad_vals)
    return [
        _check("oracle", "quadrature matches leapfrog on the standard case",
               err_coarse, 5e-3,
               f"k=1, bump, t in {{0.5, 1, 2}}, 41 positions, dx={dx:g}, cfl {cfl:g}"),
        _check("oracle", "leapfrog error contracts 4x when dx halves",
               abs(ratio - 4.0), 1.0, f"measured contraction {ratio:.2f}"),
        _check("oracle", "quadrature matches the extrapolated leapfrog",
               _rel_gap(extrapolated, quad_vals), 1e-6,
               f"(4 u(dx/2) - u(dx))/3, dx={dx:g}, half the step at dx/2"),
    ]


# ---------------------------------------------------------------------------
# suite: rescaled kernel tends to the constant-potential kernel

def suite_scaling() -> list[CheckResult]:
    study = ScalingStudy(lambdas=(0.5, 0.1, 0.01), k=1.0)
    gaps = scaling_limit_gap(study)
    increase = float(max(0.0, np.max(np.diff(gaps))))
    zero_study = ScalingStudy(lambdas=(0.5, 0.1, 0.01), k=0.0)
    zero_gaps = scaling_limit_gap(zero_study)
    return [
        _check("scaling", "kernel gap at scale 0.01", float(gaps[-1]), 1e-3,
               "gaps " + ", ".join(f"{g:.3e}" for g in gaps)),
        _check("scaling", "kernel gaps nonincreasing as the scale shrinks",
               increase, 0.0),
        _check("scaling", "zero coupling gives identically zero gaps",
               float(np.max(zero_gaps)), 0.0),
    ]


# ---------------------------------------------------------------------------
# suite: transmission line vs damped-wave leapfrog

def suite_telegraph(dx: float = FD_DX, cfl: float = DEFAULT_CFL) -> list[CheckResult]:
    bump = BumpProfile(-1.0, 1.0)
    cfg = FDConfig(x_min=-3.5, x_max=3.5, dx=dx, t_final=max(TELEGRAPH_TIMES), cfl_safety=cfl)
    checks, extrapolated_checks = [], []
    pairs = {}
    for alpha, beta in TELEGRAPH_PAIRS:
        params = TelegraphParams(alpha, beta)
        pairs[alpha, beta] = _leapfrog_pair(
            lambda c, times: fd_telegraph_solve(params, bump, c, record_times=times),
            cfg, TELEGRAPH_TIMES)
        coarse, _, extrapolated, closed = _pair_rows(pairs[alpha, beta], TELEGRAPH_X_TARGETS,
                                                     telegraph_solve, params)
        checks.append(_check(
            "telegraph",
            f"line solution matches damped-wave oracle for alpha={alpha:g}, beta={beta:g}",
            _rel_gap(closed, coarse), 5e-3, f"t in {{0.5, 1}}, 41 positions, dx={dx:g}",
        ))
        extrapolated_checks.append(_check(
            "telegraph",
            f"line solution matches extrapolated oracle for alpha={alpha:g}, beta={beta:g}",
            _rel_gap(closed, extrapolated), 1e-6, f"(4 v(dx/2) - v(dx))/3, dx={dx:g}",
        ))
    # the literal flat-potential reduction: the first-kind kernel with coupling
    # (alpha - beta)^2 / 4, damped by e^{-damping t}
    params = TelegraphParams(2.0, 0.0)
    printed = 0.25 * (params.alpha - params.beta) ** 2
    coarse, _, _, closed = _pair_rows(pairs[2.0, 0.0], TELEGRAPH_X_TARGETS,
                                      constant_potential_solve, printed)
    times = pairs[2.0, 0.0][0].times
    err_printed = _rel_gap(np.exp(-params.damping * times)[:, None] * closed, coarse)
    checks.append(_check(
        "telegraph",
        "literal flat-potential reduction misses the oracle for alpha=2, beta=0",
        max(0.0, 0.05 - err_printed), 0.0,
        f"first-kind kernel with coupling (alpha-beta)^2/4 is off by {err_printed:.3f} relative",
    ))
    return checks + extrapolated_checks


# ---------------------------------------------------------------------------
# suite: hyperbolic disk mass and small-time normalization

def suite_hyperbolic_mass() -> list[CheckResult]:
    checks = []
    err = 0.0
    for t in (0.5, 1.0, 2.0):
        exact = 4.0 * math.sqrt(2.0) * math.pi * math.sinh(0.5 * t)
        err = max(err, abs(disk_kernel_mass(t) - exact))
    checks.append(_check("hyperbolic-mass",
                         "polar quadrature of the singular kernel over the disk",
                         err, 1e-8, "t in {0.5, 1, 2} vs 4 sqrt(2) pi sinh(t/2)"))

    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.0, 1.4)
    t_small = 1e-2
    u = hyperbolic_solve(f, t_small, w)
    fw = float(f(w.x, w.y))
    checks.append(_check("hyperbolic-mass", "small-time slope recovers the initial velocity",
                         abs(u / t_small - fw), 1e-3, f"t = {t_small:g}"))
    checks.append(_check("hyperbolic-mass",
                         "doubled disk constant misses the slope by factor 2",
                         abs(2.0 * u / (t_small * fw) - 2.0), 0.05,
                         "the doubled normalization would break the initial condition"))
    return checks


# ---------------------------------------------------------------------------
# suite: frequency-domain route agrees with the disk propagator

def suite_fourier() -> list[CheckResult]:
    f = bump_profile_2d(-1.0, 1.0, 1.0, 2.0)
    w = HyperbolicPoint(0.0, 1.4)
    t = 1.0
    direct = hyperbolic_solve(f, t, w)
    gaps = {}
    for n_freq in (8, 96):
        via_freq = hyperbolic_fourier_check(f, t, w, n_freq=n_freq)
        gaps[n_freq] = abs(via_freq - direct) / abs(direct)
    far = bump_profile_2d(-1.0, 1.0, math.exp(2.0), math.exp(3.0))
    far_direct = hyperbolic_solve(far, t, w)
    far_freq = hyperbolic_fourier_check(far, t, w)
    return [
        _check("fourier", "frequency route matches the disk propagator",
               gaps[96], 1e-2, "separable bump, t=1, w=(0, 1.4), 96 frequency intervals"),
        _check("fourier", "refinement shrinks the gap at least 10x before the quadrature floor",
               max(0.0, 10.0 * gaps[96] - gaps[8]), 0.0,
               "gaps " + ", ".join(f"{n} intervals: {g:.2e}" for n, g in sorted(gaps.items()))),
        _check("fourier", "support far from the disk gives zero along both routes",
               max(abs(far_direct), abs(far_freq)), 1e-6),
    ]


# ---------------------------------------------------------------------------
# suite: special-function identities

def suite_specfun() -> list[CheckResult]:
    # Second-difference roundoff is ~4 eps |f| / h^2, so h must sit near
    # the eps^(1/4) optimum and the residual is taken in the normalized
    # form f'' + f'/x + f (the x^2-weighted form would amplify pure
    # roundoff past any honest tolerance at x = 20).
    h = 2.0**-13
    x = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    ode_err = 0.0
    for fn in (_sj0, _sy0):
        d1 = (fn(x + h) - fn(x - h)) / (2 * h)
        d2 = (fn(x + h) - 2 * fn(x) + fn(x - h)) / h**2
        ode_err = max(ode_err, np.max(np.abs(d2 + d1 / x + fn(x))))

    hw = 1e-6
    x = np.linspace(0.5, 30.0, 60)
    j0p = (_sj0(x + hw) - _sj0(x - hw)) / (2 * hw)
    y0p = (_sy0(x + hw) - _sy0(x - hw)) / (2 * hw)
    wr_err = np.max(np.abs(_sj0(x) * y0p - j0p * _sy0(x) - 2.0 / (math.pi * x)))

    return [
        _check("specfun", "cylinder-function differential equation residual",
               ode_err, 1e-6,
               "normalized form, both kinds at x in {0.5, 1, 2, 5, 10, 20}, h=2^-13"),
        _check("specfun", "cross-kind Wronskian equals 2/(pi x)",
               wr_err, 1e-8, "60 points on [0.5, 30], h=1e-6"),
    ]


SUITES = {
    "lemma1": suite_lemma1,
    "prop2": suite_prop2,
    "dalembert": suite_dalembert,
    "oracle": suite_oracle,
    "scaling": suite_scaling,
    "telegraph": suite_telegraph,
    "hyperbolic-mass": suite_hyperbolic_mass,
    "fourier": suite_fourier,
    "specfun": suite_specfun,
}


def run_suite(name: str, **overrides) -> list[CheckResult]:
    """Run one suite; overrides reach only suites whose signature accepts them."""
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or 'all'"
        )
    fn = SUITES[name]
    accepted = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in overrides.items() if k in accepted and v is not None}
    return fn(**kwargs)


def run_suites(names, **overrides) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_suite(name, **overrides))
    return results
