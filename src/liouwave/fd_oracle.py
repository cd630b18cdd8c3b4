"""Explicit leapfrog ground truth for the quadrature propagators.

Brute-force second-order schemes for the 1-D wave equation with an
arbitrary potential and for the damped transmission-line equation.  These
share nothing with the kernel route, which is the point: agreement between
the two is the library's strongest correctness evidence.

Only the numerical light cone is stepped.  The three-point stencil moves
information one cell per step, so at step n a cell more than n cells from
the span of the nonzero startup level u^1 still reads +0.0 in all three
cells it depends on, and the update maps such zeros to exactly +0.0.  Step
n therefore updates the window [lo0 - n, hi0 + n) around that span and
leaves the rest of the domain at the +0.0 the full-domain step would write
there: the result is bitwise the same, at a cost that grows with the cone
instead of the padded domain (Courant, Friedrichs & Lewy, Math. Ann. 1928).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .field import SolutionField
from .profiles import InitialProfile

DEFAULT_CFL = 0.9


@dataclass(frozen=True)
class FDConfig:
    """Truncated-domain leapfrog configuration.

    The domain must pad the initial support by at least t_final + 1 on
    each side: with unit wave speed the Dirichlet boundaries then never
    influence the comparison region.  dt defaults to cfl_safety * dx and
    is snapped so an integer number of steps lands exactly on t_final.
    """

    x_min: float
    x_max: float
    dx: float
    t_final: float
    dt: float | None = None
    cfl_safety: float = DEFAULT_CFL

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ConfigError("x_min must be < x_max")
        if not (0.0 < self.dx < (self.x_max - self.x_min)):
            raise ConfigError(f"dx must be in (0, domain length), got {self.dx}")
        if not (self.t_final > 0.0):
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.dt is not None and not (0.0 < self.dt <= self.cfl_safety * self.dx):
            raise ConfigError(
                f"dt = {self.dt} violates the stability bound "
                f"cfl_safety * dx = {self.cfl_safety * self.dx}"
            )

    def grid(self) -> np.ndarray:
        n = int(round((self.x_max - self.x_min) / self.dx)) + 1
        return np.linspace(self.x_min, self.x_max, n)

    def step_count(self) -> int:
        base = self.dt if self.dt is not None else self.cfl_safety * self.dx
        return max(int(math.ceil(self.t_final / base - 1e-12)), 1)

    def time_step(self) -> float:
        return self.t_final / self.step_count()

    def check_padding(self, f: InitialProfile) -> None:
        a, b = f.support
        if self.x_min > a - self.t_final - 1.0 or self.x_max < b + self.t_final + 1.0:
            raise ConfigError(
                "domain must pad the initial support by t_final + 1 on each side; "
                f"need [{a - self.t_final - 1.0}, {b + self.t_final + 1.0}], "
                f"got [{self.x_min}, {self.x_max}]"
            )


def _leapfrog_update(u_next, u, u_prev, lo, hi, dt, inv_dx2, potential_grid, half_damping,
                     scratch):
    """Write level n+1 on the cells [lo, hi) of u_next from levels n and n-1.

    Computes dt^2 (u_xx - V u) + 2u - u_prev with the three-point
    Laplacian.  Given half_damping = (a+b) dt / 2, it then adds
    half_damping * u_prev and divides by 1 + half_damping: the damping of
    v_tt + (a+b) v_t + ab v = v_xx centered in time, with V = ab.  The
    v_next coefficient 1/dt^2 + (a+b)/(2dt) is positive, so the update is
    always well defined.  Every value is bitwise what a full-domain step
    gives the cell, as the operations and their order are the same.
    scratch is a (2, >= hi - lo) work array.
    """
    c = u[lo:hi]
    acc = u_next[lo:hi]
    twice = scratch[0, : hi - lo]
    work = scratch[1, : hi - lo]
    np.multiply(c, 2.0, out=twice)
    np.subtract(u[lo + 1 : hi + 1], twice, out=acc)
    np.add(acc, u[lo - 1 : hi - 1], out=acc)
    np.multiply(acc, inv_dx2, out=acc)
    np.multiply(potential_grid[lo:hi], c, out=work)
    np.subtract(acc, work, out=acc)
    np.multiply(acc, dt * dt, out=acc)
    np.add(acc, twice, out=acc)
    np.subtract(acc, u_prev[lo:hi], out=acc)
    if half_damping is not None:
        np.multiply(u_prev[lo:hi], half_damping, out=work)
        np.add(acc, work, out=acc)
        np.divide(acc, 1.0 + half_damping, out=acc)


def _snap_record_times(record_times, dt: float, n_steps: int) -> dict[int, float]:
    snapped: dict[int, float] = {}
    for rt in record_times:
        if not (math.isfinite(rt) and rt >= 0.0):
            raise ConfigError(f"record times must be >= 0, got {rt!r}")
        idx = int(round(rt / dt))
        if idx > n_steps:
            raise ConfigError(
                f"record time {rt!r} lies beyond t_final = {n_steps * dt!r} (step {dt!r})"
            )
        snapped[idx] = idx * dt
    return snapped


def _run_leapfrog(f, cfg: FDConfig, record_times, potential_grid,
                  damping_sum: float | None = None) -> SolutionField:
    x = cfg.grid()
    n_cells = len(x)
    dx = float(x[1] - x[0])
    inv_dx2 = 1.0 / (dx * dx)
    n_steps = cfg.step_count()
    dt = cfg.time_step()
    if record_times is None:
        record_times = [cfg.t_final]
    snapped = _snap_record_times(record_times, dt, n_steps)

    half_damping = None if damping_sum is None else 0.5 * damping_sum * dt
    scale = 1.0 if half_damping is None else 1.0 - half_damping
    u_prev = np.zeros_like(x)
    u = dt * scale * f(x)
    spare = np.zeros_like(x)
    scratch = np.empty((2, n_cells))

    # the startup span: the cells of u^1 that are not +0.0 (-0.0 and NaN count)
    live = np.flatnonzero((u != 0.0) | np.signbit(u))
    first, last = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)

    recorded: dict[int, np.ndarray] = {}
    if 0 in snapped:
        recorded[0] = u_prev.copy()
    if 1 in snapped:
        recorded[1] = u.copy()
    cell_updates = 0
    for n in range(1, n_steps):
        u_next = spare
        lo, hi = max(first - n, 1), min(last + n, n_cells - 1)
        if live.size and lo < hi:
            _leapfrog_update(u_next, u, u_prev, lo, hi, dt, inv_dx2, potential_grid,
                             half_damping, scratch)
            cell_updates += hi - lo
        # u^1 may be nonzero on the ends, and its buffer comes back as u^4
        u_next[0] = 0.0
        u_next[-1] = 0.0
        u_prev, u, spare = u, u_next, u_prev
        if n + 1 in snapped:
            recorded[n + 1] = u.copy()

    indices = sorted(recorded)
    return SolutionField(
        times=np.array([snapped[i] for i in indices]),
        positions=x,
        values=np.vstack([recorded[i] for i in indices]),
        provenance="fd-oracle",
        attrs={"dt": dt, "dx": dx, "steps": n_steps, "cell_updates": cell_updates},
    )


def fd_wave_solve(potential, f: InitialProfile, cfg: FDConfig, record_times=None) -> SolutionField:
    """Leapfrog solution of u_tt = u_xx - V(x) u, u(0) = 0, u_t(0) = f.

    Startup u^1 = dt * f(x) is exact to O(dt^3) because u(0) = 0 makes the
    usual half-step correction vanish identically.  The potential is any
    callable of the grid positions; it must be finite on the padded domain.
    """
    cfg.check_padding(f)
    x = cfg.grid()
    v_grid = np.asarray(potential(x), dtype=float)
    if v_grid.ndim == 0:
        v_grid = np.full_like(x, float(v_grid))
    if v_grid.shape != x.shape:
        raise ConfigError(
            f"potential must give one value per grid position, shape {x.shape}; "
            f"got shape {v_grid.shape}"
        )
    if not np.all(np.isfinite(v_grid)):
        raise DomainError("potential must be finite on the whole grid")
    return _run_leapfrog(f, cfg, record_times, v_grid)


def fd_telegraph_solve(params, f: InitialProfile, cfg: FDConfig, record_times=None) -> SolutionField:
    """Leapfrog solution of v_tt + (a+b) v_t + ab v = v_xx, v(0) = 0, v_t(0) = f.

    Damping is discretized centered in time to keep second-order accuracy.
    The startup carries the half-step correction v^1 = dt (1 - (a+b) dt/2) f:
    with damping, v_tt(0) = -(a+b) f does not vanish, and dropping the
    correction would make the whole solution first-order in dt.  For
    a = b = 0 the factor is exactly 1 and the startup matches fd_wave_solve
    bitwise.  params is a TelegraphParams (or anything exposing alpha and
    beta).
    """
    cfg.check_padding(f)
    damping_sum = float(params.alpha + params.beta)
    mass_grid = np.full_like(cfg.grid(), float(params.alpha * params.beta))
    return _run_leapfrog(f, cfg, record_times, mass_grid, damping_sum)
