"""Explicit wave propagator for the exponential-potential wave operator.

Closed-form light-cone kernels for u_tt = u_xx - k^2 e^{2x} u with zero
initial displacement, quadrature propagators built on them, reductions to
the constant-potential, transmission-line and half-plane wave equations,
and independent finite-difference oracles cross-checking every closed
form.
"""

from .errors import ConfigError, DomainError, SeparabilityError, SingularityError
from .field import SolutionField
from .fd_oracle import DEFAULT_CFL, FDConfig, fd_telegraph_solve, fd_wave_solve
from .hyperbolic import (
    DISK_KERNEL_NORM,
    HyperbolicPoint,
    HyperbolicProfile,
    bump_profile_2d,
    disk_kernel_mass,
    geodesic_distance,
    hyperbolic_fourier_check,
    hyperbolic_solve,
    separable_profile,
)
from .kernel import (
    KernelPartials,
    kernel_argument,
    kernel_argument_partials,
    pde_residual,
    wave_kernel,
)
from .profiles import (
    BumpProfile,
    FunctionProfile,
    InitialProfile,
    SampledProfile,
    read_profile_csv,
    write_profile_csv,
)
from .propagator import (
    DEFAULT_PANELS,
    small_time_slope,
    solve_cauchy,
    solve_cauchy_regularized,
    solve_on_grid,
)
from .quadrature import DEFAULT_QUAD_ORDER, QuadratureRule, gauss_legendre
from .reductions import (
    DEFAULT_SCALING_SAMPLES,
    ScalingStudy,
    TelegraphParams,
    constant_potential_solve,
    scaling_limit_gap,
    telegraph_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BumpProfile",
    "ConfigError",
    "DEFAULT_CFL",
    "DEFAULT_PANELS",
    "DEFAULT_QUAD_ORDER",
    "DEFAULT_SCALING_SAMPLES",
    "DISK_KERNEL_NORM",
    "DomainError",
    "FDConfig",
    "FunctionProfile",
    "HyperbolicPoint",
    "HyperbolicProfile",
    "InitialProfile",
    "KernelPartials",
    "QuadratureRule",
    "SampledProfile",
    "ScalingStudy",
    "SeparabilityError",
    "SingularityError",
    "SolutionField",
    "TelegraphParams",
    "bump_profile_2d",
    "constant_potential_solve",
    "disk_kernel_mass",
    "fd_telegraph_solve",
    "fd_wave_solve",
    "gauss_legendre",
    "geodesic_distance",
    "hyperbolic_fourier_check",
    "hyperbolic_solve",
    "kernel_argument",
    "kernel_argument_partials",
    "pde_residual",
    "read_profile_csv",
    "scaling_limit_gap",
    "separable_profile",
    "small_time_slope",
    "solve_cauchy",
    "solve_cauchy_regularized",
    "solve_on_grid",
    "telegraph_solve",
    "wave_kernel",
    "write_profile_csv",
]
