"""Sampled solution values on a space(-time) grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_finite

PROVENANCES = ("quadrature", "regularized", "fd-oracle", "closed-form")


@dataclass
class SolutionField:
    """Solution samples u(t_i, x_j) with provenance and solver metadata.

    attrs carries solver-specific data (actual dt, running max, final
    leapfrog levels) without widening the type for every producer.
    """

    times: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    provenance: str
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.provenance not in PROVENANCES:
            raise ConfigError(f"unknown provenance {self.provenance!r}")
        if self.values.shape != (len(self.times), len(self.positions)):
            raise ConfigError(
                f"values shape {self.values.shape} does not match "
                f"(times, positions) = ({len(self.times)}, {len(self.positions)})"
            )
        require_finite("SolutionField", times=self.times, positions=self.positions)
        if np.any(np.diff(self.times) < 0.0) or np.any(np.diff(self.positions) <= 0.0):
            raise ConfigError("times must be sorted and positions strictly increasing")
        if len(self.times) and self.times[0] == 0.0 and np.any(self.values[0] != 0.0):
            raise ConfigError("zero initial displacement: the t = 0 row must vanish")

    def position_index(self, x: float) -> int:
        """Index of the grid position nearest to x."""
        return int(np.argmin(np.abs(self.positions - x)))
