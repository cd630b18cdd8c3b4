"""Fixed-order Gauss-Legendre rules and composite-panel integration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError

DEFAULT_QUAD_ORDER = 16


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on the reference interval (-1, 1).

    Weights sum to 2 (the reference length) and the rule integrates
    polynomials of degree <= 2*order - 1 exactly.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ConfigError(f"quadrature order must be >= 1, got {self.order}")
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ConfigError("node/weight count must equal the rule order")
        if np.any(self.weights <= 0.0):
            raise ConfigError("Gauss-Legendre weights must be positive")
        if np.any(np.abs(self.nodes) >= 1.0):
            raise ConfigError("Gauss-Legendre nodes must lie strictly inside (-1, 1)")


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order on (-1, 1)."""
    if order < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def default_rule() -> QuadratureRule:
    return gauss_legendre(DEFAULT_QUAD_ORDER)


def panel_points(rule: QuadratureRule, lo, hi, panels: int = 1):
    """Nodes and weights of the composite rule on [lo, hi] split into equal panels.

    Nodes are strictly interior to each panel, so integrands that are
    singular or undefined exactly at lo or hi are never evaluated there.
    lo and hi may also be equal-length 1-D arrays of interval ends (empty
    ones too); the nodes and weights are then one row per interval, each
    bitwise the nodes that interval gets alone.
    """
    if panels < 1:
        raise ConfigError(f"panel count must be >= 1, got {panels}")
    if not np.all(hi > lo):
        raise ConfigError(f"empty integration interval [{lo}, {hi}]")
    edges = np.linspace(lo, hi, panels + 1).T
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = (*np.shape(lo), panels * rule.order)
    pts = (mid[..., None] + half[..., None] * rule.nodes).reshape(shape)
    wts = (half[..., None] * rule.weights).reshape(shape)
    return pts, wts


def weighted_sum(wts, vals):
    """Sum of wts * vals along the last axis, each row added up exactly as np.dot adds it.

    Stacked vector-by-vector products run one BLAS dot per row, so a
    batched row equals the one-at-a-time value bitwise.
    """
    return (vals[..., None, :] @ wts[..., :, None])[..., 0, 0]
