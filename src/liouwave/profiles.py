"""Compactly supported initial-velocity profiles.

Every profile evaluates to exactly 0.0 outside its declared support, which
is what the finite-propagation-speed checks rely on.  Profiles accept
scalars or arrays and return matching shapes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

PROFILE_CSV_HEADER = "X,f"


class InitialProfile:
    """Initial velocity with compact support [a, b]."""

    support: tuple[float, float]

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ConfigError(f"support must be a finite interval, got [{a}, {b}]")
        self.support = (a, b)

    def _eval_inside(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        a, b = self.support
        inside = (arr > a) & (arr < b)
        if inside.all():  # solver nodes: no gather or scatter needed
            out = np.empty_like(arr)
            out[...] = self._eval_inside(arr)
        else:
            out = np.zeros_like(arr)
            if inside.any():
                out[inside] = self._eval_inside(arr[inside])
        return float(out[0]) if scalar else out


class BumpProfile(InitialProfile):
    """Canonical smooth bump exp(-1/(1-s^2)) rescaled to the support interval.

    Infinitely differentiable, identically zero outside [a, b], maximum
    value exp(-1) at the midpoint.
    """

    def _eval_inside(self, x):
        a, b = self.support
        s = (2.0 * x - a - b) / (b - a)
        # within ~eps of an edge s * s rounds to 1, and exp(-inf) = 0 is the limit there
        with np.errstate(divide="ignore"):
            return np.exp(-1.0 / (1.0 - s * s))


class FunctionProfile(InitialProfile):
    """Closed-form profile from a vectorized callable, clamped to [a, b]."""

    def __init__(self, func, a: float, b: float):
        super().__init__(a, b)
        self.func = func

    def _eval_inside(self, x):
        return np.asarray(self.func(x), dtype=float)


class SampledProfile(InitialProfile):
    """Grid samples with cubic interpolation, hard zero outside the support.

    The declared support defaults to the node span; samples at the support
    endpoints should be zero so the interpolant meets the hard clamp
    continuously.
    """

    def __init__(self, nodes, values, support: tuple[float, float] | None = None):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ConfigError("nodes and values must be 1-D arrays of equal length")
        if len(nodes) < 4:
            raise ConfigError("cubic interpolation needs at least 4 samples")
        if not np.all(np.diff(nodes) > 0.0):
            raise ConfigError("sample nodes must be strictly increasing")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise ConfigError("sample nodes and values must be finite")
        if support is None:
            support = (nodes[0], nodes[-1])
        super().__init__(*support)
        from scipy.interpolate import CubicSpline  # lazy: only file: profiles pay its import
        self.nodes = nodes
        self.values = values
        self._spline = CubicSpline(nodes, values, bc_type="natural", extrapolate=False)

    def _eval_inside(self, x):
        out = self._spline(x)
        # support may extend past the node span; the profile is zero there
        return np.nan_to_num(out, nan=0.0)


def write_profile_csv(path, profile_or_nodes, values=None) -> None:
    """Write a two-column sample CSV (header ``X,f``, 17 significant digits).

    Accepts either a SampledProfile or explicit (nodes, values) arrays.
    The formatting round-trips doubles exactly.
    """
    if values is None:
        nodes = profile_or_nodes.nodes
        values = profile_or_nodes.values
    else:
        nodes = np.asarray(profile_or_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PROFILE_CSV_HEADER + "\n")
        for x, f in zip(nodes, values):
            fh.write(f"{x:.17g},{f:.17g}\n")


def _sample_columns(rows) -> tuple[np.ndarray, np.ndarray]:
    """Node and value columns of the data rows, (line number, text) pairs.

    numpy parses the rows at once.  Where it refuses them, they are read
    one at a time as float() reads them, which names the first bad row.
    """
    if rows:
        try:
            table = np.loadtxt([line for _, line in rows], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape[1] == 2:
            nodes, values = table.T.copy()
            return nodes, values
    nodes, values = [], []
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"profile CSV rows need two columns, got {line!r}")
        try:
            x, f = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"profile CSV line {lineno} is not two numbers: {line!r}") from None
        nodes.append(x)
        values.append(f)
    return np.asarray(nodes), np.asarray(values)


def read_profile_csv(path) -> SampledProfile:
    """Read a two-column sample CSV written by write_profile_csv.

    Blank lines and lines starting with # are skipped; the first other
    line is the header.  The support is inferred from the first and last
    nonzero samples, widened by one sample on each side where available
    so the support endpoints carry zero values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    rows = [(lineno, line) for lineno, line in enumerate(lines, 1) if line and line[0] != "#"]
    if rows and rows[0][1].replace(" ", "") != PROFILE_CSV_HEADER:
        raise ConfigError(
            f"profile CSV must start with header '{PROFILE_CSV_HEADER}', got {rows[0][1]!r}"
        )
    nodes, values = _sample_columns(rows[1:])
    nonzero = np.nonzero(values)[0]
    if len(nonzero) == 0:
        raise ConfigError("profile CSV contains no nonzero samples")
    first = max(nonzero[0] - 1, 0)
    last = min(nonzero[-1] + 1, len(nodes) - 1)
    return SampledProfile(nodes, values, support=(nodes[first], nodes[last]))
