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
    """Grid samples with natural cubic interpolation, hard zero outside the support.

    The interpolant is the natural-end cubic spline through the samples
    (scipy's ``CubicSpline(..., bc_type="natural")``), built and evaluated
    here in numpy.  It is zero outside the node span and outside the
    declared support, which defaults to the node span; samples at the
    support endpoints should be zero so the interpolant meets the hard
    clamp continuously.
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
        self.nodes = nodes
        self.values = values
        # interval of each knot; the last knot closes the last interval
        self._ranks = np.minimum(np.arange(len(nodes), dtype=float), len(nodes) - 2)
        self._coefficients = _natural_spline(nodes, values)

    def _interval(self, x) -> np.ndarray:
        """Index i of the knot interval [nodes[i], nodes[i+1]) holding each x, -1 outside the span.

        This is ``searchsorted(nodes, x, side="right") - 1``, except that
        the last knot belongs to the last interval.  np.interp bisects for
        the interval, but its rank can round up to the next one just below
        a knot; one comparison takes that back.
        """
        i = np.interp(x, self.nodes, self._ranks, right=-1.0).astype(np.intp)
        i -= x < self.nodes[i]
        return i

    def _eval_inside(self, x):
        i = self._interval(x)
        s = x - self.nodes[i]
        # Horner's rule in the offset from the interval's left knot; the
        # coefficients' last row is zero, so i = -1 gives exactly 0.0
        c3, c2, c1, c0 = self._coefficients
        out = c3[i]
        out *= s
        out += c2[i]
        out *= s
        out += c1[i]
        out *= s
        out += c0[i]
        return out


def _natural_spline(nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cubic, quadratic, linear and constant coefficients of the natural cubic spline.

    Row i holds interval [nodes[i], nodes[i+1]) in powers of x - nodes[i];
    a last row of zeros follows.  The knot slopes s solve the tridiagonal
    system that CubicSpline builds for natural ends (zero second
    derivative), with h the knot spacings and m the chord slopes:

        2 s[0] + s[1] = 3 m[0]
        h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1] = 3 (h[i] m[i-1] + h[i-1] m[i])
        s[n-2] + 2 s[n-1] = 3 m[n-2]

    The system is strictly diagonally dominant, so one forward and one
    backward sweep (the Thomas algorithm) solve it without pivoting.
    """
    h = np.diff(nodes)
    chord = np.diff(values) / h
    diag = np.concatenate(([2.0], 2.0 * (h[:-1] + h[1:]), [2.0]))
    upper = np.concatenate(([1.0], h[:-1]))   # row i, column i + 1
    lower = np.concatenate((h[1:], [1.0]))    # row i + 1, column i
    rhs = 3.0 * np.concatenate((chord[:1], h[1:] * chord[:-1] + h[:-1] * chord[1:], chord[-1:]))
    # the sweeps run on Python floats: numpy scalars cost several times more a step
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    dk, bk = diag[0], rhs[0]
    d, b = [dk], [bk]
    for lo, up, di, bi in zip(lower, upper, diag[1:], rhs[1:]):
        fact = lo / dk
        dk = di - fact * up
        bk = bi - fact * bk
        d.append(dk)
        b.append(bk)
    sk = bk / dk
    s = [sk]
    for up, di, bi in zip(reversed(upper), reversed(d[:-1]), reversed(b[:-1])):
        sk = (bi - up * sk) / di
        s.append(sk)
    slopes = np.array(s[::-1])
    t = (slopes[:-1] + slopes[1:] - 2.0 * chord) / h
    rows = (t / h, (chord - slopes[:-1]) / h - t, slopes[:-1], values[:-1])
    return tuple(np.append(c, 0.0) for c in rows)


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
