"""Independent references and the correctness gate of the benchmark.

Nothing here imports liouwave.  Every value is computed from the
mathematical definition of what a command returns:

- line solves: ``scipy.integrate.quad`` of the literal kernel against a
  bump over the cone, confirmed by a dense composite Gauss-Legendre rule;
  against a sampled profile (a cubic spline rebuilt here from the samples),
  Gauss-Legendre on every knot interval, confirmed at a higher order;
- the light-cone kernel: J0 of the sinh-product argument, NaN strictly
  outside the closed cone;
- half-plane solves: a high-resolution geodesic-polar quadrature whose
  points are placed by an SL(2, R) rotation about the observation point,
  confirmed by refining both directions.

Run as ``reference.py JOBS.json OUT.json`` it reads a list of jobs and
writes one list of reference values per job, so the benchmark computes its
references in processes that never load the code under test.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import i0, j0

# Stated accuracies: largest |error| over a command's outputs as a share
# of its largest |reference| value.
LINE_ACCURACY = 1e-6
HALF_PLANE_ACCURACY = 1e-3
FOURIER_ACCURACY = 1e-2

# A reference is trusted only if its second means agrees this closely.
LINE_CONFIRM = 1e-8
HALF_PLANE_CONFIRM = 1e-7

DISK_NORM = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)


class ReferenceFailure(RuntimeError):
    """A reference failed its own confirmation; no verdict can be given."""


# ---------------------------------------------------------------------------
# profiles


def bump(a: float, b: float, x):
    """Canonical bump exp(-1/(1-s^2)) on (a, b), exactly zero elsewhere."""
    x = np.asarray(x, dtype=float)
    s = (2.0 * x - a - b) / (b - a)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(x)
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


class NaturalSpline:
    """Natural cubic spline through (nodes, values), built from its tridiagonal system.

    Zero outside [lo, hi]; the interior knots are returned so quadrature can
    split where the third derivative jumps.
    """

    def __init__(self, nodes, values, lo: float, hi: float):
        x = np.asarray(nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        n = len(x)
        h = np.diff(x)
        # second derivatives m_0 = m_{n-1} = 0; Thomas algorithm on the rest
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
        sub = h[1:-1].copy()
        for i in range(1, n - 2):
            w = sub[i - 1] / diag[i - 1]
            diag[i] -= w * h[i]
            rhs[i] -= w * rhs[i - 1]
        m_inner = np.zeros(n - 2)
        for i in range(n - 3, -1, -1):
            nxt = m_inner[i + 1] if i + 1 < n - 2 else 0.0
            m_inner[i] = (rhs[i] - h[i + 1] * nxt) / diag[i]
        self.x, self.y, self.h = x, y, h
        self.m = np.concatenate(([0.0], m_inner, [0.0]))
        self.lo, self.hi = float(lo), float(hi)

    def knots(self, lo: float, hi: float) -> list[float]:
        return [float(v) for v in self.x if lo < v < hi]

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        out = np.zeros_like(xq)
        inside = (xq > self.lo) & (xq < self.hi)
        xi = xq[inside]
        i = np.clip(np.searchsorted(self.x, xi, side="right") - 1, 0, len(self.h) - 1)
        h = self.h[i]
        a = self.x[i + 1] - xi
        b = xi - self.x[i]
        out[inside] = (
            self.m[i] * a**3 / (6.0 * h)
            + self.m[i + 1] * b**3 / (6.0 * h)
            + (self.y[i] / h - self.m[i] * h / 6.0) * a
            + (self.y[i + 1] / h - self.m[i + 1] * h / 6.0) * b
        )
        return out


def sampled_support(nodes, values) -> tuple[float, float]:
    """First and last nonzero samples, widened by one sample where possible."""
    nz = np.nonzero(np.asarray(values))[0]
    first = max(int(nz[0]) - 1, 0)
    last = min(int(nz[-1]) + 1, len(nodes) - 1)
    return float(nodes[first]), float(nodes[last])


class Bump:
    """The bump on (a, b), vectorized and on one scalar (for quad)."""

    def __init__(self, a: float, b: float):
        self.a, self.b = float(a), float(b)

    def __call__(self, x):
        return bump(self.a, self.b, x)

    def scalar(self, s: float) -> float:
        u = (2.0 * s - self.a - self.b) / (self.b - self.a)
        return math.exp(-1.0 / (1.0 - u * u)) if -1.0 < u < 1.0 else 0.0


def make_profile(spec: dict):
    """(callable, support, knot lister or None) for a profile spec."""
    if spec["type"] == "bump":
        return Bump(spec["a"], spec["b"]), (float(spec["a"]), float(spec["b"])), None
    if spec["type"] == "samples":
        lo, hi = sampled_support(spec["nodes"], spec["values"])
        spline = NaturalSpline(spec["nodes"], spec["values"], lo, hi)
        return spline, (lo, hi), spline.knots
    raise ValueError(f"unknown profile type {spec['type']!r}")


# ---------------------------------------------------------------------------
# line kernels, as functions of (t, x, source positions)


def exp_argument(k: float, t: float, x: float, xp):
    """2|k| e^{(x+x')/2} sqrt(sinh((t+d)/2) sinh((t-d)/2)), d = x - x'."""
    xp = np.asarray(xp, dtype=float)
    d = x - xp
    prod = np.sinh(0.5 * (t + d)) * np.sinh(0.5 * (t - d))
    return 2.0 * abs(k) * np.exp(0.5 * (x + xp)) * np.sqrt(np.maximum(prod, 0.0))


def line_kernel(job: dict):
    """Vectorized kernel K(t, x, x') with u(t, x) = integral of K f over the cone."""
    kind = job["kind"]
    if kind == "exp":
        k = job["k"]
        return lambda t, x, xp: 0.5 * j0(exp_argument(k, t, x, xp))
    if kind == "const":
        k = abs(job["k"])
        return lambda t, x, xp: 0.5 * j0(k * np.sqrt(np.maximum(t * t - (x - xp) ** 2, 0.0)))
    if kind == "telegraph":
        damping, mass = _telegraph_constants(job)
        return lambda t, x, xp: 0.5 * math.exp(-damping * t) * i0(
            mass * np.sqrt(np.maximum(t * t - (x - xp) ** 2, 0.0))
        )
    raise ValueError(f"unknown line kernel {kind!r}")


def scalar_kernel(job: dict):
    """The same kernel on one source position with math-module arithmetic, for quad."""
    kind = job["kind"]
    if kind == "exp":
        k2 = 2.0 * abs(job["k"])

        def kern(t, x, s):
            d = x - s
            prod = math.sinh(0.5 * (t + d)) * math.sinh(0.5 * (t - d))
            return 0.5 * float(j0(k2 * math.exp(0.5 * (x + s)) * math.sqrt(max(prod, 0.0))))
    elif kind == "const":
        k = abs(job["k"])

        def kern(t, x, s):
            return 0.5 * float(j0(k * math.sqrt(max(t * t - (x - s) ** 2, 0.0))))
    else:
        damping, mass = _telegraph_constants(job)

        def kern(t, x, s):
            r = math.sqrt(max(t * t - (x - s) ** 2, 0.0))
            return 0.5 * math.exp(-damping * t) * float(i0(mass * r))
    return kern


def _telegraph_constants(job: dict) -> tuple[float, float]:
    alpha, beta = job["alpha"], job["beta"]
    return 0.5 * (alpha + beta), 0.5 * abs(alpha - beta)


def _max_argument(job: dict, t: float, x: float, lo: float, hi: float) -> float:
    """Largest kernel argument on [lo, hi], which sets the oscillation count."""
    if job["kind"] == "exp":
        return float(np.max(exp_argument(job["k"], t, x, np.linspace(lo, hi, 257))))
    if job["kind"] == "const":
        return abs(job["k"]) * t
    return 0.0


def _gauss_legendre(breaks, per_unit: float, order: int):
    """Composite Gauss-Legendre nodes and weights between consecutive breaks.

    Each gap between breaks gets at least one panel and about per_unit
    panels per unit length.
    """
    breaks = np.asarray(breaks, dtype=float)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    counts = np.maximum(1, np.ceil(np.diff(breaks) * per_unit).astype(int))
    gap = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(len(gap)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = (breaks[1:] - breaks[:-1])[gap] / counts[gap]
    half = 0.5 * width
    mid = breaks[:-1][gap] + (step + 0.5) * width
    return (mid[:, None] + half[:, None] * ref_x).ravel(), (half[:, None] * ref_w).ravel()


def line_point(job: dict, profile, t: float, x: float) -> tuple[float, float]:
    """Reference value at (t, x) and its confirmation by a second rule.

    A bump is integrated by adaptive quad, confirmed by a dense composite
    Gauss-Legendre rule.  A sampled profile is a cubic between knots, so it
    is integrated by Gauss-Legendre on every knot interval (order 8, exact
    up to the kernel's smooth variation), confirmed at order 12.
    """
    f, (a, b), knots = profile
    lo, hi = max(x - t, a), min(x + t, b)
    if t == 0.0 or lo >= hi:
        return 0.0, 0.0
    kern = line_kernel(job)
    zmax = _max_argument(job, t, x, lo, hi)
    # 8 + zmax panels over the interval: about six per period of J0
    per_unit = (8.0 + zmax) / (hi - lo)
    if knots is None:
        skern = scalar_kernel(job)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val, _ = quad(lambda s: skern(t, x, s) * f.scalar(s), lo, hi,
                              epsabs=1e-15, epsrel=1e-12, limit=4000)
            except IntegrationWarning as exc:
                raise ReferenceFailure(f"quad did not converge at t={t}, x={x}: {exc}")
        pts, wts = _gauss_legendre([lo, hi], per_unit, 24)
        return val, float(np.dot(wts, kern(t, x, pts) * f(pts)))
    breaks = [lo, *knots(lo, hi), hi]
    values = []
    for order in (8, 12):
        pts, wts = _gauss_legendre(breaks, per_unit, order)
        values.append(float(np.dot(wts, kern(t, x, pts) * f(pts))))
    return values[0], values[1]


def kernel_values(job: dict) -> list[float]:
    """J0 of the light-cone argument at (t, x, xp) rows; NaN strictly outside the cone."""
    out = []
    k, xp = job["k"], job["xp"]
    for t in job["times"]:
        for x in np.linspace(*job["grid"]):
            d = float(x) - xp
            prod = math.sinh(0.5 * (t + d)) * math.sinh(0.5 * (t - d))
            if prod < 0.0:
                out.append(math.nan)
                continue
            z = 2.0 * abs(k) * math.exp(0.5 * (float(x) + xp)) * math.sqrt(prod)
            out.append(float(j0(z)))
    return out


def kernel_second_means(job: dict) -> list[float]:
    """The same kernel through the literal cosh difference, far from the cone only."""
    out = []
    k, xp = job["k"], job["xp"]
    for t in job["times"]:
        for x in np.linspace(*job["grid"]):
            x = float(x)
            radicand = 2.0 * math.exp(x + xp) * (math.cosh(t) - math.cosh(x - xp))
            if abs(abs(x - xp) - t) < 1e-3:
                out.append(None)
                continue
            out.append(math.nan if radicand < 0.0 else float(j0(abs(k) * math.sqrt(radicand))))
    return out


def line_values(job: dict) -> list[float]:
    """Reference rows (t-major, as the CLI writes them) for one line-solve command."""
    if job["kind"] == "kernel":
        ref = kernel_values(job)
        alt = kernel_second_means(job)
        for r, s in zip(ref, alt):
            if s is None:
                continue
            if math.isnan(r) != math.isnan(s) or (not math.isnan(r) and abs(r - s) > 1e-9):
                raise ReferenceFailure("kernel reference disagrees with the cosh-difference form")
        return ref
    profile = make_profile(job["profile"])
    primary, dense = [], []
    for t in job["times"]:
        for x in np.linspace(*job["grid"]):
            v, w = line_point(job, profile, float(t), float(x))
            primary.append(v)
            dense.append(w)
    scale = max(abs(v) for v in primary)
    gap = max(abs(v - w) for v, w in zip(primary, dense))
    if not scale > 0.0 or gap > LINE_CONFIRM * scale:
        raise ReferenceFailure(
            f"line reference not confirmed: quad vs dense rule gap {gap:.3e} of scale {scale:.3e}"
        )
    return primary


# ---------------------------------------------------------------------------
# half plane


def bump2(box, x, y):
    x0, x1, y0, y1 = box
    return bump(x0, x1, x) * bump(y0, y1, y)


def disk_points(w, r, theta):
    """Points at geodesic distance r from w, direction theta.

    i e^r is at distance r from i; the elliptic rotation by theta about i,
    then z -> w_x + w_y z, carries it to the circle of radius r about w.
    """
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    z = 1j * np.exp(r)
    z = (c * z + s) / (-s * z + c)
    return w[0] + w[1] * z.real, w[1] * z.imag


def disk_integral(func, t: float, w, n_theta: int, radial_panels: int) -> float:
    """N * integral over the geodesic disk of (cosh t - cosh d)^{-1/2} func dA.

    With q^2 = cosh t - cosh r the kernel times sinh r dr is 2 dq on
    (0, Q), Q = sqrt(2) sinh(t/2); the angle uses the periodic trapezoid rule.
    """
    big_q = math.sqrt(2.0) * math.sinh(0.5 * t)
    q, wq = _gauss_legendre([0.0, big_q], radial_panels / big_q, 16)
    # cosh r - 1 = (Q - q)(Q + q) = 2 sinh^2(r/2), without cancellation
    r = 2.0 * np.arcsinh(np.sqrt(0.5 * (big_q - q) * (big_q + q)))
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    px, py = disk_points(w, r[None, :], theta[:, None])
    total = np.sum(func(px, py) @ (2.0 * wq))
    return DISK_NORM * (2.0 * math.pi / n_theta) * float(total)


def half_plane_value(box, t: float, w) -> float:
    """Reference u(t, w), confirmed by doubling both the angular and radial resolution."""
    if t == 0.0:
        return 0.0
    func = lambda x, y: bump2(box, x, y)
    coarse = disk_integral(func, t, w, 512, 48)
    fine = disk_integral(func, t, w, 1024, 96)
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) > HALF_PLANE_CONFIRM * max(scale, 1e-6):
        raise ReferenceFailure(
            f"half-plane reference not confirmed at t={t}, w={w}: {coarse!r} vs {fine!r}"
        )
    return fine


def half_plane_values(job: dict) -> list[float]:
    return [half_plane_value(job["box"], float(t), job["w"]) for t in job["times"]]


# ---------------------------------------------------------------------------
# gate


def relative_error(out, ref) -> float:
    """Largest |out - ref| over a command as a share of its largest |ref|.

    A NaN anywhere in ref must be matched by a NaN in out (the kernel's
    outside-the-cone marker) and is then left out; any other NaN is an
    infinite error.
    """
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        return math.inf
    ref_nan = np.isnan(ref)
    if np.any(np.isnan(out) != ref_nan):
        return math.inf
    o, r = out[~ref_nan], ref[~ref_nan]
    if len(r) == 0:
        return 0.0
    scale = float(np.max(np.abs(r)))
    if not scale > 0.0:
        return math.inf
    err = float(np.max(np.abs(o - r)))
    return err / scale if math.isfinite(err) else math.inf


def compute(jobs: list[dict]) -> list[list[float]]:
    results = []
    for job in jobs:
        if job["kind"] in ("exp", "const", "telegraph", "kernel"):
            results.append(line_values(job))
        elif job["kind"] == "half-plane":
            results.append(half_plane_values(job))
        else:
            raise ValueError(f"unknown job kind {job['kind']!r}")
    return results


def main(src: str, dst: str) -> int:
    with open(src, encoding="utf-8") as fh:
        jobs = json.load(fh)
    try:
        results = compute(jobs)
    except ReferenceFailure as exc:
        print(f"reference error: {exc}", file=sys.stderr)
        return 3
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
