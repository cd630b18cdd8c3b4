"""Seeded inputs of the three workloads.

A workload is a round: a fixed list of operations made from the seed.  A
run repeats whole rounds, so every run attempts the same mix and any
operation that fails does so in every round.  Each operation carries what
the gate needs: the reference job (computed apart from liouwave) or, for
``verify``, the property its report must have.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import reference

VERIFY_SUITES = "lemma1,prop2,dalembert,oracle,scaling,telegraph,hyperbolic-mass,fourier,specfun"

# Line-solve grids: two times, 121 positions spanning the support plus a
# margin smaller than the earliest time, so every point does the full cone
# integral and the cost of a command does not depend on the seed.
LINE_TIMES = 2
LINE_POINTS = 121
GRID_MARGIN = 0.3
T_MIN = 0.4
# Sample spacing of file: profiles.  The default rule does not split at the
# spline's knots; with 41 samples over the support its error is 4e-7, too
# close to the stated accuracy, while this spacing keeps it near 1e-9.
SAMPLE_SPACING = 0.004

# The oscillatory block: seed-independent commands whose largest Bessel
# argument is in the hundreds, where the fixed 8-panel x 16-node rule is
# wrong by far more than the stated accuracy.
OSCILLATORY = (
    ("exp", False, (5.0, 6.0)),
    ("exp", True, (4.0, 5.0)),
)
OSCILLATORY_GRID = (2.0, 5.0, 61)


@dataclass
class Op:
    """One operation: a CLI argv, or a library call named by ``call``."""

    label: str
    argv: list | None = None
    call: tuple | None = None
    ref_index: int | None = None
    expect_times: list = field(default_factory=list)
    expect_positions: list = field(default_factory=list)
    accuracy: float = reference.LINE_ACCURACY


@dataclass
class Workload:
    name: str
    ops: list
    ref_jobs: list
    probe: list          # the first operation of each kind, for set-up timing


def _r(v: float) -> str:
    return repr(float(v))


def _times(rng, hi: float) -> list[float]:
    return sorted(float(v) for v in rng.uniform(T_MIN, hi, LINE_TIMES))


def _first_of_each_kind(ops) -> list:
    seen, first = set(), []
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            first.append(op)
    return first


# ---------------------------------------------------------------------------
# grid


def _line_op(label, cmd, job, profile_arg, ref_jobs, extra=()) -> Op:
    lo, hi, n = job["grid"]
    argv = [cmd, *extra, f"--profile={profile_arg}", "--t=" + ",".join(_r(t) for t in job["times"]),
            f"--x-grid={_r(lo)}:{_r(hi)}:{n}", "--no-timestamp"]
    ref_jobs.append(job)
    return Op(label, argv=argv, ref_index=len(ref_jobs) - 1,
              expect_times=list(job["times"]), expect_positions=list(np.linspace(lo, hi, n)))


def _bump_support(rng, wide: bool) -> tuple[float, float]:
    a = float(rng.uniform(-1.5, -0.5))
    # the regularized form never splits its interval at the support edges;
    # wide supports keep its default-rule error 500x inside the accuracy
    width = float(rng.uniform(2.0, 2.5) if wide else rng.uniform(1.0, 2.5))
    return a, a + width


def _write_samples(path: str, a: float, b: float, amp: float) -> dict:
    n = int(round((b - a) / SAMPLE_SPACING))
    h = (b - a) / n
    nodes = np.linspace(a - 2.0 * h, b + 2.0 * h, n + 5)
    values = amp * reference.bump(a, b, nodes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("X,f\n")
        for x, f in zip(nodes, values):
            fh.write(f"{x:.17g},{f:.17g}\n")
    return {"type": "samples", "nodes": nodes.tolist(), "values": values.tolist()}


def grid(seed: int, scratch: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, ref_jobs = [], []

    def profile(use_file: bool, wide: bool = False):
        a, b = _bump_support(rng, wide)
        if not use_file:
            return {"type": "bump", "a": a, "b": b}, f"bump:{_r(a)}:{_r(b)}", (a, b)
        path = os.path.join(scratch, f"profile-{len(ops)}.csv")
        spec = _write_samples(path, a, b, float(rng.uniform(0.5, 2.0)))
        return spec, f"file:{path}", (a, b)

    def grid_of(support):
        a, b = support
        return [a - GRID_MARGIN, b + GRID_MARGIN, LINE_POINTS]

    for use_file in (False, False, False, True):
        spec, arg, sup = profile(use_file)
        job = {"kind": "exp", "k": float(rng.uniform(0.5, 2.0)), "profile": spec,
               "times": _times(rng, 2.5), "grid": grid_of(sup)}
        ops.append(_line_op("solve-file" if use_file else "solve", "solve", job, arg, ref_jobs,
                            ("--k=" + _r(job["k"]),)))
    for _ in range(2):
        spec, arg, sup = profile(False, wide=True)
        job = {"kind": "exp", "k": float(rng.uniform(0.5, 1.5)), "profile": spec,
               "times": _times(rng, 1.5), "grid": grid_of(sup)}
        ops.append(_line_op("solve-regularized", "solve", job, arg, ref_jobs,
                            ("--regularized", "--k=" + _r(job["k"]))))
    for use_file in (False, False, True):
        spec, arg, sup = profile(use_file)
        job = {"kind": "const", "k": float(rng.uniform(0.5, 3.0)), "profile": spec,
               "times": _times(rng, 2.5), "grid": grid_of(sup)}
        ops.append(_line_op("solve-const", "solve-const", job, arg, ref_jobs,
                            ("--k=" + _r(job["k"]),)))
    for use_file in (False, False, True):
        spec, arg, sup = profile(use_file)
        job = {"kind": "telegraph", "alpha": float(rng.uniform(0.0, 3.0)),
               "beta": float(rng.uniform(0.0, 3.0)), "profile": spec,
               "times": _times(rng, 2.5), "grid": grid_of(sup)}
        ops.append(_line_op("solve-telegraph", "solve-telegraph", job, arg, ref_jobs,
                            ("--alpha=" + _r(job["alpha"]), "--beta=" + _r(job["beta"]))))
    for _ in range(2):
        ops.append(_kernel_op(rng, ref_jobs))
    for kind, regularized, times in OSCILLATORY:
        job = {"kind": kind, "k": 1.0, "profile": {"type": "bump", "a": -1.0, "b": 1.0},
               "times": list(times), "grid": list(OSCILLATORY_GRID)}
        extra = ("--regularized", "--k=1") if regularized else ("--k=1",)
        ops.append(_line_op("oscillatory", "solve", job, "bump:-1:1", ref_jobs, extra))
    probe = [op for op in _first_of_each_kind(ops) if op.label != "oscillatory"]
    return Workload("grid", ops, ref_jobs, probe)


def _kernel_op(rng, ref_jobs) -> Op:
    """eval-kernel on a grid that straddles the cone, no point within 1e-6 of it."""
    while True:
        k = float(rng.uniform(0.5, 2.0))
        xp = float(rng.uniform(-1.0, 1.0))
        times = sorted(float(v) for v in rng.uniform(0.3, 2.5, LINE_TIMES))
        lo, hi = xp - 3.0 + float(rng.uniform(-0.2, 0.2)), xp + 3.0
        xs = np.linspace(lo, hi, LINE_POINTS)
        gap = min(float(np.min(np.abs(np.abs(xs - xp) - t))) for t in times)
        if gap > 1e-6:
            break
    job = {"kind": "kernel", "k": k, "xp": xp, "times": times, "grid": [lo, hi, LINE_POINTS]}
    ref_jobs.append(job)
    argv = ["eval-kernel", f"--k={_r(k)}", f"--xp={_r(xp)}",
            "--t=" + ",".join(_r(t) for t in times), f"--x-grid={_r(lo)}:{_r(hi)}:{LINE_POINTS}",
            "--no-timestamp"]
    return Op("eval-kernel", argv=argv, ref_index=len(ref_jobs) - 1,
              expect_times=times, expect_positions=list(xs))


# ---------------------------------------------------------------------------
# verify


def verify(seed: int, scratch: str) -> Workload:
    """One full pass of the nine named suites; the seed changes nothing."""
    op = Op("verify", argv=["verify", "--suite", VERIFY_SUITES, "--no-timestamp"])
    return Workload("verify", [op], [], [op])


# ---------------------------------------------------------------------------
# hyperbolic

# Times per solve-hyperbolic command.  Unequal counts spread the operation
# costs, so the median operation does not sit in a gap between two cost
# clusters, where this VM's speed steps would make it jump.
HALF_PLANE_TIMES = (1, 1, 2, 2, 3, 4)
# Beyond t ~ 0.6 the disk reaches the support's steep edges and the
# 64-angle rule's error climbs toward the stated accuracy.
HALF_PLANE_T = (0.2, 0.6)


def _half_plane_case(rng):
    x0 = float(rng.uniform(-2.0, -1.0))
    x1 = x0 + float(rng.uniform(3.0, 4.0))
    y0 = float(rng.uniform(0.5, 1.0))
    y1 = y0 * float(rng.uniform(3.0, 4.0))
    cx, cy = 0.5 * (x0 + x1), float(np.sqrt(y0 * y1))
    w = [cx + 0.25 * (x1 - x0) * float(rng.uniform(-1.0, 1.0)),
         cy * float(np.exp(0.25 * np.log(y1 / y0) * rng.uniform(-1.0, 1.0)))]
    return [x0, x1, y0, y1], w


def hyperbolic(seed: int, scratch: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, ref_jobs = [], []
    for count in HALF_PLANE_TIMES:
        box, w = _half_plane_case(rng)
        times = sorted(float(v) for v in rng.uniform(*HALF_PLANE_T, count))
        ref_jobs.append({"kind": "half-plane", "box": box, "w": w, "times": times})
        argv = ["solve-hyperbolic", "--profile=bump2:" + ":".join(_r(v) for v in box),
                "--w=" + ",".join(_r(v) for v in w), "--t=" + ",".join(_r(t) for t in times),
                "--no-timestamp"]
        ops.append(Op("solve-hyperbolic", argv=argv, ref_index=len(ref_jobs) - 1,
                      expect_times=times, accuracy=reference.HALF_PLANE_ACCURACY))
    for _ in range(4):
        box, w = _half_plane_case(rng)
        t = float(rng.uniform(*HALF_PLANE_T))
        ref_jobs.append({"kind": "half-plane", "box": box, "w": w, "times": [t]})
        ops.append(Op("fourier", call=("hyperbolic_fourier_check", box, t, w),
                      ref_index=len(ref_jobs) - 1, expect_times=[t],
                      accuracy=reference.FOURIER_ACCURACY))
    return Workload("hyperbolic", ops, ref_jobs, _first_of_each_kind(ops))


BUILDERS = {"grid": grid, "verify": verify, "hyperbolic": hyperbolic}
