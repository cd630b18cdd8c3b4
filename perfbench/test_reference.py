"""Tests of the benchmark's references and of its correctness gate.

Run from the repository root:  python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def _line(kind, t, x, **params):
    job = {"kind": kind, "profile": {"type": "bump", "a": -1.0, "b": 0.8},
           "times": [t], "grid": [x, x + 1.0, 1], **params}
    return reference.line_values(job)[0]


# ---------------------------------------------------------------------------
# the references, each against a second means


def test_spline_matches_scipy_natural_spline():
    nodes = np.linspace(-1.2, 1.1, 60)
    values = reference.bump(-1.0, 0.9, nodes) * (1.0 + 0.3 * np.sin(3.0 * nodes))
    lo, hi = reference.sampled_support(nodes, values)
    ours = reference.NaturalSpline(nodes, values, lo, hi)
    theirs = CubicSpline(nodes, values, bc_type="natural")
    xq = np.linspace(lo + 1e-9, hi - 1e-9, 997)
    assert np.max(np.abs(ours(xq) - theirs(xq))) < 1e-14
    assert ours(np.array([lo - 0.01, hi + 0.01])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("kind, params, potential", [
    ("exp", {"k": 1.3}, lambda x, p: p["k"] ** 2 * math.exp(2.0 * x)),
    ("const", {"k": 1.7}, lambda x, p: p["k"] ** 2),
])
def test_line_reference_solves_its_equation(kind, params, potential):
    """u_tt - u_xx + V u = 0 by central differences: the kernel, not a copy of it."""
    t, x, h = 1.1, -0.2, 1e-2
    u = lambda tt, xx: _line(kind, tt, xx, **params)
    u0 = u(t, x)
    u_tt = (u(t + h, x) - 2.0 * u0 + u(t - h, x)) / h**2
    u_xx = (u(t, x + h) - 2.0 * u0 + u(t, x - h)) / h**2
    assert abs(u_tt - u_xx + potential(x, params) * u0) < 1e-4


def test_telegraph_reference_solves_the_line_equation():
    alpha, beta, t, x, h = 2.0, 0.5, 0.9, 0.1, 1e-2
    u = lambda tt, xx: _line("telegraph", tt, xx, alpha=alpha, beta=beta)
    u0 = u(t, x)
    u_t = (u(t + h, x) - u(t - h, x)) / (2.0 * h)
    u_tt = (u(t + h, x) - 2.0 * u0 + u(t - h, x)) / h**2
    u_xx = (u(t, x + h) - 2.0 * u0 + u(t, x - h)) / h**2
    residual = u_tt + (alpha + beta) * u_t + alpha * beta * u0 - u_xx
    assert abs(residual) < 1e-4


@pytest.mark.parametrize("kind, params, damping", [
    ("exp", {"k": 1.3}, 0.0), ("const", {"k": 1.7}, 0.0),
    ("telegraph", {"alpha": 2.0, "beta": 0.5}, 1.25),
])
def test_line_reference_has_the_half_normalization(kind, params, damping):
    """u(t, x) / t -> f(x) (damped by e^{-damping t}): the unit-factor kernel gives twice f."""
    t, x = 1e-3, -0.1
    slope = _line(kind, t, x, **params) / t
    expected = float(reference.bump(-1.0, 0.8, x)) * math.exp(-damping * t)
    assert slope == pytest.approx(expected, rel=1e-5)


def test_kernel_reference_is_nan_exactly_outside_the_cone():
    job = {"kind": "kernel", "k": 1.0, "xp": 0.0, "times": [1.0], "grid": [-2.0, 2.0, 9]}
    values = reference.line_values(job)
    xs = np.linspace(-2.0, 2.0, 9)
    assert [math.isnan(v) for v in values] == [abs(x) > 1.0 for x in xs]
    assert values[4] == pytest.approx(float(reference.j0(2.0 * math.sinh(0.5))), abs=1e-15)
    assert values[2] == 1.0  # on the cone the argument is 0


def test_disk_points_are_at_the_requested_distance():
    w = (0.3, 1.7)
    r = np.array([0.1, 0.7, 1.4])[None, :]
    theta = np.linspace(0.0, 2.0 * math.pi, 7)[:, None]
    px, py = reference.disk_points(w, r, theta)
    quot = ((px - w[0]) ** 2 + py**2 + w[1] ** 2) / (2.0 * py * w[1])
    assert np.max(np.abs(np.arccosh(quot) - r)) < 1e-12


@pytest.mark.parametrize("t", [0.3, 0.8, 1.5])
def test_disk_quadrature_reproduces_the_disk_mass(t):
    mass = reference.disk_integral(lambda x, y: np.ones(np.broadcast(x, y).shape), t, (0.0, 1.0), 64, 8)
    assert mass / reference.DISK_NORM == pytest.approx(4.0 * math.sqrt(2.0) * math.pi * math.sinh(0.5 * t),
                                                       rel=1e-13)


def test_half_plane_reference_small_time_slope():
    box, w = [-1.0, 1.0, 1.0, 2.0], [0.1, 1.4]
    t = 1e-3
    fw = float(reference.bump2(box, np.array(w[0]), np.array(w[1])))
    assert reference.half_plane_value(box, t, w) / t == pytest.approx(fw, rel=1e-5)


def test_unconfirmed_reference_is_refused(monkeypatch):
    """A second rule that disagrees (here a 2-node rule) stops the run instead of judging."""
    rule = reference._gauss_legendre
    monkeypatch.setattr(reference, "_gauss_legendre", lambda breaks, per_unit, order: rule(breaks, 0.0, 2))
    job = {"kind": "exp", "k": 1.0, "profile": {"type": "bump", "a": -1.0, "b": 1.0},
           "times": [1.0], "grid": [-0.5, 0.5, 3]}
    with pytest.raises(reference.ReferenceFailure):
        reference.line_values(job)


# ---------------------------------------------------------------------------
# the gate, on real command output


@pytest.fixture(scope="module")
def grid_case(tmp_path_factory):
    import liouwave.cli as cli
    import run

    wl = workloads.grid(7, str(tmp_path_factory.mktemp("grid")))
    picks = [next(i for i, op in enumerate(wl.ops) if op.label == label)
             for label in ("solve", "eval-kernel")]
    refs = [None] * len(wl.ref_jobs)
    for i in picks:
        refs[wl.ops[i].ref_index] = reference.line_values(wl.ref_jobs[wl.ops[i].ref_index])
    runner = run.Runner(cli, None, wl, refs)
    outputs = {}
    for i in picks:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(wl.ops[i].argv) == 0
        outputs[wl.ops[i].label] = (wl.ops[i], buf.getvalue())
    return runner, outputs


def _rewrite_values(text: str, fn) -> str:
    lines = text.splitlines()
    out = []
    for ln in lines:
        if ln and not ln.startswith("#") and not ln[0].isalpha():
            cells = ln.split(",")
            cells[-1] = repr(fn(float(cells[-1])))
            ln = ",".join(cells)
        out.append(ln)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("label", ["solve", "eval-kernel"])
def test_gate_accepts_the_program_output(grid_case, label):
    runner, outputs = grid_case
    op, text = outputs[label]
    ok, rows, ratio = runner.check(op, 0, text)
    assert ok and rows == workloads.LINE_TIMES * workloads.LINE_POINTS and ratio < 1e-2


def test_gate_accepts_nan_outside_the_cone(grid_case):
    runner, outputs = grid_case
    op, text = outputs["eval-kernel"]
    assert "nan" in text
    assert runner.check(op, 0, text)[0]


@pytest.mark.parametrize("label", ["solve", "eval-kernel"])
@pytest.mark.parametrize("wrong", [lambda v: 2.0 * v, lambda v: v * (1.0 + 1e-4)],
                         ids=["unit-factor", "perturbed-1e-4"])
def test_gate_rejects_wrong_values(grid_case, label, wrong):
    runner, outputs = grid_case
    op, text = outputs[label]
    assert not runner.check(op, 0, _rewrite_values(text, wrong))[0]


def test_gate_rejects_a_value_inside_the_cone_turned_nan(grid_case):
    runner, outputs = grid_case
    op, text = outputs["eval-kernel"]
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit() and not ln.endswith("nan"))
    lines[i] = lines[i].rsplit(",", 1)[0] + ",nan"
    assert not runner.check(op, 0, "\n".join(lines) + "\n")[0]


def test_gate_rejects_a_moved_grid_and_a_failed_command(grid_case):
    runner, outputs = grid_case
    op, text = outputs["solve"]
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit())
    t, x, v = lines[i].split(",")
    lines[i] = ",".join([t, repr(float(x) + 1e-9), v])
    assert not runner.check(op, 0, "\n".join(lines) + "\n")[0]
    assert not runner.check(op, 1, text)[0]


def test_gate_on_verify_reports():
    import run

    op = workloads.verify(0, "").ops[0]
    runner = run.Runner(None, None, workloads.verify(0, ""), [])
    good = "PASS  [a] one  max_err=0\nPASS  [b] two  max_err=0\n# 2/2 checks passed\n"
    assert runner.check(op, 0, good)[:2] == (True, 2)
    assert not runner.check(op, 0, good.replace("PASS  [b]", "FAIL  [b]"))[0]
    assert not runner.check(op, 2, good)[0]
