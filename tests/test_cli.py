import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liouwave
from liouwave import (
    BumpProfile,
    TelegraphParams,
    constant_potential_solve,
    telegraph_solve,
    write_profile_csv,
)
from liouwave import cli
from liouwave.cli import _number_lines, _table_lines, _write_record, build_parser, main
from liouwave.verification import CheckResult, SUITES


def _read(path):
    return path.read_text(encoding="utf-8")


def _data_rows(text):
    return [
        line for line in text.splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]


def test_solve_grid_row_count_and_finite_speed(tmp_path):
    out = tmp_path / "solve.csv"
    rc = main([
        "solve", "--k", "1", "--profile", "bump:-1:1", "--t", "1",
        "--x-grid", "-3:3:61", "--out", str(out), "--no-timestamp",
    ])
    assert rc == 0
    rows = _data_rows(_read(out))
    assert len(rows) == 61
    for line in rows:
        t, x, v = (float(p) for p in line.split(","))
        if abs(x) > 2.0:
            assert v == 0.0


def test_solve_output_deterministic(tmp_path):
    args = [
        "solve", "--k", "1.5", "--profile", "bump:-1:1", "--t", "0.5,1",
        "--x-grid", "-2:2:21", "--no-timestamp",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read(out1) == _read(out2)


def test_regularized_flag_agrees_with_raw_form(tmp_path):
    base = [
        "--k", "1", "--profile", "bump:-1:1", "--t", "1",
        "--x-grid", "-2:2:9", "--quad-order", "32", "--no-timestamp",
    ]
    raw, reg = tmp_path / "raw.csv", tmp_path / "reg.csv"
    assert main(["solve"] + base + ["--out", str(raw)]) == 0
    assert main(["solve", "--regularized"] + base + ["--out", str(reg)]) == 0
    assert "# provenance: regularized" in _read(reg)
    raw_vals = [float(r.split(",")[2]) for r in _data_rows(_read(raw))]
    reg_vals = [float(r.split(",")[2]) for r in _data_rows(_read(reg))]
    assert max(abs(a - b) for a, b in zip(raw_vals, reg_vals)) <= 1e-9


@pytest.mark.parametrize("k, coef_b, cone, nan_at", [
    # first kind: NaN outside the cone, J0(0) = 1 on it
    ("1", "0", 1.0, [0, 4]),
    # second kind present: Y0 is singular on the cone too
    ("1", "0.7", None, [0, 1, 3, 4]),
    # k = 0 puts z = 0 everywhere, so with the second kind every row is NaN
    ("0", "0.7", None, [0, 1, 2, 3, 4]),
], ids=["first-kind", "second-kind", "k0-second-kind"])
def test_eval_kernel_header_and_cone(tmp_path, k, coef_b, cone, nan_at):
    out = tmp_path / "kernel.csv"
    rc = main([
        "eval-kernel", "--k", k, "--t", "1,2", "--x-grid", "-2:2:5", "--coef-b", coef_b,
        "--out", str(out), "--no-timestamp",
    ])
    assert rc == 0
    text = _read(out)
    assert "t,X,Xp,value" in text
    rows = _data_rows(text)
    assert len(rows) == 10
    values = np.array([float(r.split(",")[3]) for r in rows[:5]])
    assert np.flatnonzero(np.isnan(values)).tolist() == nan_at
    if cone is not None:
        assert values[1] == cone and values[3] == cone
    if k == "0":
        assert all(r.endswith(",nan") for r in rows)


@pytest.mark.parametrize("argv", [
    ["solve", "--k", "1", "--profile", "bump:709:711", "--t", "1", "--x-grid", "709:711:3"],
    ["solve", "--regularized", "--k", "1", "--profile", "bump:709:711", "--t", "1",
     "--x-grid", "709:711:3"],
    ["eval-kernel", "--k", "1", "--t", "1", "--x-grid", "709:711:3", "--xp", "710"],
], ids=["solve", "regularized", "eval-kernel"])
def test_overflowing_kernel_is_an_error_not_nan_rows(argv, capsys):
    rc = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "overflows" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--regularized", "--k", "1", "--profile", "bump:-1:1", "--t", "1500",
     "--x-grid", "0:1:2"],
    ["solve-hyperbolic", "--profile", "bump2:-1:1:1:2", "--w", "0,1.4", "--t", "720"],
], ids=["regularized", "hyperbolic"])
def test_time_beyond_the_float_range_is_an_error_not_a_traceback(argv, capsys):
    rc = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "overflows at t=" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_regularized_solve_is_zero_where_the_cone_misses_an_overflowing_support(capsys):
    rc = main(["solve", "--regularized", "--k", "1", "--profile", "bump:709:711", "--t", "1",
               "--x-grid", "705:706:2", "--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert [r.split(",")[2] for r in _data_rows(captured.out)] == ["0", "0"]


def test_regularized_solve_at_a_cone_edge_inside_the_support_exits_zero(capsys):
    rc = main(["solve", "--regularized", "--k", "3",
               "--profile", "bump:-1.780429782827102:-0.6359219853352607", "--t", "1.7",
               "--x-grid=-3.480429782827102:-3.480429782827102:1", "--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert [r.split(",")[2] for r in _data_rows(captured.out)] == ["0"]


def _values(path):
    return np.array([float(r.split(",")[2]) for r in _data_rows(_read(path))])


def test_solve_const_and_telegraph_run(tmp_path):
    bump, xs = BumpProfile(-1.0, 1.0), np.linspace(-2.0, 2.0, 5)
    rc = main([
        "solve-const", "--k", "1", "--profile", "bump:-1:1", "--t", "1",
        "--x-grid", "-2:2:5", "--out", str(tmp_path / "c.csv"), "--no-timestamp",
    ])
    assert rc == 0
    assert np.array_equal(_values(tmp_path / "c.csv"), constant_potential_solve(1.0, bump, 1.0, xs))
    rc = main([
        "solve-telegraph", "--alpha", "2", "--beta", "0", "--profile", "bump:-1:1",
        "--t", "0.5", "--x-grid", "-2:2:5", "--out", str(tmp_path / "t.csv"),
        "--no-timestamp",
    ])
    assert rc == 0
    assert np.array_equal(_values(tmp_path / "t.csv"),
                          telegraph_solve(TelegraphParams(2.0, 0.0), bump, 0.5, xs))


def test_solve_rows_come_out_in_ascending_time(tmp_path):
    base = ["solve", "--k", "1", "--profile", "bump:-1:1", "--x-grid", "-2:2:5", "--no-timestamp"]
    assert main(base + ["--t", "1,0.5", "--out", str(tmp_path / "desc.csv")]) == 0
    assert main(base + ["--t", "0.5,1", "--out", str(tmp_path / "asc.csv")]) == 0
    rows = _data_rows(_read(tmp_path / "desc.csv"))
    assert [float(r.split(",")[0]) for r in rows] == [0.5] * 5 + [1.0] * 5
    assert rows == _data_rows(_read(tmp_path / "asc.csv"))


def test_solve_hyperbolic_csv_record(tmp_path):
    out = tmp_path / "h.csv"
    rc = main([
        "solve-hyperbolic", "--profile", "bump2:-1:1:1:2", "--w", "0,1.4",
        "--t", "0.5,1", "--out", str(out), "--no-timestamp",
    ])
    assert rc == 0
    lines = _read(out).splitlines()
    assert "# provenance: quadrature" in lines
    assert lines[2] == "t,x,y,value"
    assert len(_data_rows(_read(out))) == 2


def test_limit_study_monotone(tmp_path):
    out = tmp_path / "gaps.csv"
    rc = main([
        "limit-study", "--k", "1", "--lambdas", "0.5,0.1,0.01",
        "--out", str(out), "--no-timestamp",
    ])
    assert rc == 0
    rows = _data_rows(_read(out))
    gaps = [float(r.split(",")[1]) for r in rows]
    assert len(gaps) == 3
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-3


def test_convergence_gap_shrinks(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main([
        "convergence", "--k", "2", "--profile", "bump:-1:1", "--t", "2",
        "--x-grid", "0:0.5:2", "--max-panels", "16", "--out", str(out),
        "--no-timestamp",
    ])
    assert rc == 0
    gaps = [float(r.split(",")[1]) for r in _data_rows(_read(out))]
    assert gaps[-1] < gaps[0]


def test_file_profile_round_trip_identical_output(tmp_path):
    base = BumpProfile(-1.0, 1.0)
    nodes = np.linspace(-1.2, 1.2, 201)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, nodes, base(nodes))
    args = [
        "solve", "--k", "1", "--profile", f"file:{path}", "--t", "1",
        "--x-grid", "-2:2:11", "--no-timestamp",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read(out1) == _read(out2)


def test_verify_fast_suites_exit_zero(capsys):
    rc = main(["verify", "--suite", "lemma1,scaling,specfun", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_accepts_fd_overrides(capsys):
    rc = main(["verify", "--suite", "telegraph", "--dx", "4e-3", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dx=0.004" in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(
        SUITES, "always-fails",
        lambda: [CheckResult("always-fails", "synthetic failing check", 1.0, 0.5, False)],
    )
    rc = main(["verify", "--suite", "always-fails", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out


def test_usage_and_config_errors_exit_one(capsys):
    assert main(["solve", "--k", "1", "--profile", "bogus", "--t", "1",
                 "--x-grid", "0:1:2"]) == 1
    assert main(["solve", "--k", "1", "--profile", "bump:-1:1", "--t", "-1",
                 "--x-grid", "0:1:2"]) == 1
    assert main(["solve", "--k", "1"]) == 1
    assert main(["verify", "--suite", "no-such-suite"]) == 1
    # the structured-text record was removed; the CSV record is the only format
    assert main(["solve-hyperbolic", "--profile", "bump2:-1:1:1:2", "--w", "0,1.4",
                 "--t", "1", "--format", "doc"]) == 1
    capsys.readouterr()


_LINE = ["solve", "--k", "1", "--profile", "bump:-1:1", "--t", "1", "--x-grid", "0:1:3"]
_KERNEL = ["eval-kernel", "--k", "1", "--t", "1", "--x-grid", "0:1:3"]
_DISK = ["solve-hyperbolic", "--profile", "bump2:-1:1:1:2", "--w", "0,1.4", "--t", "1"]
_CONVERGENCE = ["convergence", "--k", "1", "--profile", "bump:-1:1", "--t", "1",
                "--x-grid", "0:1:3"]


def _with(argv, flag, value):
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


@pytest.mark.parametrize("argv", [
    _with(_LINE, "--x-grid", "a:b:3"),
    _with(_LINE, "--x-grid", "0:1:2.5"),
    _with(_LINE, "--profile", "bump:x:1"),
    _with(_LINE, "--profile", "file:{bad_csv}"),
    _with(_DISK, "--profile", "bump2:-1:1:1:y"),
    _with(_DISK, "--w", "a,1"),
    _with(_CONVERGENCE, "--t", ","),
    _with(_CONVERGENCE, "--t", "1,2"),
    _with(_KERNEL, "--k", "nan"),
    _with(_KERNEL, "--t", "nan"),
    _KERNEL + ["--xp", "inf"],
    _with(_KERNEL, "--x-grid", "-inf:1:3"),
], ids=lambda argv: " ".join(argv))
def test_malformed_or_non_finite_numbers_exit_one(argv, tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("X,f\n0,0\n0.5,abc\n1,0\n", encoding="utf-8")
    rc = main([a.format(bad_csv=bad_csv) for a in argv] + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert any(line.startswith("error:") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_negative_grid_bounds_accepted_with_space_syntax(tmp_path):
    rc = main([
        "solve", "--k", "1", "--profile", "bump:-1:1", "--t", "1",
        "--x-grid", "-3:3:7", "--out", str(tmp_path / "neg.csv"), "--no-timestamp",
    ])
    assert rc == 0


def test_timestamp_header_present_by_default(tmp_path):
    out = tmp_path / "stamped.csv"
    assert main(["limit-study", "--k", "1", "--out", str(out)]) == 0
    first = _read(out).splitlines()[0]
    assert first.startswith("# generated ")
    assert "wall_time_s=" in first


@pytest.mark.parametrize("argv", [
    _CONVERGENCE + ["--panels", "3"],  # convergence doubles the panel count itself
    ["verify", "--suite", "telegraph", "--dt", "1e-3"],  # the step is --cfl times --dx
], ids=["convergence --panels", "verify --dt"])
def test_options_a_command_does_not_read_exit_one(argv, capsys):
    rc = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    assert captured.out == ""


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# a minimal accepted argv of each subcommand
_MINIMAL = {
    "eval-kernel": _KERNEL,
    "solve": _LINE,
    "solve-const": ["solve-const"] + _LINE[1:],
    "solve-telegraph": ["solve-telegraph", "--alpha", "1", "--beta", "1"] + _LINE[3:],
    "solve-hyperbolic": _DISK,
    "verify": ["verify"],
    "limit-study": ["limit-study", "--k", "1"],
    "convergence": _CONVERGENCE,
}
_VALUE_OPTIONS = [
    (command, action) for command, sub in _subcommands(build_parser()).items()
    for action in sub._actions if action.option_strings and action.nargs != 0
]


@pytest.mark.parametrize("command, action", _VALUE_OPTIONS,
                         ids=[f"{c} {a.option_strings[0]}" for c, a in _VALUE_OPTIONS])
def test_dash_leading_value_reaches_its_option(command, action, monkeypatch, capsys):
    # a fresh parser whose commands record their arguments instead of running
    parser = build_parser.__wrapped__()
    seen = []
    for sub in _subcommands(parser).values():
        sub.set_defaults(func=lambda args, started: seen.append(args) or 0)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    option, value = action.option_strings[0], "-1e-3"  # not argparse's negative-number form
    argv = list(_MINIMAL[command])
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    rc = main(argv)
    err = capsys.readouterr().err
    assert "expected one argument" not in err
    if action.type is int:
        assert rc == 1 and f"argument {option}: invalid int value: '{value}'" in err
    else:
        assert rc == 0 and err == ""
        assert getattr(seen[0], action.dest) == (action.type or str)(value)


def test_negative_fd_mesh_reaches_the_leapfrog_check(capsys):
    rc = main(["verify", "--suite", "telegraph", "--dx", "-1e-3", "--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: dx must be in (0, domain length)")
    assert captured.out == ""


_README = Path(__file__).resolve().parent.parent / "README.md"
_README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```sh\n(.*?)```", _README.read_text(encoding="utf-8"), re.S)
    for line in block.splitlines() if line.startswith("liouwave ")
]


def test_readme_commands_found():
    assert len(_README_COMMANDS) >= 17


@pytest.mark.parametrize("argv", _README_COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for --out
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("max_panels", ["0", "-1"])
def test_convergence_needs_at_least_one_panel(max_panels, capsys):
    rc = main(_CONVERGENCE + ["--max-panels", max_panels, "--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "--max-panels" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    _with(_LINE, "--t", "0") + ["--panels", "0"],
    _with(_LINE, "--t", "0") + ["--quad-order", "4"],
    ["solve-const"] + _with(_LINE, "--t", "0")[1:] + ["--panels", "-1"],
    _with(_DISK, "--t", "0") + ["--ntheta", "2"],
    _with(_DISK, "--t", "0") + ["--panels", "0"],
], ids=lambda argv: " ".join(argv))
def test_quadrature_config_checked_before_any_row(argv, capsys):
    rc = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


_SRC = str(Path(liouwave.__file__).resolve().parent.parent)


def _fresh_python(code, *args, cwd=None):
    """Run ``code`` in a new interpreter that imports liouwave from this tree."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


_UNWANTED = ("scipy.interpolate", "scipy.integrate", "scipy.linalg")


def test_cli_import_leaves_interpolate_and_integrate_unloaded(tmp_path):
    """Neither importing the CLI nor a line solve on a file: profile loads them.

    The sampled profile's spline is built in numpy; scipy.linalg would
    solve its system bit for bit but adds about 0.07 s to the import.
    """
    nodes = np.linspace(-1.2, 1.2, 241)
    write_profile_csv(tmp_path / "f.csv", nodes, BumpProfile(-1.0, 1.0)(nodes))
    tail = ["--profile", f"file:{tmp_path / 'f.csv'}", "--t", "1", "--x-grid", "-1:1:5", "--no-timestamp"]
    commands = [["solve", "--k", "1"], ["solve-const", "--k", "1"],
                ["solve-telegraph", "--alpha", "1", "--beta", "1"]]
    proc = _fresh_python(
        "import contextlib, io, json, sys\n"
        "import liouwave.cli as cli\n"
        f"unwanted = {_UNWANTED!r}\n"
        "seen = [[m for m in unwanted if m in sys.modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    seen.append([m for m in unwanted if m in sys.modules])\n"
        "print(json.dumps(seen))",
        json.dumps([c + tail for c in commands]),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[]] * (1 + len(commands))


_FAILING_SUITE = (
    "from liouwave.verification import SUITES, CheckResult\n"
    "SUITES['always-fails'] = lambda: "
    "[CheckResult('always-fails', 'synthetic failing check', 1.0, 0.5, False)]\n"
)


def test_repeated_main_calls_match_fresh_interpreters(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; no call may leave state for the next.

    Each argv is run in this process, in a sequence where a flag set by one
    call is absent from the next, and compared byte for byte with the same
    argv run in a new interpreter, where the parser is built for it alone.
    """
    plain = _LINE + ["--no-timestamp"]
    steps = [
        ["solve", "--regularized"] + plain[1:], plain,
        plain + ["--out", "out.csv"], plain,
        ["solve", "--k", "1", "--no-timestamp"], plain,
        ["verify", "--suite", "always-fails", "--no-timestamp"],
    ]
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    monkeypatch.setenv("COLUMNS", "80")

    def outputs(rc, out, err):
        written = Path("out.csv")
        record = (rc, out, err, written.read_text(encoding="utf-8") if written.exists() else None)
        written.unlink(missing_ok=True)
        return record

    seen = []
    for argv in steps:
        if argv[0] == "verify":
            assert build_parser.cache_info().currsize == 1
            monkeypatch.setitem(
                SUITES, "always-fails",
                lambda: [CheckResult("always-fails", "synthetic failing check", 1.0, 0.5, False)],
            )
        rc = main(argv)
        seen.append(outputs(rc, *capsys.readouterr()))

    fresh = {}
    for n, argv in enumerate(steps):
        if tuple(argv) not in fresh:
            cwd = tmp_path / f"fresh-{n}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            preamble = _FAILING_SUITE if argv[0] == "verify" else ""
            proc = _fresh_python(preamble + "import sys\nfrom liouwave.cli import main\n"
                                 "sys.exit(main(sys.argv[1:]))", *argv, cwd=cwd)
            fresh[tuple(argv)] = outputs(proc.returncode, proc.stdout, proc.stderr)
        assert seen[n] == fresh[tuple(argv)], " ".join(argv)

    provenance = [out.splitlines()[1] for _, out, _, _ in seen[:2]]
    assert provenance == ["# provenance: regularized", "# provenance: quadrature"]
    assert seen[2][1] == "" and seen[2][3] and seen[3][1] == seen[2][3]
    assert seen[4][0] == 1 and seen[5][0] == 0 and seen[5][1] == seen[1][1]
    assert seen[6][0] == 2 and "FAIL  [always-fails]" in seen[6][1]


def test_rows_keep_17_significant_digits(capsys):
    values = (0.0, -0.0, 5e-324, 1 / 3, 1e300, math.nan, math.inf, -math.inf)
    rows = [values, values[::-1], tuple(np.float64(v) for v in values)]
    args = argparse.Namespace(no_timestamp=True, out=None)
    _write_record(args, tuple(f"c{i}" for i in range(len(values))), _number_lines(rows),
                  "closed-form", 0.0)
    lines = capsys.readouterr().out.splitlines()[-len(rows):]
    for line, row in zip(lines, rows):
        assert line.split(",") == [format(v, ".17g") for v in row]
    # the (times x positions) records format each t and x once; every cell reads the same
    for fixed in ((), (1 / 3,), (-0.0, math.nan)):
        table = _table_lines(values, values[::-1], rows[:1] * len(values), *fixed)
        assert table == _number_lines([(t, x, *fixed, v) for t in values
                                       for x, v in zip(values[::-1], rows[0])])
