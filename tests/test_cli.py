import numpy as np

from liouwave import BumpProfile, write_profile_csv
from liouwave.cli import main
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


def test_eval_kernel_header_and_cone(tmp_path):
    out = tmp_path / "kernel.csv"
    rc = main([
        "eval-kernel", "--k", "1", "--t", "1", "--x-grid", "-2:2:5",
        "--out", str(out), "--no-timestamp",
    ])
    assert rc == 0
    text = _read(out)
    assert "t,X,Xp,value" in text
    rows = _data_rows(text)
    assert len(rows) == 5
    values = [float(r.split(",")[3]) for r in rows]
    assert np.isnan(values[0]) and np.isnan(values[-1])  # outside the cone
    assert values[1] == 1.0 and values[3] == 1.0  # on the cone


def test_solve_const_and_telegraph_run(tmp_path):
    rc = main([
        "solve-const", "--k", "1", "--profile", "bump:-1:1", "--t", "1",
        "--x-grid", "-2:2:5", "--out", str(tmp_path / "c.csv"), "--no-timestamp",
    ])
    assert rc == 0
    rc = main([
        "solve-telegraph", "--alpha", "2", "--beta", "0", "--profile", "bump:-1:1",
        "--t", "0.5", "--x-grid", "-2:2:5", "--out", str(tmp_path / "t.csv"),
        "--no-timestamp",
    ])
    assert rc == 0


def test_solve_hyperbolic_doc_format(tmp_path):
    out = tmp_path / "h.doc"
    rc = main([
        "solve-hyperbolic", "--profile", "bump2:-1:1:1:2", "--w", "0,1.4",
        "--t", "0.5,1", "--format", "doc", "--out", str(out), "--no-timestamp",
    ])
    assert rc == 0
    text = _read(out)
    assert "columns: t,x,y,value" in text
    assert "rows: 2" in text
    assert "provenance: quadrature" in text


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
    capsys.readouterr()


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
