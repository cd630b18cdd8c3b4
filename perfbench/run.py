"""liouwave benchmark: one workload per process, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid|verify|hyperbolic --seed N \
        --seconds S --trace 0|1

The load is a closed loop with one caller: each operation goes in-process
through ``liouwave.cli.main`` with stdout captured (or through the public
library function where no command exists), and the next starts when it
returns.  A run repeats whole rounds of its workload's operations until
``--seconds`` have passed.  Each output is checked against references
computed before timing starts, in child processes that never import
liouwave (see reference.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_STARTS = 3
TAIL_BEYOND = 10
MIN_TAIL_OPS = 40
# Round statistics are taken at this percentile of a run's rounds.  This
# VM's speed steps by up to 1.8x for seconds to minutes; nearly every run
# spends some of its rounds in the slow state, so a high percentile reads
# the same state from run to run where the median flips between the two.
ROUND_PERCENTILE = 0.9
REFERENCE_WORKERS = 2
# the one block expected to fail, because of the fixed quadrature rule
KNOWN_FAILING = {"oscillatory"}

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HEADERS = {
    "eval-kernel": "t,X,Xp,value",
    "solve-hyperbolic": "t,x,y,value",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_liouwave():
    """Import liouwave.cli from the checkout's own src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "liouwave", "cli.py")):
        fail(f"no liouwave sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import liouwave.cli as cli
    import liouwave.hyperbolic as hyperbolic

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"liouwave was imported from {cli.__file__}, not from {SRC}")
    return cli, hyperbolic


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIOUWAVE_THREADS", None)
    return env


def compute_references(jobs: list, scratch: str) -> list:
    """Reference values per job, from up to REFERENCE_WORKERS liouwave-free processes."""
    workers = max(1, min(REFERENCE_WORKERS, os.cpu_count() or 1, len(jobs)))
    parts = [list(range(len(jobs)))[i::workers] for i in range(workers)]
    procs = []
    for n, part in enumerate(parts):
        src, dst = os.path.join(scratch, f"jobs-{n}.json"), os.path.join(scratch, f"refs-{n}.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump([jobs[i] for i in part], fh)
        procs.append((part, dst, subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py"), src, dst],
            cwd=ROOT, env=child_env(), stderr=subprocess.PIPE, text=True)))
    refs: list = [None] * len(jobs)
    errors = []
    for part, dst, proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            errors.append(err.strip())
            continue
        with open(dst, encoding="utf-8") as fh:
            for i, values in zip(part, json.load(fh)):
                refs[i] = values
    if errors:
        fail("reference computation failed: " + " | ".join(errors))
    return refs


def time_probe(probe_file: str, importtime: bool = False) -> tuple[float, str]:
    """Wall time of a fresh interpreter running the set-up probe, and its stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.join(HERE, "probe.py"), probe_file]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed, proc.stderr


# ---------------------------------------------------------------------------
# operations and the gate


@dataclass
class Pass:
    times: list = field(default_factory=list)
    good_results: int = 0
    rows: int = 0
    out_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    rounds: int = 0

    def per_round(self, stat) -> list:
        """stat of each round's operation times (every round runs the same operations)."""
        n = len(self.times) // self.rounds
        return [stat(self.times[i * n:(i + 1) * n]) for i in range(self.rounds)]


class Runner:
    def __init__(self, cli, hyperbolic, workload, refs):
        self.cli = cli
        self.hyperbolic = hyperbolic
        self.ops = workload.ops
        self.refs = refs
        self.verdicts: dict = {}
        self.worst_pass = 0.0
        self.least_fail = math.inf
        # library-call arguments are built once, outside the timed region
        self.call_args = {}
        for i, op in enumerate(self.ops):
            if op.call is not None:
                _, box, t, w = op.call
                self.call_args[i] = (hyperbolic.bump_profile_2d(*box), t,
                                     hyperbolic.HyperbolicPoint(*w))

    def execute(self, i: int):
        op = self.ops[i]
        if op.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(op.argv)
            return code, buf.getvalue()
        return 0, getattr(self.hyperbolic, op.call[0])(*self.call_args[i])

    def verdict(self, i: int, code: int, out) -> tuple[bool, int]:
        key = (i, code, out)
        if key not in self.verdicts:
            ok, rows, ratio = self.check(self.ops[i], code, out)
            if ok:
                self.worst_pass = max(self.worst_pass, ratio)
            else:
                self.least_fail = min(self.least_fail, ratio)
            self.verdicts[key] = (ok, rows)
        return self.verdicts[key]

    def check(self, op, code: int, out) -> tuple[bool, int, float]:
        """(passed, result rows, error as a multiple of the stated accuracy)."""
        if code != 0:
            return False, 0, math.inf
        if op.label == "verify":
            lines = out.splitlines()
            checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
            n = len(checks)
            ok = n > 0 and all(ln.startswith("PASS") for ln in checks) \
                and f"# {n}/{n} checks passed" in lines
            return ok, n, 0.0 if ok else math.inf
        ref = self.refs[op.ref_index]
        if op.call is not None:
            ratio = reference.relative_error([float(out)], ref) / op.accuracy
            return ratio <= 1.0, 1, ratio
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        if not lines or lines[0] != HEADERS.get(op.argv[0], "t,X,value"):
            return False, 0, math.inf
        try:
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        except ValueError:
            return False, 0, math.inf
        times = np.asarray(op.expect_times)
        if op.expect_positions:
            xs = np.asarray(op.expect_positions)
            want = (len(times) * len(xs), 4 if op.argv[0] == "eval-kernel" else 3)
            coords_ok = rows.shape == want and np.array_equal(rows[:, 0], np.repeat(times, len(xs))) \
                and np.array_equal(rows[:, 1], np.tile(xs, len(times)))
        else:
            coords_ok = rows.shape == (len(times), 4) and np.array_equal(rows[:, 0], times)
        if not coords_ok:
            return False, len(rows), math.inf
        ratio = reference.relative_error(rows[:, -1], ref) / op.accuracy
        return ratio <= 1.0, len(rows), ratio

    def run(self, seconds: float | None = None, rounds: int | None = None, into: Pass | None = None) -> Pass:
        """Whole rounds, until `rounds` are done or `seconds` have passed, added to `into`."""
        p = Pass() if into is None else into
        start = perf_counter()
        done = 0
        while True:
            for i, op in enumerate(self.ops):
                t0 = perf_counter()
                code, out = self.execute(i)
                p.times.append(perf_counter() - t0)
                ok, rows = self.verdict(i, code, out)
                p.attempted += 1
                p.rows += rows
                if op.argv is not None:
                    p.out_bytes += len(out)
                if ok:
                    p.good_results += rows
                else:
                    p.failed += 1
                    p.unexpected += op.label not in KNOWN_FAILING
            p.rounds += 1
            done += 1
            if rounds is not None and done >= rounds:
                return p
            if rounds is None and perf_counter() - start >= seconds:
                return p


# ---------------------------------------------------------------------------
# metrics


def round_percentile(values: list) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(ROUND_PERCENTILE * len(values)))]


def end_to_end(p: Pass, setup: list) -> tuple[dict, str]:
    p50_ms = 1e3 * round_percentile(p.per_round(statistics.median))
    ms = sorted(t * 1e3 for t in p.times)
    n = len(ms)
    if n >= MIN_TAIL_OPS:
        tail, which = ms[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.2f} of {n} operations"
    else:
        tail, which = p50_ms, f"op_p50_ms, as {n} operations are too few for a tail"
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "results_per_s": (p.good_results / p.rounds / round_percentile(p.per_round(sum)), "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, f"op_tail_ms is {which}"


LAYER_SITES = (
    "cli.main",
    "propagator.solve_cauchy", "propagator.solve_cauchy_regularized", "propagator.solve_on_grid",
    "reductions.constant_potential_solve", "reductions.telegraph_solve",
    "quadrature.panel_points",
    "profiles.eval", "profiles.read_profile_csv",
    "specfun.j0", "specfun.i0",
    "kernel.wave_kernel",
    "hyperbolic.hyperbolic_solve", "hyperbolic.profile_eval", "hyperbolic.hyperbolic_fourier_check",
    "fd_oracle.fd_wave_solve", "fd_oracle.fd_telegraph_solve",
)
COUNTS = (
    "quadrature.nodes", "profiles.eval.points", "specfun.j0.points", "specfun.i0.points",
    "hyperbolic.profile_eval.points", "fd_oracle.cell_updates", "verification.checks",
)


def per_layer(tracer, base: Pass, traced: Pass, imports: dict) -> dict:
    """Per-round figures from the traced pass; overhead against the untraced one."""
    r = traced.rounds
    metrics = {key: (value, "s") for key, value in imports.items()}
    for site in LAYER_SITES:
        calls, busy = tracer.site_stats(site)
        metrics[f"{site}.calls"] = (calls / r, "1/round")
        metrics[f"{site}.s"] = (busy / r, "s/round")
    metrics["cli.main.self_s"] = (tracer.self_time("cli.main") / r, "s/round")
    metrics["cli.out_bytes"] = (traced.out_bytes / r, "B/round")
    for key in COUNTS:
        metrics[key] = (tracer.counts[key] / r, "1/round")
    metrics["specfun.max_arg"] = (tracer.max_arg, "1")
    metrics["nodes_per_result"] = (tracer.counts["quadrature.nodes"] / max(traced.rows, 1), "1")
    fd_busy = sum(tracer.site_stats(s)[1] for s in ("fd_oracle.fd_wave_solve", "fd_oracle.fd_telegraph_solve"))
    metrics["fd_oracle.cell_updates_per_s"] = (
        tracer.counts["fd_oracle.cell_updates"] / fd_busy if fd_busy else 0.0, "1/s")
    for suite in workloads.VERIFY_SUITES.split(","):
        metrics[f"verification.{suite}.s"] = (tracer.site_stats(f"verification.{suite}")[1] / r, "s/round")
    untraced, with_trace = sum(base.times), sum(traced.times)
    metrics["trace.overhead_s"] = ((with_trace - untraced) / r, "s/round")
    metrics["trace.overhead_pct"] = (100.0 * (with_trace - untraced) / untraced, "%")
    metrics["trace.spans"] = (len(tracer.start) / r, "1/round")
    return metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ.pop("LIOUWAVE_THREADS", None)
    cli, hyperbolic = load_liouwave()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, scratch)
        refs = compute_references(wl.ref_jobs, scratch)
        probe_file = os.path.join(scratch, "probe.json")
        with open(probe_file, "w", encoding="utf-8") as fh:
            json.dump([{"argv": op.argv, "call": op.call} for op in wl.probe], fh)
        runner = Runner(cli, hyperbolic, wl, refs)

        if args.trace == 0:
            setup = [time_probe(probe_file)[0] for _ in range(SETUP_STARTS)]
            runner.run(rounds=1)  # warm-up; its outputs are checked like the rest
            p = runner.run(seconds=args.seconds)
            metrics, note = end_to_end(p, setup)
            note += ", set-up starts " + " ".join(f"{s:.3f}" for s in setup)
        else:
            _, stderr = time_probe(probe_file, importtime=True)
            runner.run(rounds=1)
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            # untraced and traced rounds alternate, so a step in machine
            # speed lands on both sides of the overhead
            base, p = Pass(), Pass()
            start = perf_counter()
            while perf_counter() - start < args.seconds:
                runner.run(rounds=1, into=base)
                patches.switch(True)
                runner.run(rounds=1, into=p)
                patches.switch(False)
            metrics = per_layer(tracer, base, p, tracing.import_times(stderr))
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz")
            tracer.dump(spans)
            note = f"spans written to {os.path.relpath(spans, ROOT)}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench: workload={args.workload} seed={args.seed} rounds={p.rounds} "
          f"operations={p.attempted} failed={p.failed} (unexpected {p.unexpected}); "
          f"worst passing error {runner.worst_pass:.2e} of its accuracy, "
          f"smallest failing error {runner.least_fail:.2e}; {note}")
    print(json.dumps({
        "correct": p.unexpected == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
