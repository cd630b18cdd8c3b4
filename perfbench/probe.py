"""Set-up probe: a fresh interpreter imports liouwave.cli, then runs the first
operation of each kind once, untimed by itself.  run.py times the whole
process from launch to exit; that wall time is one ``setup_s`` sample.

Usage: python3 perfbench/probe.py OPS.json   (from the checkout root)
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import liouwave.cli as cli  # noqa: E402


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        ops = json.load(fh)
    for op in ops:
        if op["argv"] is not None:
            # the exit code is judged by the timed runs, not here
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(op["argv"])
        else:
            from liouwave.hyperbolic import HyperbolicPoint, bump_profile_2d, hyperbolic_fourier_check

            _, box, t, w = op["call"]
            hyperbolic_fourier_check(bump_profile_2d(*box), t, HyperbolicPoint(*w))


if __name__ == "__main__":
    main(sys.argv[1])
