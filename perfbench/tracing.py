"""Per-layer tracing from outside the program.

Wrappers replace each layer's public function where its callers look it
up (``cli`` binds ``solve_cauchy`` at import, ``propagator`` binds ``_j0``
from scipy, ...).  Each call records a span (site, start, end, parent) in
flat in-memory arrays, plus counts such as points evaluated; the spans
are written out once, when the run ends.  A site's busy time counts only
its outermost spans, so a profile called from inside a profile is not
counted twice; self time is a span minus its direct child spans.
"""

from __future__ import annotations

import functools
import re
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.sites: list[str] = []
        self.site_ids: dict[str, int] = {}
        self.site: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.busy: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.max_arg = 0.0

    def _site(self, name: str) -> int:
        if name not in self.site_ids:
            self.site_ids[name] = len(self.sites)
            self.sites.append(name)
            self.active.append(0)
            self.busy.append(0.0)
            self.calls.append(0)
        return self.site_ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn with a span per call; count(tracer, args, kwargs, result) adds counts."""
        sid = self._site(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.site.append(sid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.active[sid] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                self.end[idx] = stop
                self.stack.pop()
                self.active[sid] -= 1
                self.calls[sid] += 1
                if self.active[sid] == 0:
                    self.busy[sid] += stop - self.start[idx]
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def self_time(self, name: str) -> float:
        sid = self.site_ids.get(name)
        if sid is None:
            return 0.0
        site = np.frombuffer(self.site, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        mine = site == sid
        child = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[child], dur[child])
        return float(np.sum(dur[mine] - covered[mine]))

    def site_stats(self, name: str) -> tuple[int, float]:
        sid = self.site_ids.get(name)
        return (0, 0.0) if sid is None else (self.calls[sid], self.busy[sid])

    def dump(self, path: str) -> None:
        """Write the spans as arrays: site index, parent span (-1 at top), start, end."""
        np.savez(path, sites=np.array(self.sites), site=np.frombuffer(self.site, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))


# ---------------------------------------------------------------------------
# counters


def _points(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += np.size(args[1])
    return count


def _bessel(key):
    def count(tracer, args, kwargs, result):
        arg = np.asarray(args[0])
        tracer.counts[key + ".points"] += arg.size
        if arg.size:
            tracer.max_arg = max(tracer.max_arg, float(np.max(np.abs(arg))))
    return count


def _nodes(tracer, args, kwargs, result):
    tracer.counts["quadrature.nodes"] += len(result[0])


def _disk_points(tracer, args, kwargs, result):
    tracer.counts["hyperbolic.profile_eval.points"] += np.broadcast(args[1], args[2]).size


def _cells(tracer, args, kwargs, result):
    tracer.counts["fd_oracle.cell_updates"] += result.attrs["steps"] * len(result.positions)


def _checks(tracer, args, kwargs, result):
    tracer.counts["verification.checks"] += len(result)


# ---------------------------------------------------------------------------
# installation

# (site, owner module, attribute, modules whose global binding is replaced, counter)
FUNCTION_SITES = (
    ("propagator.solve_cauchy", "propagator", "solve_cauchy",
     ("propagator", "cli", "hyperbolic", "verification"), None),
    ("propagator.solve_cauchy_regularized", "propagator", "solve_cauchy_regularized",
     ("propagator", "cli", "verification"), None),
    ("propagator.solve_on_grid", "propagator", "solve_on_grid", ("propagator",), None),
    ("reductions.constant_potential_solve", "reductions", "constant_potential_solve",
     ("reductions", "cli", "verification"), None),
    ("reductions.telegraph_solve", "reductions", "telegraph_solve",
     ("reductions", "cli", "verification"), None),
    ("quadrature.panel_points", "quadrature", "panel_points",
     ("quadrature", "propagator", "reductions", "hyperbolic"), _nodes),
    ("profiles.read_profile_csv", "profiles", "read_profile_csv", ("profiles", "cli"), None),
    ("specfun.j0", "propagator", "_j0", ("propagator", "reductions"), _bessel("specfun.j0")),
    ("specfun.i0", "reductions", "_i0", ("reductions",), _bessel("specfun.i0")),
    ("kernel.wave_kernel", "kernel", "wave_kernel", ("kernel", "cli"), None),
    ("hyperbolic.hyperbolic_solve", "hyperbolic", "hyperbolic_solve",
     ("hyperbolic", "cli", "verification"), None),
    ("hyperbolic.hyperbolic_fourier_check", "hyperbolic", "hyperbolic_fourier_check",
     ("hyperbolic", "verification"), None),
    ("fd_oracle.fd_wave_solve", "fd_oracle", "fd_wave_solve", ("fd_oracle", "verification"), _cells),
    ("fd_oracle.fd_telegraph_solve", "fd_oracle", "fd_telegraph_solve",
     ("fd_oracle", "verification"), _cells),
)


class Patches:
    """Wrapped call sites, switched on and off between rounds."""

    def __init__(self):
        self.items = []

    def add(self, target, key, wrapped) -> None:
        if isinstance(target, dict):
            self.items.append((target.__setitem__, key, target[key], wrapped))
        else:
            self.items.append((functools.partial(setattr, target), key, getattr(target, key), wrapped))

    def switch(self, on: bool) -> None:
        for setter, key, original, wrapped in self.items:
            setter(key, wrapped if on else original)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced call site of the loaded liouwave modules; returned switched off."""
    mod = {name: sys.modules[f"liouwave.{name}"] for name in (
        "cli", "propagator", "reductions", "quadrature", "profiles", "kernel",
        "hyperbolic", "fd_oracle", "verification")}
    patches = Patches()
    patches.add(mod["cli"], "main", tracer.wrap("cli.main", mod["cli"].main))
    for site, owner, attr, users, count in FUNCTION_SITES:
        fn = getattr(mod[owner], attr, None)
        if fn is None:
            print(f"trace: {owner}.{attr} not found; {site} reads 0", file=sys.stderr)
            continue
        wrapped = tracer.wrap(site, fn, count)
        for user in users:
            if hasattr(mod[user], attr):
                patches.add(mod[user], attr, wrapped)
    profile_cls = mod["profiles"].InitialProfile
    patches.add(profile_cls, "__call__", tracer.wrap("profiles.eval", profile_cls.__call__,
                                                     _points("profiles.eval.points")))
    disk_cls = mod["hyperbolic"].HyperbolicProfile
    patches.add(disk_cls, "__call__",
                tracer.wrap("hyperbolic.profile_eval", disk_cls.__call__, _disk_points))
    suites = mod["verification"].SUITES
    for name in list(suites):
        patches.add(suites, name, tracer.wrap(f"verification.{name}", suites[name], _checks))
    return patches


# ---------------------------------------------------------------------------
# import breakdown

IMPORT_MODULES = {
    "import.liouwave_cli_s": "liouwave.cli",
    "import.scipy_interpolate_s": "scipy.interpolate",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_integrate_s": "scipy.integrate",
}

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output (0 if never loaded)."""
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(3)] = int(m.group(2)) * 1e-6
    return {key: cumulative.get(module, 0.0) for key, module in IMPORT_MODULES.items()}
