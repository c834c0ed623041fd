"""Traced in-process run of the csym CLI with per-layer timers.

Usage (from the repository root):

    python3 perfbench/layertrace.py --src src --out STATS.json -- verify ... --json REPORT --quiet

Every public function of every csym module is wrapped in a timer, at every
place a module binds it: ``maxwell``, ``photon``, ``electron`` and ``waves``
import the elimination functions by name, and ``report`` keeps its suite
runners in a dict, so patching the defining module alone would miss calls.
Two methods are wrapped on their class (``ExactMatrix.__matmul__`` and
``PlaneWaveFunction.evaluate``), and the private ``exact._rref`` is wrapped
to count the cells of every matrix handed to elimination.

Self time is a call's duration minus the time spent in wrapped callees, so
the self times of all wrapped functions plus the unwrapped top level add up
to the run's wall time. The csym sources are not changed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("exact", "waves", "sampling", "signgroup", "maxwell", "photon",
           "electron", "kinematics", "report")
METHODS = (("exact", "ExactMatrix", "__matmul__"), ("waves", "PlaneWaveFunction", "evaluate"))
ELIMINATION = frozenset({"exact._rref", "exact.matrix_rank", "exact.nullspace",
                         "exact.solve", "exact.rowspace_equal", "exact.in_span"})
SUITES = ("group", "maxwell", "photon", "electron", "kinematics")


class Tracer:
    """Per-function call counts, self and total seconds, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, total_s]
        self.stack: list[list[float]] = []  # per active call: [time in wrapped callees]
        self.active: dict[str, int] = {}  # key -> recursion depth
        self.elim_depth = 0
        self.elim_s = 0.0
        self.elim_cells = 0

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        self.active[key] = 0
        elim = key in ELIMINATION
        count_cells = key == "exact._rref"
        stack, active, clock = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if count_cells and args[0]:
                self.elim_cells += len(args[0]) * len(args[0][0])
            if elim:
                self.elim_depth += 1
            active[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                active[key] -= 1
                stat[0] += 1
                stat[1] += dur - frame[0]
                if not active[key]:
                    stat[2] += dur
                if stack:
                    stack[-1][0] += dur
                if elim:
                    self.elim_depth -= 1
                    if not self.elim_depth:
                        self.elim_s += dur

        return timed

    def install(self) -> None:
        """Wrap every traced function wherever a csym module binds it."""
        wrapped = {}  # id(original) -> wrapper
        for name in MODULES:
            mod = importlib.import_module(f"csym.{name}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or f"{name}.{attr}" == "exact._rref")):
                    wrapped[id(obj)] = self.wrap(f"{name}.{attr}", obj)
        for name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"csym.{name}"), cls_name)
            setattr(cls, meth, self.wrap(f"{name}.{cls_name}.{meth}", vars(cls)[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "csym" and not mod_name.startswith("csym."):
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    namespace[attr] = wrapped[id(obj)]
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped and inspect.isfunction(v):
                            obj[k] = wrapped[id(v)]

    def calls(self, key: str) -> int:
        return self.stats[key][0]

    def self_s(self, key: str) -> float:
        return self.stats[key][1]

    def total_s(self, key: str) -> float:
        return self.stats[key][2]

    def module_self_s(self, module: str) -> float:
        return sum(s[1] for k, s in self.stats.items() if k.split(".")[0] == module)


def layer_metrics(tr: Tracer, run_s: float) -> dict[str, float]:
    """The named per-layer metrics of one traced run (see perfbench/README.md)."""
    m: dict[str, float] = {}
    for fn in ("solve", "matrix_rank", "nullspace", "rowspace_equal", "ExactMatrix.__matmul__"):
        key = f"exact.{fn}"
        m[f"{key}.calls"] = tr.calls(key)
        m[f"{key}.self_s"] = tr.self_s(key)
        m[f"{key}.total_s"] = tr.total_s(key)
    m["exact._rref.calls"] = tr.calls("exact._rref")
    m["exact.elim_cells"] = tr.elim_cells
    m["exact.elim_s"] = tr.elim_s
    m["exact.elim_share"] = tr.elim_s / run_s
    for key in ("maxwell.check_invariance", "maxwell.transform_system"):
        m[f"{key}.calls"] = tr.calls(key)
        m[f"{key}.self_s"] = tr.self_s(key)
        m[f"{key}.total_s"] = tr.total_s(key)
    m["photon.solve_conjugation_8.total_s"] = tr.total_s("photon.solve_conjugation_8")
    m["electron.solve_UQ.total_s"] = tr.total_s("electron.solve_UQ")
    for key in ("photon.apply_C_photon", "photon.apply_Q_photon", "photon.photon_plane_wave",
                "electron.apply_C_spinor", "electron.apply_Q_spinor", "electron.free_residual"):
        m[f"{key}.self_s"] = tr.self_s(key)
    m["electron.build_transform_table.calls"] = tr.calls("electron.build_transform_table")
    m["waves.PlaneWaveFunction.evaluate.calls"] = tr.calls("waves.PlaneWaveFunction.evaluate")
    m["waves.PlaneWaveFunction.evaluate.self_s"] = tr.self_s("waves.PlaneWaveFunction.evaluate")
    m["kinematics.infeasibility_scan.self_s"] = tr.self_s("kinematics.infeasibility_scan")
    m["signgroup.enumerate_distinct.calls"] = tr.calls("signgroup.enumerate_distinct")
    m["signgroup.enumerate_distinct.self_s"] = tr.self_s("signgroup.enumerate_distinct")
    m["sampling.self_s"] = tr.module_self_s("sampling")
    for suite in SUITES:
        m[f"report.{suite}_s"] = tr.total_s(f"report.run_{suite}_suite")
    m["report.self_s"] = tr.module_self_s("report")
    m["trace.run_s"] = run_s
    return m


def traced_run(src: str, argv: list[str]) -> tuple[int, dict[str, float], Tracer]:
    """Run ``csym`` with ``argv`` in this process under the tracer."""
    sys.path.insert(0, src)
    cli = importlib.import_module("csym.cli")
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    return code, layer_metrics(tracer, run_s), tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the csym package")
    parser.add_argument("--out", required=True, help="where to write the metrics as JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the csym CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code, metrics, tracer = traced_run(args.src, argv)
    table = {k: {"calls": s[0], "self_s": s[1], "total_s": s[2]}
             for k, s in sorted(tracer.stats.items()) if s[0]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "metrics": metrics, "functions": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
