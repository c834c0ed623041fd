"""Isolated layer timings on fixed inputs, one fresh interpreter.

Usage (from the repository root):

    python3 perfbench/micro.py --src src --out MICRO.json

Each timing is the median over a few batches of the seconds one operation
takes. The inputs do not depend on any seed:

- ``micro.matmul_8x8_s``: ``ExactMatrix.@`` on two 8x8 photon gamma matrices;
- ``micro.nullspace_256x64_s``: ``nullspace`` of the 256x64 photon
  conjugation-constraint system;
- ``micro.solve_maxwell_80x14_s``: one ``solve`` against the transposed
  80x14 Maxwell basis, averaged over its 14 rows as right-hand sides;
- ``micro.radical_add_s``: ``Radical.__add__`` on commensurable radicands;
- ``micro.evaluate_100pts_s``: ``PlaneWaveFunction.evaluate`` over 100 points.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from fractions import Fraction


NAMES = ("micro.matmul_8x8_s", "micro.nullspace_256x64_s", "micro.solve_maxwell_80x14_s",
         "micro.radical_add_s", "micro.evaluate_100pts_s")


def per_op(fn, ops: int, batches: int) -> float:
    """Median over ``batches`` of the seconds per call of ``fn`` (which does ``ops`` operations)."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / ops)
    return statistics.median(times)


def micro_metrics() -> dict[str, float]:
    import numpy as np

    exact = importlib.import_module("csym.exact")
    maxwell = importlib.import_module("csym.maxwell")
    photon = importlib.import_module("csym.photon")
    waves = importlib.import_module("csym.waves")

    gs = photon.build_gamma8()
    a, b = gs.g0, gs.g2

    def matmuls():
        for _ in range(200):
            a @ b

    system = photon.conjugation_constraint_rows(gs.vector, (1, -1, -1, -1), 8)
    if system.shape != (256, 64):
        raise AssertionError(f"photon constraint system is {system.shape}, expected (256, 64)")

    rows = maxwell.build_maxwell_system().rows
    basis_t = rows.transpose()
    targets = [exact.ExactMatrix.column(rows.row(i)) for i in range(rows.rows)]

    def solves():
        for t in targets:
            if exact.solve(basis_t, t) is None:
                raise AssertionError("a Maxwell row is not in its own span")

    r1 = waves.Radical(exact.ExactComplex(Fraction(3, 7), -2), Fraction(2, 3))
    r2 = waves.Radical(exact.ExactComplex(-1, Fraction(5, 11)), Fraction(8, 27))

    def adds():
        for _ in range(2000):
            r1 + r2

    state = photon.photon_plane_wave((Fraction(3, 5), Fraction(4, 5), 0), (0, 0, 1), Fraction(7, 3))
    rec = state.record()
    points = np.random.default_rng(0).uniform(-10.0, 10.0, size=(100, 4))

    def evaluations():
        for x in points:
            rec.evaluate(x)

    timings = (
        per_op(matmuls, 200, 5),
        per_op(lambda: exact.nullspace(system), 1, 3),
        per_op(solves, len(targets), 3),
        per_op(adds, 2000, 5),
        per_op(evaluations, 1, 5),
    )
    return dict(zip(NAMES, timings))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the csym package")
    parser.add_argument("--out", required=True, help="where to write the metrics as JSON")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(micro_metrics(), fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
