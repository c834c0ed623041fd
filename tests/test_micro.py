"""The benchmark's isolated layer timings run against this csym.

perfbench/micro.py calls csym by name (``PhotonState.record()``,
``exact.solve``, ``exact.nullspace``, ...), so an API change that breaks it
also breaks the traced benchmark run; this test catches that in tier-1.
"""

import importlib.util
import math
from pathlib import Path

MICRO = Path(__file__).resolve().parent.parent / "perfbench" / "micro.py"


def test_micro_metrics_are_five_finite_positive_timings():
    spec = importlib.util.spec_from_file_location("perfbench_micro", MICRO)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    metrics = micro.micro_metrics()
    assert tuple(metrics) == micro.NAMES and len(metrics) == 5
    assert all(math.isfinite(t) and t > 0 for t in metrics.values()), metrics
