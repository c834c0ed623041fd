"""Tests of the benchmark's tracer and of its agreement with BENCHMARK.json.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]

sys.path.insert(0, str(HERE))
import micro  # noqa: E402
import run as bench  # noqa: E402


def traced(tmp_path: Path, argv: list[str], tag: str) -> tuple[dict, bytes]:
    report, stats = tmp_path / f"{tag}.json", tmp_path / f"{tag}-stats.json"
    subprocess.run([sys.executable, str(HERE / "layertrace.py"), "--src", str(SRC),
                    "--out", str(stats), "--", *argv, "--json", str(report), "--quiet"],
                   check=True, cwd=ROOT, timeout=300)
    return json.loads(stats.read_text()), report.read_bytes()


def untraced(tmp_path: Path, argv: list[str]) -> tuple[int, bytes]:
    report = tmp_path / "untraced.json"
    proc = subprocess.run([sys.executable, "-m", "csym.cli", *argv, "--json", str(report),
                           "--quiet"],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300)
    return proc.returncode, report.read_bytes()


# the sampled workload with fewer samples keeps the test short; the traced
# code paths are the same
@pytest.mark.parametrize("workload, extra", [("exact", []), ("sampled", ["--samples", "20"])])
def test_counts_repeat_and_traced_report_matches(tmp_path, workload, extra):
    argv = WORKLOADS[workload]["args"] + ["--seed", "3"] + extra
    first, first_report = traced(tmp_path, argv, "a")
    second, second_report = traced(tmp_path, argv, "b")
    code, plain_report = untraced(tmp_path, argv)

    counts = [k for k in first["metrics"] if bench.per_layer_unit(k) == "count"]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert {k: v["calls"] for k, v in first["functions"].items()} == {
        k: v["calls"] for k, v in second["functions"].items()}
    assert first["metrics"]["exact.elim_cells"] > 0

    assert first["exit_code"] == second["exit_code"] == code == 1
    assert first_report == second_report == plain_report


def test_by_name_imports_are_traced(tmp_path):
    """photon imports nullspace by name; its calls must still be counted."""
    stats, _ = traced(tmp_path, ["verify", "--suite", "photon", "--suite", "electron",
                                 "--samples", "1"], "pe")
    functions = stats["functions"]
    assert functions["photon.solve_conjugation_8"]["calls"] >= 1
    assert functions["exact.nullspace"]["calls"] >= functions["photon.solve_conjugation_8"]["calls"]
    assert stats["metrics"]["report.electron_s"] > 0  # runner reached through a dict


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    stats, _ = traced(tmp_path, ["verify", "--suite", "electron", "--samples", "1"], "e")
    traced_names = set(stats["metrics"]) | {"trace.overhead"} | set(micro.NAMES)
    assert {m["name"] for m in spec["per_layer"]} == traced_names
    for m in spec["per_layer"]:
        assert m["unit"] == bench.per_layer_unit(m["name"]), m["name"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
