"""Run two sets of ten seeds per workload and summarize every metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --label "parent abc1234" --out perfbench/BASELINE.json

Every workload in ``workloads.json`` is run, those that ``BENCHMARK.json``
lists first, at the run length that ``BENCHMARK.json`` fixes. The summary is
written after each workload. Each workload gets two sets of untraced runs of
``run.py``, ten seeds each (set 1 uses seeds 400-409, set 2 uses 500-509).
The two sets are interleaved, run by run, and the set that goes first
alternates, so both meet the same drift of the host's speed. Then come two
traced runs on seed 400, whose counts must repeat exactly.

For each end-to-end metric it prints, per set, the median over the runs and
the spread (the distance between the quartiles as a share of the median),
and the shift of the second set's median from the first's, as a share of
the first. It marks a metric that breaks the bound in ``BENCHMARK.json``:
a spread above the bound (``setup_s`` excepted) or a shift worse than it.
Any run that fails the correctness gate stops it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10  # untraced runs per set, one seed each
SETS = 2  # sets of the same code, made side by side, must agree within the bounds
FIRST_SEED = 400  # run i of set k uses seed FIRST_SEED + 100 * k + i
TRACED_RUNS = 2  # traced runs per workload, on the first seed, to show counts repeat


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="what was measured, such as a commit id")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()

    seeds = [[FIRST_SEED + 100 * k + i for i in range(RUNS)] for k in range(SETS)]
    out = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "runs": RUNS, "seconds": seconds, "seeds": seeds,
        "workloads": {},
    }
    listed = {w["name"] for w in bench["workloads"]}
    for workload in sorted(spec, key=lambda w: w not in listed):  # BENCHMARK.json's first
        results: list[list[dict]] = [[] for _ in range(SETS)]
        for i in range(RUNS):
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for k in order:
                results[k].append(one_run(workload, seeds[k][i], seconds, 0))
        entry = {"args": spec[workload]["args"], "sets": [], "median_shift": {}}
        for runs in results:
            entry["sets"].append({
                "repetitions_per_run": [r["attempted"] for r in runs],
                "end_to_end": {name: {**summarize([r["metrics"][name]["value"] for r in runs]),
                                      "unit": first["unit"]}
                               for name, first in runs[0]["metrics"].items()}})
        print(f"{workload}: {' '.join(spec[workload]['args'])} --seed <seed>, {seconds} s runs")
        for k, s in enumerate(entry["sets"], 1):
            print(f"  set {k} repetitions per run: {s['repetitions_per_run']}")
        for name, metric in metrics.items():
            sets = [s["end_to_end"][name] for s in entry["sets"]]
            first, last = sets[0]["median"], sets[-1]["median"]
            shift = (last - first) / first if first else 0.0
            entry["median_shift"][name] = shift
            worse = shift if metric["better"] == "lower" else -shift
            spread_ok = name == "setup_s" or all(s["spread"] <= metric["bound"] for s in sets)
            verdict = "ok" if spread_ok and worse <= metric["bound"] else "OUT OF BOUND"
            per_set = "  ".join(f"set {k} {s['median']:.6g} (spread {s['spread']:.3f}, "
                                f"n={len(s['values'])})" for k, s in enumerate(sets, 1))
            print(f"  {name:17} {metric['unit']:5} {per_set}  shift {shift:+.3f}  "
                  f"bound {metric['bound']}  {verdict}")
        traced = [one_run(workload, FIRST_SEED, seconds, 1) for _ in range(TRACED_RUNS)]
        counts = {k: [t["metrics"][k]["value"] for t in traced]
                  for k, v in traced[0]["metrics"].items() if v["unit"] == "count"}
        unstable = {k: v for k, v in counts.items() if len(set(v)) != 1}
        if unstable:
            raise SystemExit(f"{workload}: traced counts differ between runs: {unstable}")
        entry["per_layer"] = {
            k: {"median": statistics.median(t["metrics"][k]["value"] for t in traced),
                "unit": v["unit"]}
            for k, v in traced[0]["metrics"].items()}
        print(f"  traced: {len(traced)} runs, {len(counts)} counts repeat exactly, "
              f"trace.overhead {entry['per_layer']['trace.overhead']['median']:.3f}")
        out["workloads"][workload] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
