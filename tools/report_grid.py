"""Write the JSON reports and exit codes of the byte-identity grid.

Usage, from the root of a checkout:

    python3 tools/report_grid.py --src src --out /tmp/grid-new
    python3 tools/report_grid.py --src /path/to/other/checkout/src --out /tmp/grid-old
    diff -r /tmp/grid-old /tmp/grid-new

The grid is the one a refactor or performance change must leave
byte-identical: the default config at seeds {0, 1, 7} x lambda {1, -1, i, -i},
the `exact` and `sampled` workload args of perfbench/workloads.json, and the
electron suite under each potential rule.  Each config runs `csym verify` in
its own interpreter with csym imported from SRC, at most two at a time.  OUT
receives one `<config>.json` report per config and `exit_codes.txt`, one
`<config> <exit code>` line per config.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 7)
LAMBDAS = ("1", "-1", "i", "-i")
WORKERS = 2


def grid() -> dict[str, list[str]]:
    """Config name -> `csym verify` arguments."""
    configs = {
        f"default-seed{seed}-lambda{lam}": ["verify", "--seed", str(seed), f"--lambda={lam}"]
        for seed in SEEDS for lam in LAMBDAS
    }
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    for name in ("exact", "sampled"):
        configs[name] = list(workloads[name]["args"])
    for rule in ("fixed", "flipped"):
        configs[f"electron-{rule}"] = ["verify", "--suite", "electron", "--potential-rule", rule]
    return configs


def run_one(src: Path, out: Path, name: str, args: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "csym.cli", *args, "--quiet", "--json", str(out / f"{name}.json")]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="directory that holds the csym package")
    parser.add_argument("--out", required=True, type=Path, help="directory for the reports")
    args = parser.parse_args(argv)
    src, out = args.src.resolve(), args.out.resolve()
    if not (src / "csym" / "__init__.py").is_file():
        parser.error(f"{src} holds no csym package")
    out.mkdir(parents=True, exist_ok=True)
    configs = grid()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        codes = dict(zip(configs, pool.map(lambda item: run_one(src, out, *item), configs.items())))
    lines = [f"{name} {code}\n" for name, code in sorted(codes.items())]
    (out / "exit_codes.txt").write_text("".join(lines))
    sys.stdout.write("".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
