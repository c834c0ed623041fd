"""tools/report_grid.py lists the byte-identity grid its docstring describes.

The grid's runs are child processes; one test runs them on a stand-in csym
package, the others only read the config table.
"""

import importlib.util
import json
from pathlib import Path

from csym.cli import build_parser
from csym.report import LAMBDA_TOKENS

ROOT = Path(__file__).resolve().parents[1]


def _report_grid():
    spec = importlib.util.spec_from_file_location("report_grid", ROOT / "tools" / "report_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_has_the_sixteen_documented_configs():
    defaults = {f"default-seed{s}-lambda{lam}" for s in (0, 1, 7) for lam in ("1", "-1", "i", "-i")}
    want = defaults | {"exact", "sampled", "electron-fixed", "electron-flipped"}
    assert set(_report_grid().grid()) == want and len(want) == 16


def test_grid_runs_every_accepted_lambda():
    assert _report_grid().LAMBDAS == tuple(LAMBDA_TOKENS)


def test_every_config_parses_with_the_cli_flags_it_runs_with():
    parser = build_parser()
    for name, args in _report_grid().grid().items():
        parsed = parser.parse_args([*args, "--quiet", "--json", f"{name}.json"])
        assert parsed.command == "verify" and parsed.quiet, name


def test_workload_configs_are_the_benchmark_args():
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    grid = _report_grid().grid()
    for name in ("exact", "sampled"):
        assert grid[name] == workloads[name]["args"]


def test_a_run_that_dies_leaves_no_stale_report(tmp_path):
    # a csym whose cli exits 1 before writing, the exit code of an honest red
    package = tmp_path / "src" / "csym"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("raise SystemExit(1)\n")
    out = tmp_path / "out"
    out.mkdir()
    report_grid = _report_grid()
    names = list(report_grid.grid())
    for name in names:
        (out / f"{name}.json").write_text("{}\n")  # the reports of an earlier grid
    assert report_grid.main(["--src", str(tmp_path / "src"), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["exit_codes.txt"]
    assert (out / "exit_codes.txt").read_text() == "".join(f"{n} 1\n" for n in sorted(names))
