"""Suite runner, report serialization, and the command-line interface."""

import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from csym import cli, electron, maxwell, photon, report as report_module, signgroup
from csym.cli import build_parser
from csym.gamma import GammaIdentityError
from csym.report import (
    SUITES,
    CheckResult,
    RunConfig,
    SuiteWorkerError,
    VerificationReport,
    emit,
    report_to_dict,
    run,
)
from csym.waves import PlaneWaveFunction

KNOWN_FAILING = {"photon.gamma5-product"}


@pytest.fixture(scope="module")
def full_report():
    return run(RunConfig(samples=20))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.selected_suites() == ("group", "maxwell", "photon", "electron", "kinematics")
        assert cfg.samples == 100 and cfg.seed == 0
        assert cfg.tolerance == 1e-12 and cfg.lam == "-i" and cfg.potential_rule == "both"

    def test_unknown_suite_named(self):
        with pytest.raises(ValueError, match="unknown suite 'plasma'"):
            RunConfig(suites=("plasma",))

    def test_bad_fields_named(self):
        with pytest.raises(ValueError, match="samples"):
            RunConfig(samples=0)
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(tolerance=-1.0)
        with pytest.raises(ValueError, match="lambda"):
            RunConfig(lam="2i")
        # the report echoes the token, so a second spelling would write other bytes
        with pytest.raises(ValueError, match=r"^lambda must be one of \['-1', '-i', '1', 'i'\], "
                                             r"got '\+i'$"):
            RunConfig(lam="+i")
        with pytest.raises(ValueError, match="potential_rule"):
            RunConfig(potential_rule="spiral")

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", "100"), ("samples", True),
        ("seed", 1.5), ("seed", None), ("seed", False),
    ])
    def test_non_int_count_rejected(self, field, value):
        # 2.5 samples used to fail photon checks, a 1.5 seed to crash numpy
        with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field, value, invariant", [
        ("tolerance", True, "a number"), ("tolerance", "1e-12", "a number"),
        ("lam", ["-i"], "a str"), ("potential_rule", 1, "a str"),
    ])
    def test_mistyped_field_named(self, field, value, invariant):
        # True was read as a tolerance of 1.0; the others raised a TypeError naming no field
        with pytest.raises(ValueError, match=f"{field} must be {invariant}, got "):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("suites", [None, {"group"}])
    def test_non_sequence_suites_rejected(self, suites):
        with pytest.raises(ValueError, match="suites must be a tuple of suite names"):
            RunConfig(suites=suites)

    def test_list_suites_accepted(self):
        assert RunConfig(suites=["group"]).selected_suites() == ("group",)

    def test_bare_string_suites_rejected(self):
        # a string would be read letter by letter: "unknown suite 'g'"
        with pytest.raises(ValueError, match="suites must be a tuple of suite names"):
            RunConfig(suites="group")

    @pytest.mark.parametrize("tolerance, invariant", [
        (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "positive"),
    ])
    def test_non_finite_tolerance_rejected(self, tolerance, invariant):
        # with inf every spot check would pass whatever it measures
        with pytest.raises(ValueError, match=f"tolerance must be {invariant}"):
            RunConfig(tolerance=tolerance)


class TestRunner:
    def test_suite_filtering(self):
        report = run(RunConfig(suites=("group",), samples=5))
        assert report.total > 0
        assert {c.suite for c in report.checks} == {"group"}
        assert report.all_passed

    def test_full_run_statuses(self, full_report):
        failing = {c.id for c in full_report.checks if c.status == "fail"}
        assert failing == KNOWN_FAILING
        assert full_report.failed == len(KNOWN_FAILING)

    def test_checks_sorted_by_id(self, full_report):
        ids = [c.id for c in full_report.checks]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_failing_checks_carry_details(self, full_report):
        for c in full_report.checks:
            if c.status == "fail":
                assert c.details

    def test_every_check_carries_reference(self, full_report):
        assert all(c.reference for c in full_report.checks)

    def test_deterministic(self):
        cfg = RunConfig(suites=("kinematics",), samples=10, seed=3)
        assert report_to_dict(run(cfg)) == report_to_dict(run(cfg))

    def test_corrupted_gamma_injection(self, monkeypatch, corrupt_gamma):
        build = photon.build_gamma8
        monkeypatch.setattr(photon, "build_gamma8",
                            lambda: corrupt_gamma(build(), photon.GAMMA8, "g1", 0, 1))
        report = run(RunConfig(suites=("photon",), samples=5))
        by_id = {c.id: c for c in report.checks}
        bad = by_id["photon.gamma-defining-identities"]
        assert bad.status == "fail"
        assert "anticommutation" in bad.details or "squared" in bad.details
        assert not report.all_passed

    def test_corrupted_gamma4_fails_its_check(self, monkeypatch, corrupt_gamma):
        build = electron.build_gamma4

        def corrupted():
            return corrupt_gamma(build(), electron.GAMMA4, "g2", 0, 3)

        with pytest.raises(GammaIdentityError) as rejected:
            corrupted()
        monkeypatch.setattr(electron, "build_gamma4", corrupted)
        report = run(RunConfig(suites=("electron",), samples=5))
        (bad,) = report.checks  # the suite stops after the rejected set
        assert bad.id == "electron.gamma-defining-identities"
        assert bad.status == "fail"
        assert bad.details == str(rejected.value)
        assert "anticommutation failed: {g1, g2}" in bad.details

    @pytest.mark.parametrize("suite, module, factory, broken", [
        ("maxwell", maxwell, "build_maxwell_system",
         {"system-shape", "invariance-all-sixteen", "mutation-control",
          "plane-wave-residual", "wrong-polarity-control"}),
        ("group", signgroup, "generate_g8",
         {"sign-group-order", "sign-group-abelian-involutions", "sign-group-not-cyclic"}),
    ])
    def test_setup_failure_fails_only_its_checks(self, monkeypatch, suite, module, factory,
                                                  broken):
        def defective():
            raise RuntimeError("defective setup")

        monkeypatch.setattr(module, factory, defective)
        report = run(RunConfig(suites=(suite,), samples=1))
        statuses = {c.id.split(".", 1)[1]: c for c in report.checks}
        assert len(statuses) == 8
        for check_id, c in statuses.items():
            if check_id in broken:
                assert c.status == "fail", check_id
                assert c.details == "check raised RuntimeError: defective setup"
            else:
                assert c.status == "pass", check_id

    @pytest.mark.parametrize("suite, module, factory", [
        ("electron", electron, "build_transform_table"),
        ("maxwell", signgroup, "enumerate_distinct"),
    ])
    def test_suite_fixture_built_once(self, monkeypatch, suite, module, factory):
        calls = []
        original = getattr(module, factory)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, factory, counted)
        report = run(RunConfig(suites=(suite,), samples=1))
        assert {c.suite for c in report.checks} == {suite}
        assert report.all_passed
        assert len(calls) == 1

    def test_every_suite_dispatches_to_its_named_runner(self, monkeypatch):
        # perfbench/layertrace.py times each suite through report.run_<suite>_suite
        reached = []
        for suite in SUITES:
            runner = getattr(report_module, f"run_{suite}_suite")
            assert inspect.isfunction(runner) and runner.__module__ == "csym.report"
            assert list(inspect.signature(runner).parameters) == ["config"]
            monkeypatch.setattr(report_module, f"run_{suite}_suite",
                                lambda config, suite=suite: reached.append(suite) or [])
        assert run(RunConfig()).total == 0
        assert tuple(reached) == SUITES

    @pytest.mark.parametrize("suite", ["photon", "electron"])
    def test_nan_gap_fails_pointwise_check(self, monkeypatch, suite):
        # NaN for every second record: a running max() would drop these gaps
        evaluate = PlaneWaveFunction.evaluate
        calls = []

        def every_second_nan(rec, x):
            calls.append(None)
            value = evaluate(rec, x)
            return np.full_like(value, np.nan) if len(calls) % 2 == 0 else value

        monkeypatch.setattr(PlaneWaveFunction, "evaluate", every_second_nan)
        report = run(RunConfig(suites=(suite,), samples=3))
        check = {c.id: c for c in report.checks}[f"{suite}.cq-pointwise-equality"]
        assert calls
        assert check.status == "fail"
        assert check.details.endswith("worst relative gap nan")


class TestEmit:
    def test_empty_summary(self):
        report = VerificationReport(config=RunConfig(), checks=())
        data = json.loads(emit(report, fmt="json"))
        assert data["summary"] == {"total": 0, "passed": 0, "failed": 0}

    def test_mixed_summary(self):
        checks = (
            CheckResult("a.x", "a", "first", "ref", "pass", None),
            CheckResult("a.y", "a", "second", "ref", "fail", "boom"),
        )
        report = VerificationReport(config=RunConfig(), checks=checks)
        data = json.loads(emit(report, fmt="json"))
        assert data["summary"] == {"total": 2, "passed": 1, "failed": 1}

    def test_fail_requires_details(self):
        with pytest.raises(ValueError, match="details"):
            CheckResult("a.x", "a", "first", "ref", "fail", None)

    def test_json_schema_shape(self, full_report):
        data = json.loads(emit(full_report, fmt="json"))
        assert set(data) == {"version", "config", "checks", "summary"}
        assert set(data["config"]) == {
            "suites", "samples", "seed", "tolerance", "lambda", "potential_rule",
        }
        for c in data["checks"]:
            assert set(c) == {"id", "suite", "description", "reference", "status", "details"}
            assert c["status"] in ("pass", "fail")

    def test_json_byte_stable(self):
        cfg = RunConfig(suites=("group", "kinematics"), samples=7, seed=11)
        assert emit(run(cfg), fmt="json") == emit(run(cfg), fmt="json")

    def test_text_byte_stable(self):
        cfg = RunConfig(suites=("kinematics",), samples=7, seed=11)
        assert emit(run(cfg), fmt="text") == emit(run(cfg), fmt="text")

    def test_unwritable_path(self, full_report):
        with pytest.raises(OSError):
            emit(full_report, fmt="json", path="/nonexistent-dir/report.json")

    def test_text_format(self, full_report):
        text = emit(full_report, fmt="text")
        lines = text.strip().splitlines()
        assert lines[-1].startswith("total ")
        assert sum(1 for ln in lines if ln.startswith(("PASS", "FAIL"))) == full_report.total

    def test_unknown_format(self, full_report):
        with pytest.raises(ValueError, match="format"):
            emit(full_report, fmt="yaml")

    def test_write_to_path(self, tmp_path, full_report):
        out = tmp_path / "report.json"
        emit(full_report, fmt="json", path=str(out))
        assert json.loads(out.read_text())["summary"]["total"] == full_report.total


class TestCli:
    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        commands = [shlex.split(ln, comments=True) for ln in block.splitlines()
                    if ln.startswith("csym verify")]
        assert len(commands) >= 5
        for argv in commands:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"argparse rejects the README command {shlex.join(argv)!r}")

    def test_verify_without_flags_builds_the_default_config(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda config, workers: seen.append((config, workers))
                            or VerificationReport(config=config, checks=()))
        assert cli.main(["verify"]) == 0
        assert seen == [(RunConfig(), 1)]  # an in-process call runs every suite here

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "csym.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_group_suite_exits_success(self, tmp_path):
        out = tmp_path / "r.json"
        result = self._run(
            "verify", "--suite", "group", "--samples", "5", "--json", str(out)
        )
        assert result.returncode == 0, result.stderr
        data = json.loads(out.read_text())
        assert data["summary"]["failed"] == 0
        assert {c["suite"] for c in data["checks"]} == {"group"}

    def test_full_run_reports_known_failure(self, tmp_path):
        out = tmp_path / "r.json"
        result = self._run("verify", "--samples", "5", "--quiet", "--json", str(out))
        data = json.loads(out.read_text())
        failing = {c["id"] for c in data["checks"] if c["status"] == "fail"}
        assert failing == KNOWN_FAILING
        assert result.returncode == 1  # exit mirrors the failed check

    def test_unwritable_json_path_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        result = self._run("verify", "--suite", "group", "--samples", "5", "--quiet",
                           "--json", str(out))
        assert result.returncode == 2
        assert result.stderr == (f"error: cannot write JSON report to {out}: "
                                 "No such file or directory\n")
        assert not out.parent.exists()

    def test_flag_validation(self):
        result = self._run("verify", "--suite", "warp")
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_lambda_alias_exits_2(self):
        result = self._run("verify", "--suite", "group", "--lambda=+i")
        assert result.returncode == 2
        assert "invalid choice: '+i'" in result.stderr

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_exits_2(self, value):
        result = self._run("verify", "--suite", "group", "--tolerance", value)
        assert result.returncode == 2
        assert "tolerance must be finite" in result.stderr

    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            r = self._run(
                "verify", "--suite", "kinematics", "--samples", "5",
                "--seed", "2", "--quiet", "--json", str(path),
            )
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lambda_and_potential_flags(self, tmp_path):
        out = tmp_path / "r.json"
        r = self._run(
            "verify", "--suite", "electron", "--samples", "5",
            "--lambda", "i", "--potential-rule", "fixed", "--quiet", "--json", str(out),
        )
        assert r.returncode == 0, r.stderr
        data = json.loads(out.read_text())
        ids = {c["id"] for c in data["checks"]}
        assert "electron.charged-equation-fixed-potential" in ids
        assert "electron.charged-equation-flipped-potential" not in ids

    def test_cli_import_adds_no_oracle_or_process_module(self):
        """`import csym.cli` stays off the test oracles and the process machinery.

        Start-up is most of a short run's wall time, and csym imports no sympy.
        threading is not listed: `site` may load it before csym is imported.
        """
        code = ("import sys; before = set(sys.modules); import csym.cli; "
                "print(*sorted(set(sys.modules) - before))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        added = {name.split(".")[0] for name in result.stdout.split()}
        banned = {"sympy", "hypothesis", "multiprocessing", "concurrent", "subprocess", "signal"}
        assert added & banned == set()


class TestWorkers:
    """run(config, workers=k) runs the first share of suites here and forks one worker per other share."""

    @pytest.mark.parametrize("config", [
        RunConfig(samples=10),
        RunConfig(suites=("group", "maxwell", "photon", "electron"), samples=1),
        RunConfig(suites=("electron",), potential_rule="fixed"),
    ], ids=["default", "exact", "electron-fixed"])
    def test_any_worker_count_gives_the_same_bytes(self, config):
        sequential = emit(run(config), fmt="json")
        for workers in (2, 3, 8):
            assert emit(run(config, workers=workers), fmt="json") == sequential, workers

    def test_every_suite_reaches_its_named_runner_in_its_share(self, monkeypatch):
        for suite in SUITES:
            monkeypatch.setattr(
                report_module, f"run_{suite}_suite",
                lambda config, suite=suite: [CheckResult(f"{suite}.marker", suite,
                                                         str(os.getpid()), "runner", "pass")])
        report = run(RunConfig(), workers=3)
        assert [c.id for c in report.checks] == sorted(f"{suite}.marker" for suite in SUITES)
        here = {c.suite for c in report.checks if c.description == str(os.getpid())}
        assert here == set(SUITES[0::3])

    @pytest.mark.parametrize("death", [lambda config: os._exit(3),
                                       lambda config: 1 / 0], ids=["exit", "raise"])
    def test_a_worker_that_ends_without_reporting_is_an_error(self, monkeypatch, death):
        monkeypatch.setattr(report_module, "run_maxwell_suite", death)
        monkeypatch.setattr(report_module, "run_electron_suite", death)
        with pytest.raises(SuiteWorkerError, match="without reporting: maxwell, electron$"):
            run(RunConfig(suites=("group", "maxwell", "photon", "electron")), workers=2)

    def test_a_failing_parent_leaves_no_worker_behind(self, monkeypatch):
        def parent_share(config):
            raise RuntimeError("parent share failed")

        monkeypatch.setattr(report_module, "run_group_suite", parent_share)
        monkeypatch.setattr(report_module, "run_maxwell_suite", lambda config: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent share failed"):
            run(RunConfig(suites=("group", "maxwell")), workers=2)
        assert time.monotonic() - start < 30  # the sleeping worker was killed, not awaited
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_program_run_prints_the_report_once(self):
        result = subprocess.run(
            [sys.executable, "-m", "csym.cli", "verify", "--suite", "group", "--suite", "photon"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.stderr == ""
        assert result.returncode == 1  # photon.gamma5-product
        assert result.stdout == emit(run(RunConfig(suites=("group", "photon"))), fmt="text")
