"""Command-line harness: exit codes, determinism, report schema, and
offline verdict recomputation."""

import json

import numpy as np
import pytest

from ogrebench import cli, dataset, runner
from ogrebench.config import (IncompatibleConfig, RunConfig, RunReport,
                              SCHEMA_VERSION)
from ogrebench.costs import ZERO_COSTS
from ogrebench.dataset import ScenarioSpec


def run_cli(*argv):
    return cli.main(list(argv))


TINY_ARGS = ("--points", "1000", "--clusters", "10", "--seed", "3")


class TestGenerate:
    def test_writes_readable_file(self, tmp_path):
        out = tmp_path / "pts.bin"
        assert run_cli("generate", *TINY_ARGS, "--out", str(out)) == 0
        pf = dataset.read_point_file(out)
        assert (pf.n, pf.dims) == (1000, 3)


class TestRun:
    def test_successful_run_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--engine", "mpi-like", *TINY_ARGS,
                       "--no-delays", "--out", str(out))
        assert code == 0
        report = RunReport.from_json(out.read_text())
        assert report.schema_version == SCHEMA_VERSION
        assert report.iterations >= 1
        assert report.metrics["shuffle_bytes"] == 0

    def test_incompatible_pairing_exits_2(self):
        assert run_cli("run", "--engine", "iterative", "--scheduler",
                       "centralized", *TINY_ARGS) == 2

    def test_unknown_scenario_exits_2(self):
        assert run_cli("run", "--engine", "mpi-like", "--scenario",
                       "no-such") == 2

    def test_missing_size_exits_2(self):
        assert run_cli("run", "--engine", "mpi-like") == 2

    def test_identical_invocations_identical_trajectories(self):
        spec = ScenarioSpec(1000, 10, seed=3)
        outcomes = [runner.run(RunConfig(spec=spec, engine="mpi-like",
                                         costs=ZERO_COSTS,
                                         compute_objective=False))
                    for _ in range(2)]
        a, b = (o.result.trajectory for o in outcomes)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.coords, cb.coords)


class TestVerify:
    def test_pass_exit_0(self, capsys):
        assert run_cli("verify", *TINY_ARGS) == 0
        assert "PASS" in capsys.readouterr().out

    def test_too_large_for_oracle_exits_2(self):
        assert run_cli("verify", "--points", "200000", "--clusters", "5") == 2


class TestCompareAndReport:
    def test_bundle_and_offline_verdict(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run_cli("compare", "--points", "1000", "--clusters", "10",
                       "--seed", "3", "--engines", "mpi-like,mapreduce",
                       "--repetitions", "1", "--out", str(out))
        assert code == 0
        table = (tmp_path / "cmp.csv").read_text()
        assert "median_wall_s" in table
        assert "# verdict" in table
        assert (tmp_path / "cmp.dat").read_text().startswith("# scenario")
        bundle = json.loads((tmp_path / "cmp.json").read_text())
        assert set(bundle) == {"reports", "cells", "verdicts"}
        capsys.readouterr()
        assert run_cli("report", str(tmp_path / "cmp.json")) == 0
        offline = capsys.readouterr().out
        # The verdict is a pure function of the stored walls.
        for scenario, verdict in bundle["verdicts"].items():
            assert f"verdict {scenario}: {verdict}" in offline

    def test_report_keeps_incomplete_verdict(self, tmp_path, capsys):
        # A compare whose second engine failed keeps the first engine's
        # cell; its verdict must stay "incomplete" offline too.
        bundle = {"reports": [],
                  "cells": [{"scenario": "s", "engine": "mapreduce",
                             "walls": [1.0]}],
                  "verdicts": {"s": "incomplete"}}
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(bundle))
        assert run_cli("report", str(path)) == 0
        assert capsys.readouterr().out == "verdict s: incomplete\n"

    def test_single_engine_rejected(self):
        assert run_cli("compare", *TINY_ARGS, "--engines", "mpi-like") == 2


class TestConfigValidation:
    def test_defaults_resolve_scheduler(self):
        config = RunConfig(spec=ScenarioSpec(100, 2), engine="iterative")
        assert config.scheduler == "multilevel"

    def test_unknown_engine(self):
        with pytest.raises(IncompatibleConfig):
            RunConfig(spec=ScenarioSpec(100, 2), engine="spark")

    def test_report_schema_mismatch_rejected(self):
        payload = json.dumps({"schema_version": 99})
        with pytest.raises(ValueError):
            RunReport.from_json(payload)


class TestVerdicts:
    def test_clear_ordering(self):
        got = runner.ordering_verdict({"a": 1.0, "b": 2.0, "c": 4.0})
        assert got == "a < b < c"

    def test_small_gap_is_inconclusive(self):
        got = runner.ordering_verdict({"a": 1.0, "b": 1.1})
        assert got == "inconclusive"

    def test_boundary_gap_counts(self):
        assert runner.ordering_verdict({"a": 1.0, "b": 1.2}) == "a < b"
