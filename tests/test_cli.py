"""Experiment runner: artifacts, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import LG3
from dualfilter import cli
from dualfilter.cli import EXPERIMENTS, ExperimentConfig, main, run
from dualfilter.models import HmmModel


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestCatalog:
    def test_every_entry_is_valid(self):
        from dualfilter.catalog import CATALOG, build
        from dualfilter.models import HmmModel, LinearGaussianModel
        for name in CATALOG:
            assert isinstance(build(name), (HmmModel, LinearGaussianModel))

    def test_two_class_demo_is_stabilizable_with_indicator(self):
        from dualfilter.catalog import two_class_demo
        from dualfilter.duality import is_stabilizable
        ok, _ = is_stabilizable(two_class_demo())
        assert ok
        blind, _ = is_stabilizable(two_class_demo(h_scale=0.0))
        assert not blind

    def test_contains_named_models(self, runner):
        res = invoke(runner, "catalog")
        assert res.exit_code == 0
        assert "counter_example" in res.output
        assert "scalar_lg" in res.output

    def test_stable_ordering(self, runner):
        out1 = invoke(runner, "catalog").output
        out2 = invoke(runner, "catalog").output
        assert out1 == out2


class TestRun:
    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(Exception):
            run(ExperimentConfig(experiment="nonsense"))

    def test_unknown_subcommand_exit_2(self, runner):
        res = runner.invoke(main, ["nonsense"])
        assert res.exit_code == 2

    def test_unknown_config_field_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "flavor": "purple"}))
        res = runner.invoke(main, ["analyze", "counter_example", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "unknown config fields" in res.output

    def test_analyze_counter_example_summary(self, runner, tmp_path):
        res = invoke(runner, "analyze", "counter_example", "--out", str(tmp_path))
        assert res.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"]
        assert summary["values"]["controllable_dim"] == 2
        assert summary["values"]["observable"] is False
        assert summary["values"]["stabilizable"] is True
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 0
        assert "version" in manifest

    def test_two_state_stability_reports_constant(self, runner, tmp_path):
        res = invoke(runner, "stability", "two_state", "--a1", "1", "--a2", "1",
                     "--horizon", "4", "--dt", "0.01", "--paths", "400",
                     "--out", str(tmp_path))
        assert res.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["values"]["c"] == pytest.approx(4.0)
        names = {c["name"]: c["passed"] for c in summary["checks"]}
        assert names["chi2_bound_holds"]
        assert names["two_state_constant_matches_brute_force"]

    def test_deterministic_csv_output(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = invoke(runner, "filter", "doeblin_demo", "--seed", "5",
                         "--horizon", "1", "--dt", "0.01", "--out", str(out))
            assert res.exit_code == 0
        assert (out1 / "beliefs.csv").read_bytes() == (out2 / "beliefs.csv").read_bytes()

    def test_different_seed_changes_output(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for seed, out in ((1, out1), (2, out2)):
            invoke(runner, "simulate", "doeblin_demo", "--seed", str(seed),
                   "--horizon", "1", "--dt", "0.01", "--out", str(out))
        assert (out1 / "observations.csv").read_text() != (out2 / "observations.csv").read_text()

    def test_inline_model_via_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "model": {"rate": [[-1.0, 1.0], [2.0, -2.0]], "obs": [[1.0], [0.0]],
                      "prior": [0.5, 0.5]},
            "horizon": 1.0, "dt": 0.01, "seed": 3,
        }))
        out = tmp_path / "out"
        res = invoke(runner, "filter", "--config", str(cfg), "--out", str(out))
        assert res.exit_code == 0
        assert (out / "beliefs.csv").exists()

    def test_smooth_and_kalman_commands(self, runner, tmp_path):
        res = invoke(runner, "smooth", "scalar_lg", "--horizon", "1", "--dt", "0.001",
                     "--out", str(tmp_path / "sm"))
        assert res.exit_code == 0
        res = invoke(runner, "kalman", "--out", str(tmp_path / "ka"))
        assert res.exit_code == 0
        summary = json.loads((tmp_path / "ka" / "summary.json").read_text())
        assert summary["values"]["hurwitz"] is True

    def test_kalman_ode_step_divides_dt(self, runner, tmp_path, monkeypatch):
        # the Riccati / dual-LQ ODEs run at the largest step dt / m <= 1e-3,
        # so a dt that 1e-3 does not divide still gives a grid on the horizon
        from dualfilter import cli
        steps = []
        solve = cli.dual_lq_linear_gaussian
        monkeypatch.setattr(cli, "dual_lq_linear_gaussian",
                            lambda model, f, horizon, dt: steps.append(dt) or solve(model, f, horizon, dt))
        for dt, step in (("0.0105", 0.0105 / 11), ("0.001", 1e-3), ("0.01", 1e-3), ("0.0005", 5e-4)):
            out = tmp_path / dt
            res = runner.invoke(main, ["kalman", "scalar_lg", "--horizon", dt, "--dt", dt,
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            assert json.loads((out / "summary.json").read_text())["all_passed"]
            assert steps.pop() == step

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kalman_long_horizon_exits_zero(self, runner, tmp_path):
        # the dual LQ pass once integrated Sigma backward again, which drifted
        # from the forward flow on this stable, detectable model until the
        # dual_lq_matches_riccati check failed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "model": LG3}))
        out = tmp_path / "out"
        res = runner.invoke(main, ["kalman", "--config", str(cfg), "--horizon", "20",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads((out / "summary.json").read_text())["all_passed"]

    def test_gramian_failing_check_exits_one(self, runner, tmp_path):
        # 50 paths still resolve the rank; a relative cutoff of 0.1 drops the
        # gramian's second singular value (about 2% of the first) but not the
        # closure's (about 38%), so that run fails its check
        for name, extra, passes in (("resolved", [], True), ("coarse", ["--tol", "0.1"], False)):
            out = tmp_path / name
            res = runner.invoke(main, ["gramian", "counter_example", "--paths", "50",
                                       "--horizon", "5", "--dt", "0.05", *extra,
                                       "--out", str(out)])
            summary = json.loads((out / "summary.json").read_text())
            assert summary["all_passed"] is passes
            assert res.exit_code == (0 if summary["all_passed"] else 1)

    def test_gramian_defaults_rank_matches_closure(self, runner, tmp_path):
        res = invoke(runner, "gramian", "counter_example", "--out", str(tmp_path))
        assert res.exit_code == 0
        values = json.loads((tmp_path / "summary.json").read_text())["values"]
        assert values["rank"] == values["closure_dim"] == 2

    def test_numerical_failure_exits_one_with_diagnostic(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "model": {"a_mat": [[0.0]], "h_mat": [[0.0]], "sigma": [[1.0]],
                      "mean0": [0.0], "cov0": [[1.0]]},
        }))
        out = tmp_path / "out"
        res = runner.invoke(main, ["kalman", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert "not stabilizable" in summary["error"]

    def test_gramian_column_underflow_names_step_and_path(self, runner, tmp_path):
        # frozen chain, h = [0, 40], dt = 1: state 2's likelihood is below
        # 1e-300 of state 1's unless dZ > 2.73, so path 0's state-2 column
        # underflows at step 0 (it used to be zeroed silently, exit 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "model": {"rate": [[0.0, 0.0], [0.0, 0.0]], "obs": [[0.0], [40.0]],
                      "prior": [0.5, 0.5]},
            "horizon": 5.0, "dt": 1.0, "n_paths": 50, "seed": 0,
        }))
        out = tmp_path / "out"
        res = runner.invoke(main, ["gramian", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "posterior mass underflow (step 0, path 0)"

    def test_numerical_failure_removes_the_experiments_csvs(self, runner, tmp_path):
        # a failed gramian run into a directory that holds an earlier run's
        # gramian.csv must not leave that file next to its error
        out = tmp_path / "out"
        res = runner.invoke(main, ["gramian", "counter_example", "--paths", "20", "--horizon", "1",
                                   "--dt", "0.05", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "gramian.csv").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "model": {"rate": [[0.0, 0.0], [0.0, 0.0]], "obs": [[0.0], [40.0]],
                      "prior": [0.5, 0.5]},
            "horizon": 5.0, "dt": 1.0, "n_paths": 50, "seed": 0,
        }))
        res = runner.invoke(main, ["gramian", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        assert "error" in json.loads((out / "summary.json").read_text())
        assert json.loads((out / "manifest.json").read_text())["config"]["model"]["obs"] == [[0.0], [40.0]]
        assert not (out / "gramian.csv").exists()

    def test_linalg_error_is_a_numerical_failure(self, runner, tmp_path, monkeypatch):
        # a LinAlgError from a runner exits 1 with its message in the
        # summary and no CSV, like a NumericalFailure (it was a traceback)
        out = tmp_path / "out"
        assert invoke(runner, "filter", "two_state", "--horizon", "0.1", "--out", str(out)).exit_code == 0
        assert (out / "beliefs.csv").exists()

        def singular(config, model):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(EXPERIMENTS["filter"].runners, HmmModel, singular)
        res = runner.invoke(main, ["filter", "two_state", "--out", str(out)])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert json.loads((out / "summary.json").read_text())["error"] == "Singular matrix"
        assert not (out / "beliefs.csv").exists()

    def test_kalman_on_an_unstabilizable_model_exits_one(self, runner, tmp_path):
        # the unstable mode is neither observed nor forced: no stabilizing
        # stationary Riccati solution exists
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "model": {"a_mat": [[1.0, 0.0], [0.0, -1.0]], "h_mat": [[0.0], [1.0]],
                      "sigma": [[0.0, 0.0], [0.0, 1.0]], "mean0": [0.0, 0.0],
                      "cov0": [[1.0, 0.0], [0.0, 1.0]]},
        }))
        out = tmp_path / "out"
        res = runner.invoke(main, ["kalman", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        assert "not stabilizable" in json.loads((out / "summary.json").read_text())["error"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "summary.json"]

    def test_reused_out_keeps_only_this_runs_csvs(self, runner, tmp_path):
        # a run into the directory of another experiment's run removes that
        # run's CSVs and leaves its own, plus files that are not the CLI's
        out = tmp_path / "out"
        assert invoke(runner, "filter", "doeblin_demo", "--out", str(out)).exit_code == 0
        (out / "notes.csv").write_text("kept\n")
        assert invoke(runner, "analyze", "counter_example", "--out", str(out)).exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.csv", "subspace.csv",
                                                         "summary.json"]

    def test_chi2_bound_check_can_fail(self, runner, tmp_path):
        # a decay rate far above the Poincare constant claims a bound that
        # the simulated chi-square divergence breaks at every checkpoint
        res = runner.invoke(main, ["stability", "doeblin_demo", "--paths", "200", "--horizon", "2",
                                   "--c", "50", "--out", str(tmp_path)])
        assert res.exit_code == 1, res.output
        checks = {c["name"]: c for c in json.loads((tmp_path / "summary.json").read_text())["checks"]}
        chi2 = checks["chi2_bound_holds"]
        assert not chi2["passed"]
        assert (chi2["value"], chi2["threshold"]) == (0.0, 10.0)

    # seed 69's innovation mean lies below -3 standard errors, so that
    # filter run fails innovation_mean_zero; the other runs pass
    @pytest.mark.parametrize("experiment, fields, names", [
        ("stability", {"n_paths": 50, "horizon": 1.0}, ("kl_bounded_by_prior", "kl_non_increasing")),
        ("filter", {"horizon": 1.0}, ("innovation_mean_zero",)),
        ("filter", {"horizon": 1.0, "seed": 69}, ("innovation_mean_zero",)),
    ])
    def test_checks_report_the_number_they_test(self, tmp_path, experiment, fields, names):
        run(ExperimentConfig(experiment=experiment, model="doeblin_demo", out=str(tmp_path), **fields))
        checks = {c["name"]: c for c in json.loads((tmp_path / "summary.json").read_text())["checks"]}
        for name in names:
            c = checks[name]
            assert c["passed"] == (c["value"] <= c["threshold"] + 1e-12), c

    def test_kl_bound_reports_its_margin(self, runner, tmp_path):
        # at t = 0 the relative entropy is the prior's with stderr 0, so a
        # maximum over t = 0 would report the threshold itself
        res = runner.invoke(main, ["stability", "doeblin_demo", "--paths", "200", "--horizon", "2",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        checks = {c["name"]: c for c in json.loads((tmp_path / "summary.json").read_text())["checks"]}
        kl = checks["kl_bounded_by_prior"]
        assert kl["passed"] and kl["value"] < kl["threshold"]

    def test_detect_classes_artifacts(self, runner, tmp_path):
        res = invoke(runner, "detect-classes", "--horizon", "10", "--dt", "0.02",
                     "--paths", "100", "--out", str(tmp_path))
        assert res.exit_code == 0
        assert (tmp_path / "detection.csv").read_text().startswith("class,states")

    def test_bad_model_parameters_are_usage_errors(self, runner, tmp_path):
        res = runner.invoke(main, ["analyze", "two_state", "--a1", "-1",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        res = runner.invoke(main, ["analyze", "no_such_model", "--out", str(tmp_path)])
        assert res.exit_code == 2


# every CSV an experiment writes, at a size that runs in about a second
SMALL_RUNS = [
    ("simulate", "doeblin_demo", {}),
    ("simulate", "scalar_lg", {}),
    ("filter", "doeblin_demo", {}),
    ("filter", "scalar_lg", {}),
    ("smooth", "doeblin_demo", {}),
    ("smooth", "scalar_lg", {"dt": 1e-3}),
    ("analyze", "counter_example", {}),
    ("gramian", "counter_example", {"n_paths": 20, "horizon": 1.0, "dt": 0.05}),
    ("duality-check", "doeblin_demo", {"n_paths": 20, "horizon": 0.5}),
    ("stability", "doeblin_demo", {"n_paths": 20, "horizon": 1.0}),
    ("detect-classes", "two_class_demo", {"n_paths": 10, "horizon": 2.0}),
]
INT_COLUMNS = {"state", "i", "j", "control", "holds", "class"}
CSV_NAMES = {"states", "observations", "beliefs", "smoothed", "subspace", "gramian", "duality",
             "chi2_bound", "divergences", "detection"}


def assert_cells_parse(path):
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(head), line
        for name, cell in zip(head, cells):
            if name in INT_COLUMNS:
                int(cell)
            elif name == "states":
                [int(s) for s in cell.split("|")]
            elif name == "vector":
                assert re.fullmatch(r"(basis|complement)_\d+", cell)
            else:
                float(cell)


class TestArtifacts:
    def test_every_csv_cell_parses(self, tmp_path):
        seen = set()
        for k, (experiment, model, fields) in enumerate(SMALL_RUNS):
            out = tmp_path / f"{k}"
            run(ExperimentConfig(experiment=experiment, model=model, out=str(out), **fields))
            assert {p.name for p in out.glob("*.csv")} == set(EXPERIMENTS[experiment].files)
            for path in out.glob("*.csv"):
                assert_cells_parse(path)
                seen.add(path.stem)
        assert seen == CSV_NAMES


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["simulate", "--dt", "0"],
        ["filter", "--horizon", "-1"],
        ["gramian", "--paths", "1"],
        ["duality-check", "--horizon", "1", "--dt", "0.3"],
        ["stability", "--paths", "1"],
        ["gramian", "scalar_lg"],
        ["stability", "scalar_lg"],
    ])
    def test_exits_two_before_writing(self, runner, tmp_path, args):
        out = tmp_path / "out"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "Error" in res.output
        assert not out.exists()

    def test_kalman_needs_paths_only_on_a_chain(self, runner, tmp_path):
        res = runner.invoke(main, ["kalman", "doeblin_demo", "--paths", "1",
                                   "--out", str(tmp_path / "chain")])
        assert res.exit_code == 2
        res = invoke(runner, "kalman", "--paths", "1", "--out", str(tmp_path / "lg"))
        assert res.exit_code == 0

    @pytest.mark.parametrize("experiment, model, message", [
        ("detect-classes", {"rate": [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]],
                            "obs": [[1.0], [0.0], [2.0]], "prior": [0.4, 0.3, 0.3]},
         "transient states present: [0]"),
        ("stability", {"rate": [[0.0, 0.0], [1.0, -1.0]], "obs": [[1.0], [0.0]],
                       "prior": [0.5, 0.5]},
         "closed-form-2state requires an irreducible chain"),
    ])
    def test_model_the_experiment_rejects(self, runner, tmp_path, experiment, model, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "model": model}))
        out = tmp_path / "out"
        res = runner.invoke(main, [experiment, "--config", str(cfg), "--horizon", "1",
                                   "--paths", "10", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not out.exists()


def test_subcommand_defaults(runner, monkeypatch):
    # each subcommand run with no arguments, with the config it resolves captured
    configs = {}

    def capture(config):
        configs[config.experiment] = config
        return 0

    monkeypatch.setattr(cli, "run", capture)
    for name in EXPERIMENTS:
        assert runner.invoke(main, [name]).exit_code == 0
    base = {"model": "counter_example", "model_params": {}, "horizon": 2.0, "dt": 1e-2,
            "n_paths": 1000, "seed": 0, "tol": 1e-9, "c": None, "out": "out"}
    expected = {
        "simulate": {},
        "filter": {},
        "smooth": {},
        "analyze": {},
        "gramian": {"horizon": 5.0, "dt": 5e-3, "n_paths": 2000},
        "duality-check": {"horizon": 2.0, "dt": 1e-3, "n_paths": 2000},
        "stability": {"model": "doeblin_demo", "horizon": 5.0, "n_paths": 2000},
        "detect-classes": {"model": "two_class_demo", "horizon": 30.0, "n_paths": 500},
        "kalman": {"model": "scalar_lg", "horizon": 2.0, "dt": 1e-3},
    }
    assert {name: vars(cfg) for name, cfg in configs.items()} == {
        name: {"experiment": name, **base, **fields} for name, fields in expected.items()}


# a fresh interpreter: importing the CLI and printing its help
HELP_CHILD = """\
import sys
from dualfilter.cli import main
try:
    main(["--help"])
except SystemExit:
    pass
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_start_up_imports_no_scipy():
    # the package needs only numpy's linear algebra; an import of
    # scipy.linalg would more than double every CLI run's start-up
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", HELP_CHILD], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Usage:" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"
