"""Experiment runner: artifacts, determinism, exit codes."""

import json
import re

import pytest
from click.testing import CliRunner

from conftest import LG3
from dualfilter.cli import ExperimentConfig, main, run


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
