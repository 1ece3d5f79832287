"""Configuration-driven experiment runner.

Every experiment writes, under the output directory:

* ``manifest.json`` -- the resolved configuration, library version and seed
  (everything needed to reproduce each number in the summary);
* one CSV per metric;
* ``summary.json`` -- computed values plus one pass/fail entry per check.

A run checks its configuration and computes the experiment in memory before
it writes anything, so a usage error leaves the output directory untouched.
Exit status: 0 when every check passes, 1 on a failed check or numerical
failure, 2 on usage errors.  Identical configurations and seeds produce
byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__
from . import catalog as catalog_mod
from ._csv import csv_text, grid_rows
from .duality import (controllable_subspace, dual_deterministic_markov,
                      dual_lq_linear_gaussian, duality_check_mc, gramian_mc, is_observable,
                      is_stabilizable)
from .filters import innovation_path, kalman_bucy, solve_are, zakai_filter
from .models import HmmModel, LinearGaussianModel, NumericalFailure, model_from_dict
from .sim import (GRID_ALIGN_TOL, n_steps_for, observation_csv, simulate_hmm,
                  simulate_linear_gaussian, state_path_csv)
from .smoothing import discrete_kalman, forward_backward_smoother, fraser_potter_sweep, rts_sweep
from .stability import (DECOMPOSITION_TOL, PriorPair, chi2_bound_check,
                        ergodic_class_detection, kl_supermartingale_check, pi_constant)

SCHEMA_VERSION = 1
ODE_STEP = 1e-3     # largest step of the Riccati / dual-LQ ODEs in ``kalman``


@dataclass
class ExperimentConfig:
    experiment: str
    model: str | dict = "counter_example"
    model_params: dict = field(default_factory=dict)
    horizon: float = 2.0
    dt: float = 1e-2
    n_paths: int = 1000
    seed: int = 0
    tol: float = 1e-9
    c: float | None = None
    out: str = "out"

    def resolve_model(self):
        if isinstance(self.model, dict):
            return model_from_dict(self.model)
        return catalog_mod.build(self.model, **self.model_params)


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: float


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_jsonify(doc), indent=2, sort_keys=True) + "\n")


def _check_grid_and_paths(config: ExperimentConfig, draws: bool) -> None:
    """Reject a time grid or a path count that the experiment cannot run on."""
    try:
        dt, horizon = float(config.dt), float(config.horizon)
    except (TypeError, ValueError):
        raise click.UsageError(f"dt and horizon must be numbers, got {config.dt!r} and {config.horizon!r}")
    try:
        n_steps_for(horizon, dt)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if draws and not (isinstance(config.n_paths, int) and config.n_paths >= 2):
        raise click.UsageError(
            f"{config.experiment} needs at least 2 Monte-Carlo paths, got {config.n_paths!r}")


def run(config: ExperimentConfig) -> int:
    """Check the configuration, run the experiment, then write its artifacts;
    returns the exit code.  Usage errors raise ``click.UsageError`` and write
    nothing."""
    experiment = EXPERIMENTS.get(config.experiment)
    if experiment is None:
        raise click.UsageError(
            f"unknown experiment {config.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    try:
        model = config.resolve_model()
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"cannot build model: {exc}")
    runner = experiment.runners.get(type(model))
    if runner is None:          # every experiment runs on finite-state models
        raise click.UsageError(f"{config.experiment} requires a finite-state model")
    _check_grid_and_paths(config, experiment.draws and type(model) is HmmModel)
    try:
        checks, values, files = runner(config, model)
        failure = None
    except (NumericalFailure, np.linalg.LinAlgError) as exc:   # LinAlgError is a ValueError
        failure, files = exc, {}
    except ValueError as exc:       # the library rejects this model for this experiment
        raise click.UsageError(str(exc))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json",
                {"schema": SCHEMA_VERSION, "version": __version__, "config": asdict(config)})
    for name in {name for e in EXPERIMENTS.values() for name in e.files} - files.keys():
        (out / name).unlink(missing_ok=True)      # no CSV of an earlier run stays behind
    if failure is not None:
        _write_json(out / "summary.json", {"experiment": config.experiment, "error": str(failure)})
        click.echo(f"numerical failure: {failure}", err=True)
        return 1
    for name, text in files.items():
        (out / name).write_text(text)
    all_passed = all(c.passed for c in checks)
    _write_json(out / "summary.json", {
        "experiment": config.experiment,
        "checks": [asdict(c) for c in checks],
        "values": values,
        "all_passed": all_passed,
    })
    for c in checks:
        click.echo(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: value={c.value:.6g} threshold={c.threshold:.6g}")
    if not all_passed:
        click.echo("one or more checks failed", err=True)
        return 1
    return 0


# -- experiment runners: (config, model) -> (checks, values, {csv name: text}) ----

def _run_simulate_hmm(config: ExperimentConfig, model: HmmModel):
    sp, obs = simulate_hmm(model, config.horizon, config.dt, config.seed)
    values = {"n_jumps": len(sp.jump_times) - 1, "n_steps": obs.n_steps}
    return [], values, {"states.csv": state_path_csv(sp), "observations.csv": observation_csv(obs)}


def _run_simulate_lg(config: ExperimentConfig, model: LinearGaussianModel):
    xs, obs = simulate_linear_gaussian(model, config.horizon, config.dt, config.seed)
    head = "t," + ",".join(f"x_{i + 1}" for i in range(model.dim))
    files = {"states.csv": csv_text(head, grid_rows(config.dt, xs)),
             "observations.csv": observation_csv(obs)}
    return [], {"n_steps": obs.n_steps}, files


def _run_filter_hmm(config: ExperimentConfig, model: HmmModel):
    _, obs = simulate_hmm(model, config.horizon, config.dt, config.seed)
    unn = zakai_filter(model, model.prior, obs)
    bel = unn.normalized()
    inn = innovation_path(model, bel, obs)
    mean = abs(float(inn.mean()))
    se = float(inn.std(ddof=1) / np.sqrt(inn.size))
    checks = [Check("innovation_mean_zero", mean <= 3 * se + 1e-12, mean, 3 * se)]
    values = {"terminal_belief": bel.beliefs[-1], "log_mass": unn.log_normalizer[-1]}
    return checks, values, {"beliefs.csv": bel.csv()}


def _run_filter_lg(config: ExperimentConfig, model: LinearGaussianModel):
    _, obs = simulate_linear_gaussian(model, config.horizon, config.dt, config.seed)
    gp = kalman_bucy(model, obs)
    lam = float(np.linalg.eigvalsh(gp.covs).min())
    values = {"terminal_mean": gp.means[-1], "terminal_cov": gp.covs[-1]}
    return [Check("covariance_psd", lam >= -1e-8, lam, -1e-8)], values, {"beliefs.csv": gp.csv()}


def _run_smooth_hmm(config: ExperimentConfig, model: HmmModel):
    _, obs = simulate_hmm(model, config.horizon, config.dt, config.seed)
    sm = forward_backward_smoother(model, obs)
    return [], {"terminal": sm.smoothed[-1]}, {"smoothed.csv": sm.csv()}


def _run_smooth_lg(config: ExperimentConfig, model: LinearGaussianModel):
    _, obs = simulate_linear_gaussian(model, config.horizon, config.dt, config.seed)
    kf = discrete_kalman(model, obs)                  # one filter pass for both smoothers
    r, f = rts_sweep(kf), fraser_potter_sweep(kf)
    gap = float(np.abs(r.smoothed_means - f.smoothed_means).max())
    checks = [Check("two_filter_matches_rts", gap <= 1e-6, gap, 1e-6)]
    return checks, {"terminal": r.smoothed_means[-1]}, {"smoothed.csv": r.csv()}


def _run_analyze(config: ExperimentConfig, model: HmmModel):
    sub = controllable_subspace(model, config.tol)
    observable, complement = is_observable(model, config.tol)
    stabilizable, cert = is_stabilizable(model, config.tol)
    a, h = model.rate.entries, model.obs.entries
    closure_res = max(
        [sub.residual(a @ sub.basis[:, k]) for k in range(sub.dim)]
        + [sub.residual(h[:, j] * sub.basis[:, k]) for k in range(sub.dim) for j in range(h.shape[1])]
        + [sub.residual(np.ones(model.dim) / np.sqrt(model.dim))]
    )
    mass = float(np.abs(complement.basis.T @ np.ones(model.dim)).max()) if complement.dim else 0.0
    checks = [
        Check("closure_invariant", closure_res <= 1e-8, closure_res, 1e-8),
        Check("unobservable_directions_have_zero_mass", mass <= 1e-8, mass, 1e-8),
    ]
    values = {
        "controllable_dim": sub.dim,
        "state_dim": model.dim,
        "observable": observable,
        "stabilizable": stabilizable,
        "stabilizability_residuals": cert["residuals"],
        "basis": sub.basis,
        "complement_basis": complement.basis,
    }
    rows = [[f"{label}_{k + 1}", *vec.tolist()]
            for label, basis in (("basis", sub.basis), ("complement", complement.basis))
            for k, vec in enumerate(basis.T)]
    head = "vector," + ",".join(f"e_{i + 1}" for i in range(model.dim))
    return checks, values, {"subspace.csv": csv_text(head, rows)}


def _run_gramian(config: ExperimentConfig, model: HmmModel):
    est = gramian_mc(model, config.horizon, config.dt, config.n_paths, config.seed)
    sub = controllable_subspace(model, config.tol)
    rank = est.rank(rel_tol=config.tol)
    checks = [Check("rank_matches_closure_dim", rank == sub.dim, float(rank), float(sub.dim))]
    d = model.dim
    rows = ([i + 1, j + 1, est.mean[i, j].item(), est.stderr[i, j].item()]
            for i in range(d) for j in range(d))
    values = {"rank": rank, "closure_dim": sub.dim, "mean": est.mean, "stderr": est.stderr}
    return checks, values, {"gramian.csv": csv_text("i,j,mean,stderr", rows)}


def _duality_gap(config: ExperimentConfig, model: HmmModel, u, f, seed):
    """``duality_check_mc`` of control ``u`` and the z-score of its gap."""
    j, mse, se = duality_check_mc(model, u, f, config.n_paths, seed, config.dt, horizon=config.horizon)
    return j, mse, se, (abs(j - mse) / se if se > 0 else 0.0)


def _run_duality_check(config: ExperimentConfig, model: HmmModel):
    rng = np.random.default_rng(config.seed)
    n = n_steps_for(config.horizon, config.dt)
    f = rng.standard_normal(model.dim)
    checks, rows = [], []
    for trial in range(5):
        blocks = -(-n // 10)  # ceil; truncated back to n below
        u = rng.standard_normal((10, model.n_channels)).repeat(blocks, axis=0)[:n] * 0.4
        j, mse, se, z = _duality_gap(config, model, u, f, config.seed + trial)
        checks.append(Check(f"duality_gap_control_{trial}", z <= 3.0, z, 3.0))
        rows.append([trial, float(j), mse, se, float(z)])
    return checks, {"f": f}, {"duality.csv": csv_text("control,j_value,mse,stderr,z", rows)}


def _run_stability(config: ExperimentConfig, model: HmmModel):
    d = model.dim
    checks = []
    doeblin = pi_constant(model, "doeblin")
    values: dict = {"doeblin_constant": doeblin.value,
                    "sqrt_constant": pi_constant(model, "sqrt").value}
    c_rate = doeblin.value
    if d == 2:
        closed = pi_constant(model, "closed-form-2state")
        brute = pi_constant(model, "brute-force", resolution=1e-3)
        gap = abs(closed.value - brute.value)
        checks.append(Check("two_state_constant_matches_brute_force", gap <= 1e-2, gap, 1e-2))
        values["closed_form_constant"] = closed.value
        values["brute_force_constant"] = brute.value
        c_rate = closed.value
    if config.c is not None:
        c_rate = config.c
    values["c"] = c_rate

    nu = np.full(d, 1.0 / d)
    mu = nu * (1.0 + 0.5 * np.linspace(1, -1, d))
    mu = mu / mu.sum()
    pair = PriorPair.of(mu, nu)
    report = chi2_bound_check(model, pair, config.horizon, config.dt, config.n_paths,
                              config.seed, c=c_rate)
    checks.append(Check("chi2_bound_holds", report["all_hold"],
                        float(np.sum(report["holds"])), float(len(report["holds"]))))
    gamma_ok = report["gamma_max"] <= report["gamma_limit"] + 1e-6
    checks.append(Check("density_ratio_bounded", gamma_ok, report["gamma_max"], report["gamma_limit"]))
    kl_rep = kl_supermartingale_check(model, pair, config.horizon, config.dt,
                                      min(config.n_paths, 4000), config.seed + 1)
    checks.append(Check("kl_bounded_by_prior", kl_rep["bounded_by_prior"],
                        kl_rep["kl_lower_max"], kl_rep["kl_prior"]))
    checks.append(Check("kl_non_increasing", kl_rep["non_increasing"], kl_rep["rise_lower_max"], 0.0))
    rows = zip(*(np.asarray(report[key], dtype=float).tolist()
                 for key in ("times", "lhs", "rhs", "stderr")),
               np.asarray(report["holds"], dtype=int).tolist())
    values["chi2_prior"] = report["chi2_prior"]
    files = {"chi2_bound.csv": csv_text("t,lhs,rhs,stderr,holds", rows),
             "divergences.csv": report["trace"].csv()}
    return checks, values, files


def _run_detect_classes(config: ExperimentConfig, model: HmmModel):
    d = model.dim
    nu = np.full(d, 1.0 / d)
    pair = PriorPair.of(model.prior.entries, nu)
    rep = ergodic_class_detection(model, pair, config.horizon, config.dt, config.n_paths, config.seed)
    checks = [Check("decomposition_identity", rep["decomposition_ok"], rep["decomposition_gap"],
                    DECOMPOSITION_TOL)]
    rows = ([k + 1, "|".join(str(s) for s in cls), float(rep["detection_error"][k]),
             float(rep["detection_stderr"][k])] for k, cls in enumerate(rep["classes"]))
    return checks, rep, {"detection.csv": csv_text("class,states,detection_error,stderr", rows)}


def _run_kalman_lg(config: ExperimentConfig, model: LinearGaussianModel):
    sigma_inf, hurwitz = solve_are(model)           # raises on a residual above ARE_RESIDUAL_TOL
    f = np.random.default_rng(config.seed).standard_normal(model.dim)
    # the ODEs run at the largest step dt / m that does not exceed ODE_STEP
    step = config.dt / math.ceil(config.dt / ODE_STEP * (1.0 - GRID_ALIGN_TOL))
    cost, _, _, sig = dual_lq_linear_gaussian(model, f, config.horizon, step)
    target = float(f @ sig[-1] @ f)
    gap = abs(cost - target)
    checks = [Check("closed_loop_hurwitz", hurwitz, float(hurwitz), 1.0),
              Check("dual_lq_matches_riccati", gap <= 1e-6, gap, 1e-6)]
    values = {"sigma_inf": sigma_inf, "hurwitz": hurwitz, "dual_cost": cost, "riccati_value": target}
    return checks, values, {}


def _run_kalman_hmm(config: ExperimentConfig, model: HmmModel):
    # finite chain: compare the chain Kalman filter against the dual LQ value
    f = np.random.default_rng(config.seed).standard_normal(model.dim)
    cost, u, _, _ = dual_deterministic_markov(model, f, config.horizon, config.dt)
    _, mse, se, z = _duality_gap(config, model, u[:-1], f, config.seed)
    checks = [Check("deterministic_dual_duality_gap", z <= 3.0, z, 3.0)]
    return checks, {"dual_cost": cost, "mc_mse": mse, "stderr": se}, {}


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its help text, one runner per model family, the CSVs
    its runners write, its config defaults, and whether its finite-state
    runner draws Monte-Carlo paths."""

    help: str
    runners: dict[type, Callable]
    files: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)
    draws: bool = False


EXPERIMENTS = {
    "simulate": Experiment("Sample a state/observation record and write it as CSV.",
                           {HmmModel: _run_simulate_hmm, LinearGaussianModel: _run_simulate_lg},
                           ("states.csv", "observations.csv")),
    "filter": Experiment("Run the optimal filter on a fresh record.",
                         {HmmModel: _run_filter_hmm, LinearGaussianModel: _run_filter_lg},
                         ("beliefs.csv",)),
    "smooth": Experiment("Run the smoothers on a fresh record.",
                         {HmmModel: _run_smooth_hmm, LinearGaussianModel: _run_smooth_lg},
                         ("smoothed.csv",)),
    "analyze": Experiment("Controllable subspace, observability and stabilizability.",
                          {HmmModel: _run_analyze}, ("subspace.csv",)),
    "gramian": Experiment("Monte-Carlo controllability gramian and its rank.",
                          {HmmModel: _run_gramian}, ("gramian.csv",),
                          {"horizon": 5.0, "dt": 5e-3, "n_paths": 2000}, draws=True),
    "duality-check": Experiment("Control cost versus estimator error for random controls.",
                                {HmmModel: _run_duality_check}, ("duality.csv",),
                                {"horizon": 2.0, "dt": 1e-3, "n_paths": 2000}, draws=True),
    "stability": Experiment("Poincare constants and the chi-square stability bound.",
                            {HmmModel: _run_stability}, ("chi2_bound.csv", "divergences.csv"),
                            {"model": "doeblin_demo", "horizon": 5.0, "n_paths": 2000}, draws=True),
    "detect-classes": Experiment("Ergodic-class detection error of the mismatched filter.",
                                 {HmmModel: _run_detect_classes}, ("detection.csv",),
                                 {"model": "two_class_demo", "horizon": 30.0, "n_paths": 500},
                                 draws=True),
    "kalman": Experiment("Riccati stationarity and dual LQ consistency checks.",
                         {HmmModel: _run_kalman_hmm, LinearGaussianModel: _run_kalman_lg}, (),
                         {"model": "scalar_lg", "horizon": 2.0, "dt": 1e-3}, draws=True),
}


# -- command-line interface ------------------------------------------------------

# every subcommand's argument and options, in --help order; parameters are
# named after the config fields they set, except the config file and the
# catalog parameters in _MODEL_PARAMS
_PARAMS = [
    click.argument("model", required=False),
    click.option("--a1", type=float, help="rate 0<->1 for two_state"),
    click.option("--a2", type=float, help="rate 1<->0 for two_state"),
    click.option("--h-scale", type=float, help="observation scale for two_class_demo"),
    click.option("--config", "config_path", type=click.Path(exists=True),
                 help="JSON experiment configuration; flags override its fields."),
    click.option("--seed", type=int),
    click.option("--out", type=click.Path()),
    click.option("--paths", "n_paths", type=int),
    click.option("--dt", type=float),
    click.option("--horizon", type=float),
    click.option("--tol", type=float),
    click.option("--c", type=float, help="decay rate for the chi-square bound"),
]
_MODEL_PARAMS = ("a1", "a2", "h_scale")


def _build_config(experiment: str, flags: dict, defaults: dict) -> ExperimentConfig:
    """The experiment's defaults, overridden by the ``--config`` file, then
    by the flags that were given."""
    flags = {key: val for key, val in flags.items() if val is not None}
    base = dict(defaults)
    if "config_path" in flags:
        loaded = json.loads(Path(flags.pop("config_path")).read_text())
        schema = loaded.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise click.UsageError(f"unsupported config schema {schema!r}")
        base.update(loaded)
    params = {key: flags.pop(key) for key in _MODEL_PARAMS if key in flags}
    if params:
        base["model_params"] = {**base.get("model_params", {}), **params}
    base.update(flags, experiment=experiment)
    unknown = set(base) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise click.UsageError(f"unknown config fields: {', '.join(sorted(unknown))}")
    try:
        return ExperimentConfig(**base)
    except TypeError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Filtering, duality analysis and stability experiments for hidden
    Markov models and linear-Gaussian systems."""


def _register(name: str, experiment: Experiment) -> None:
    def command(**flags):
        sys.exit(run(_build_config(name, flags, experiment.defaults)))

    for param in reversed(_PARAMS):
        command = param(command)
    main.command(name=name, help=experiment.help)(command)


for _name, _experiment in EXPERIMENTS.items():
    _register(_name, _experiment)


@main.command()
def catalog():
    """List the built-in models."""
    width = max(len(name) for name, _ in catalog_mod.listing())
    for name, desc in catalog_mod.listing():
        click.echo(f"{name:<{width}}  {desc}")


if __name__ == "__main__":
    main()
