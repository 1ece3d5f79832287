"""Configuration-driven experiment runner.

Every experiment writes, under the output directory:

* ``manifest.json`` -- the resolved configuration, library version and seed
  (everything needed to reproduce each number in the summary);
* one CSV per metric;
* ``summary.json`` -- computed values plus one pass/fail entry per check.

Exit status: 0 when every check passes, 1 on a failed check or numerical
failure, 2 on usage errors.  Identical configurations and seeds produce
byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
from .smoothing import _discrete_kalman, _fraser_potter, _rts, forward_backward_smoother
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


# experiments that draw Monte-Carlo paths; ``kalman`` does on finite-state models
MONTE_CARLO = frozenset({"gramian", "duality-check", "stability", "detect-classes"})


def _check_grid_and_paths(config: ExperimentConfig, model) -> None:
    """Reject a time grid or a path count that the experiment cannot run on."""
    try:
        dt, horizon = float(config.dt), float(config.horizon)
    except (TypeError, ValueError):
        raise click.UsageError(f"dt and horizon must be numbers, got {config.dt!r} and {config.horizon!r}")
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
        raise click.UsageError(f"dt and horizon must be positive and finite, got {dt:g} and {horizon:g}")
    try:
        n_steps_for(horizon, dt)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    draws = config.experiment in MONTE_CARLO or (
        config.experiment == "kalman" and isinstance(model, HmmModel))
    if draws and not (isinstance(config.n_paths, int) and config.n_paths >= 2):
        raise click.UsageError(
            f"{config.experiment} needs at least 2 Monte-Carlo paths, got {config.n_paths!r}")


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and write its artifacts; returns the exit code."""
    runners = {
        "simulate": _run_simulate,
        "filter": _run_filter,
        "smooth": _run_smooth,
        "analyze": _run_analyze,
        "gramian": _run_gramian,
        "duality-check": _run_duality_check,
        "stability": _run_stability,
        "detect-classes": _run_detect_classes,
        "kalman": _run_kalman,
    }
    if config.experiment not in runners:
        raise click.UsageError(
            f"unknown experiment {config.experiment!r}; known: {', '.join(sorted(runners))}")
    try:
        model = config.resolve_model()
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"cannot build model: {exc}")
    _check_grid_and_paths(config, model)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config": _jsonify(asdict(config)),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    try:
        checks, values, files = runners[config.experiment](config, model)
    except NumericalFailure as exc:
        (out / "summary.json").write_text(json.dumps(
            {"experiment": config.experiment, "error": str(exc)}, indent=2) + "\n")
        click.echo(f"numerical failure: {exc}", err=True)
        return 1
    for name, text in files.items():
        (out / name).write_text(text)
    summary = {
        "experiment": config.experiment,
        "checks": [_jsonify(asdict(c)) for c in checks],
        "values": _jsonify(values),
        "all_passed": all(c.passed for c in checks),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for c in checks:
        click.echo(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: value={c.value:.6g} threshold={c.threshold:.6g}")
    if not summary["all_passed"]:
        click.echo("one or more checks failed", err=True)
        return 1
    return 0


# -- experiment runners ---------------------------------------------------------

def _run_simulate(config: ExperimentConfig, model):
    files = {}
    if isinstance(model, HmmModel):
        sp, obs = simulate_hmm(model, config.horizon, config.dt, config.seed)
        files["states.csv"] = state_path_csv(sp)
        files["observations.csv"] = observation_csv(obs)
        values = {"n_jumps": len(sp.jump_times) - 1, "n_steps": obs.n_steps}
    else:
        xs, obs = simulate_linear_gaussian(model, config.horizon, config.dt, config.seed)
        head = "t," + ",".join(f"x_{i + 1}" for i in range(model.dim))
        files["states.csv"] = csv_text(head, grid_rows(config.dt, xs))
        files["observations.csv"] = observation_csv(obs)
        values = {"n_steps": obs.n_steps}
    return [], values, files


def _run_filter(config: ExperimentConfig, model):
    checks, files = [], {}
    if isinstance(model, HmmModel):
        sp, obs = simulate_hmm(model, config.horizon, config.dt, config.seed)
        unn = zakai_filter(model, model.prior, obs)
        bel = unn.normalized()
        inn = innovation_path(model, bel, obs)
        mean = float(inn.mean())
        se = float(inn.std(ddof=1) / np.sqrt(inn.size))
        checks.append(Check("innovation_mean_zero", abs(mean) <= 3 * se + 1e-12, mean, 3 * se))
        files["beliefs.csv"] = bel.csv()
        values = {"terminal_belief": bel.beliefs[-1], "log_mass": unn.log_normalizer[-1]}
    else:
        _, obs = simulate_linear_gaussian(model, config.horizon, config.dt, config.seed)
        gp = kalman_bucy(model, obs)
        lam = float(np.linalg.eigvalsh(gp.covs).min())
        checks.append(Check("covariance_psd", lam >= -1e-8, lam, -1e-8))
        files["beliefs.csv"] = gp.csv()
        values = {"terminal_mean": gp.means[-1], "terminal_cov": gp.covs[-1]}
    return checks, values, files


def _run_smooth(config: ExperimentConfig, model):
    checks, files = [], {}
    if isinstance(model, HmmModel):
        sp, obs = simulate_hmm(model, config.horizon, config.dt, config.seed)
        sm = forward_backward_smoother(model, obs)
        files["smoothed.csv"] = sm.csv()
        values = {"terminal": sm.smoothed[-1]}
    else:
        _, obs = simulate_linear_gaussian(model, config.horizon, config.dt, config.seed)
        kf = _discrete_kalman(model, obs)                 # one filter pass for both smoothers
        r, f = _rts(kf, obs.dt), _fraser_potter(model, kf, obs.dt)
        gap = float(np.abs(r.smoothed_means - f.smoothed_means).max())
        checks.append(Check("two_filter_matches_rts", gap <= 1e-6, gap, 1e-6))
        files["smoothed.csv"] = r.csv()
        values = {"terminal": r.smoothed_means[-1]}
    return checks, values, files


def _run_analyze(config: ExperimentConfig, model):
    if not isinstance(model, HmmModel):
        raise click.UsageError("analyze requires a finite-state model")
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


def _run_gramian(config: ExperimentConfig, model):
    if not isinstance(model, HmmModel):
        raise click.UsageError("gramian requires a finite-state model")
    est = gramian_mc(model, config.horizon, config.dt, config.n_paths, config.seed)
    sub = controllable_subspace(model, config.tol)
    rank = est.rank(rel_tol=config.tol)
    checks = [Check("rank_matches_closure_dim", rank == sub.dim, float(rank), float(sub.dim))]
    d = model.dim
    rows = ([i + 1, j + 1, est.mean[i, j].item(), est.stderr[i, j].item()]
            for i in range(d) for j in range(d))
    values = {"rank": rank, "closure_dim": sub.dim, "mean": est.mean, "stderr": est.stderr}
    return checks, values, {"gramian.csv": csv_text("i,j,mean,stderr", rows)}


def _run_duality_check(config: ExperimentConfig, model):
    if not isinstance(model, HmmModel):
        raise click.UsageError("duality-check requires a finite-state model")
    rng = np.random.default_rng(config.seed)
    n = int(round(config.horizon / config.dt))
    f = rng.standard_normal(model.dim)
    checks, rows = [], []
    for trial in range(5):
        blocks = -(-n // 10)  # ceil; truncated back to n below
        u = rng.standard_normal((10, model.n_channels)).repeat(blocks, axis=0)[:n] * 0.4
        j, mse, se = duality_check_mc(model, u, f, config.n_paths, config.seed + trial, config.dt,
                                      horizon=config.horizon)
        z = abs(j - mse) / se if se > 0 else 0.0
        checks.append(Check(f"duality_gap_control_{trial}", z <= 3.0, z, 3.0))
        rows.append([trial, float(j), mse, se, float(z)])
    return checks, {"f": f}, {"duality.csv": csv_text("control,j_value,mse,stderr,z", rows)}


def _run_stability(config: ExperimentConfig, model):
    if not isinstance(model, HmmModel):
        raise click.UsageError("stability requires a finite-state model")
    d = model.dim
    checks = []
    values: dict = {}
    doeblin = pi_constant(model, "doeblin")
    sqrt_c = pi_constant(model, "sqrt")
    values["doeblin_constant"] = doeblin.value
    values["sqrt_constant"] = sqrt_c.value
    if d == 2:
        closed = pi_constant(model, "closed-form-2state")
        brute = pi_constant(model, "brute-force", resolution=1e-3)
        gap = abs(closed.value - brute.value)
        checks.append(Check("two_state_constant_matches_brute_force", gap <= 1e-2, gap, 1e-2))
        values["closed_form_constant"] = closed.value
        values["brute_force_constant"] = brute.value
        c_rate = closed.value
    else:
        c_rate = doeblin.value
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
    checks.append(Check("kl_bounded_by_prior", kl_rep["bounded_by_prior"], kl_rep["kl_prior"], kl_rep["kl_prior"]))
    checks.append(Check("kl_non_increasing", kl_rep["non_increasing"], 1.0, 1.0))
    rows = zip(*(np.asarray(report[key], dtype=float).tolist()
                 for key in ("times", "lhs", "rhs", "stderr")),
               np.asarray(report["holds"], dtype=int).tolist())
    values["chi2_prior"] = report["chi2_prior"]
    files = {"chi2_bound.csv": csv_text("t,lhs,rhs,stderr,holds", rows),
             "divergences.csv": report["trace"].csv()}
    return checks, values, files


def _run_detect_classes(config: ExperimentConfig, model):
    if not isinstance(model, HmmModel):
        raise click.UsageError("detect-classes requires a finite-state model")
    d = model.dim
    nu = np.full(d, 1.0 / d)
    pair = PriorPair.of(model.prior.entries, nu)
    rep = ergodic_class_detection(model, pair, config.horizon, config.dt, config.n_paths, config.seed)
    checks = [Check("decomposition_identity", rep["decomposition_ok"], rep["decomposition_gap"],
                    DECOMPOSITION_TOL)]
    rows = ([k + 1, "|".join(str(s) for s in cls), float(rep["detection_error"][k]),
             float(rep["detection_stderr"][k])] for k, cls in enumerate(rep["classes"]))
    return checks, rep, {"detection.csv": csv_text("class,states,detection_error,stderr", rows)}


def _run_kalman(config: ExperimentConfig, model):
    checks = []
    if isinstance(model, LinearGaussianModel):
        sigma_inf, hurwitz = solve_are(model)           # raises on a residual above ARE_RESIDUAL_TOL
        checks.append(Check("closed_loop_hurwitz", hurwitz, float(hurwitz), 1.0))
        rng = np.random.default_rng(config.seed)
        f = rng.standard_normal(model.dim)
        # the ODEs run at the largest step dt / m that does not exceed ODE_STEP
        step = config.dt / math.ceil(config.dt / ODE_STEP * (1.0 - GRID_ALIGN_TOL))
        cost, _, _, sig = dual_lq_linear_gaussian(model, f, config.horizon, step)
        target = float(f @ sig[-1] @ f)
        gap = abs(cost - target)
        checks.append(Check("dual_lq_matches_riccati", gap <= 1e-6, gap, 1e-6))
        values = {"sigma_inf": sigma_inf, "hurwitz": hurwitz, "dual_cost": cost, "riccati_value": target}
        return checks, values, {}
    # finite chain: compare the chain Kalman filter against the dual LQ value
    rng = np.random.default_rng(config.seed)
    f = rng.standard_normal(model.dim)
    cost, u, y, sig = dual_deterministic_markov(model, f, config.horizon, config.dt)
    j, mse, se = duality_check_mc(model, u[:-1], f, config.n_paths, config.seed,
                                  config.dt, horizon=config.horizon)
    z = abs(j - mse) / se if se > 0 else 0.0
    checks.append(Check("deterministic_dual_duality_gap", z <= 3.0, z, 3.0))
    values = {"dual_cost": cost, "mc_mse": mse, "stderr": se}
    return checks, values, {}


# -- command-line interface ------------------------------------------------------

def _common_options(fn):
    for opt in reversed([
        click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                     help="JSON experiment configuration; flags override its fields."),
        click.option("--seed", type=int, default=None),
        click.option("--out", type=click.Path(), default=None),
        click.option("--paths", "n_paths", type=int, default=None),
        click.option("--dt", type=float, default=None),
        click.option("--horizon", type=float, default=None),
        click.option("--tol", type=float, default=None),
        click.option("--c", "c_rate", type=float, default=None,
                     help="decay rate for the chi-square bound"),
    ]):
        fn = opt(fn)
    return fn


def _build_config(experiment, model, config_path, seed, out, n_paths, dt, horizon, tol, c_rate,
                  model_params=None, defaults=None) -> ExperimentConfig:
    base: dict = dict(defaults or {})
    if config_path is not None:
        loaded = json.loads(Path(config_path).read_text())
        if loaded.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise click.UsageError(f"unsupported config schema {loaded.get('schema')!r}")
        loaded.pop("schema", None)
        base.update(loaded)
    if model is not None:
        base["model"] = model
    if model_params:
        base["model_params"] = {**base.get("model_params", {}), **model_params}
    for key, val in (("seed", seed), ("out", out), ("n_paths", n_paths), ("dt", dt),
                     ("horizon", horizon), ("tol", tol), ("c", c_rate)):
        if val is not None:
            base[key] = val
    base["experiment"] = experiment
    known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    unknown = set(base) - known
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


_EXPERIMENT_HELP = {
    "simulate": "Sample a state/observation record and write it as CSV.",
    "filter": "Run the optimal filter on a fresh record.",
    "smooth": "Run the smoothers on a fresh record.",
    "analyze": "Controllable subspace, observability and stabilizability.",
    "gramian": "Monte-Carlo controllability gramian and its rank.",
    "duality-check": "Control cost versus estimator error for random controls.",
    "stability": "Poincare constants and the chi-square stability bound.",
    "detect-classes": "Ergodic-class detection error of the mismatched filter.",
    "kalman": "Riccati stationarity and dual LQ consistency checks.",
}


def _register(name: str, defaults: dict | None = None):
    defaults = defaults or {}

    @main.command(name=name, help=_EXPERIMENT_HELP.get(name))
    @click.argument("model", required=False, default=None)
    @click.option("--a1", type=float, default=None, help="rate 0<->1 for two_state")
    @click.option("--a2", type=float, default=None, help="rate 1<->0 for two_state")
    @click.option("--h-scale", type=float, default=None, help="observation scale for two_class_demo")
    @_common_options
    def _cmd(model, a1, a2, h_scale, config_path, seed, out, n_paths, dt, horizon, tol, c_rate,
             _name=name, _defaults=defaults):
        params = {}
        if a1 is not None:
            params["a1"] = a1
        if a2 is not None:
            params["a2"] = a2
        if h_scale is not None:
            params["h_scale"] = h_scale
        cfg = _build_config(_name, model, config_path, seed, out, n_paths, dt, horizon, tol,
                            c_rate, params, defaults=_defaults)
        sys.exit(run(cfg))

    return _cmd


for _name, _defaults in [
    ("simulate", {}),
    ("filter", {}),
    ("smooth", {}),
    ("analyze", {}),
    ("gramian", {"horizon": 5.0, "dt": 5e-3, "n_paths": 2000}),
    ("duality-check", {"horizon": 2.0, "dt": 1e-3, "n_paths": 2000}),
    ("stability", {"model": "doeblin_demo", "horizon": 5.0, "n_paths": 2000}),
    ("detect-classes", {"model": "two_class_demo", "horizon": 30.0, "n_paths": 500}),
    ("kalman", {"model": "scalar_lg", "horizon": 2.0, "dt": 1e-3}),
]:
    _register(_name, _defaults)


@main.command()
def catalog():
    """List the built-in models."""
    width = max(len(name) for name, _ in catalog_mod.listing())
    for name, desc in catalog_mod.listing():
        click.echo(f"{name:<{width}}  {desc}")


if __name__ == "__main__":
    main()
