"""Filter-stability diagnostics.

Twin-filter experiments run the optimal filter twice on the same observation
record, once from the true prior and once from a mismatched one, and track
the divergence between the two posteriors.  The module provides the
divergence computations, Poincare-type constants (closed forms and brute
force), the exponential chi-square stability bound, the empirical stability
index (log total-variation slope), relative-entropy monotonicity checks, and
ergodic-class detection experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from .filters import wonham_blocks, wonham_filter_batch
from .models import HmmModel, as_simplex, ergodic_classes, invariant_measure, q_matrices
from .sim import batch_hmm_observations, n_steps_for

Array = NDArray[np.float64]

SUPPORT_TOL = 1e-15
DECOMPOSITION_TOL = 1e-8     # largest gap the class decomposition identity allows


@dataclass(frozen=True)
class PriorPair:
    """Mismatched priors ``mu << nu`` with density bounds.

    ``a_lower``/``a_upper`` are the extreme values of ``mu(i)/nu(i)`` over
    the support of ``mu``; both are finite and positive when the pair is
    admissible for the chi-square machinery.
    """

    mu: Array
    nu: Array
    a_lower: float
    a_upper: float

    @classmethod
    def of(cls, mu, nu) -> "PriorPair":
        mu = as_simplex(mu).entries
        nu = as_simplex(nu).entries
        if np.any((mu > SUPPORT_TOL) & (nu <= SUPPORT_TOL)):
            raise ValueError("mu is not absolutely continuous w.r.t. nu")
        ratio = mu[nu > SUPPORT_TOL] / nu[nu > SUPPORT_TOL]
        return cls(mu=mu, nu=nu, a_lower=float(ratio.min()), a_upper=float(ratio.max()))

    def chi2(self) -> float:
        return divergences(self.mu, self.nu)[0]

    def kl(self) -> float:
        return divergences(self.mu, self.nu)[1]


def divergences(p, q) -> tuple[float, float, float]:
    """``(chi2, kl, tv)`` between two simplex vectors with ``p << q`` intended:
    :func:`divergences_batch` on the pair.

    Support violations return ``inf`` for chi-square and KL (with the total
    variation still finite) instead of raising, so streaming experiments can
    continue past numerically degenerate posteriors.
    """
    chi2, kl, tv = divergences_batch(np.asarray(p, dtype=float).ravel(),
                                     np.asarray(q, dtype=float).ravel())
    return float(chi2), float(kl), float(tv)


def divergences_batch(p: Array, q: Array) -> tuple[Array, Array, Array]:
    """:func:`divergences` along the last axis, over matching leading axes."""
    tv = 0.5 * np.abs(p - q).sum(axis=-1)
    bad = ((p > SUPPORT_TOL) & (q <= SUPPORT_TOL)).any(axis=-1)
    safe_q = np.where(q > SUPPORT_TOL, q, 1.0)
    chi2 = np.where(q > SUPPORT_TOL, (p - q) ** 2 / safe_q, 0.0).sum(axis=-1)
    pos = (p > SUPPORT_TOL) & (q > SUPPORT_TOL)
    ratio = np.where(pos, p / safe_q, 1.0)
    kl = np.clip(np.where(pos, p * np.log(ratio), 0.0).sum(axis=-1), 0.0, None)
    return np.where(bad, np.inf, chi2), np.where(bad, np.inf, kl), tv


@dataclass(frozen=True)
class DivergenceTrace:
    """Monte-Carlo means (and standard errors) of twin-filter divergences."""

    dt: float
    chi2: Array
    kl: Array
    tv: Array
    chi2_stderr: Array
    kl_stderr: Array
    tv_stderr: Array
    l2_gaps: Array | None = None        # (n_funcs, n_times) for requested f's
    l2_stderr: Array | None = None
    gamma_max: float = float("nan")     # largest posterior density ratio seen

    def grid(self) -> Array:
        return np.arange(self.chi2.shape[0]) * self.dt


def _mean_stderr(x: Array) -> tuple[Array, Array]:
    finite = np.isfinite(x)
    n = np.maximum(finite.sum(axis=0), 1)
    safe = np.where(finite, x, 0.0)
    mean = safe.sum(axis=0) / n
    var = np.where(finite, (safe - mean) ** 2, 0.0).sum(axis=0) / np.maximum(n - 1, 1)
    mean = np.where(finite.all(axis=0), mean, np.inf)
    return mean, np.sqrt(var / n)


def _twin_beliefs(model: HmmModel, priors: PriorPair, horizon: float, dt: float, n_paths: int,
                  seed, keep_every: int = 1):
    """Kept beliefs of the filters from ``mu`` and from ``nu`` on one batch of
    records simulated under ``mu``: one :func:`wonham_blocks` stream from
    ``[mu, nu]``, whose blocks unpack to the pair."""
    _, incs = batch_hmm_observations(model.with_prior(priors.mu), horizon, dt, n_paths, seed,
                                     measure="P")
    yield from wonham_blocks(model, [priors.mu, priors.nu], incs, dt, keep_every)


def _over_paths(x: Array, stat) -> list[Array]:
    """``stat`` over the paths of a time-major (c, n_paths, ...) block, summed row by row: numpy
    does so for a leading axis only beside a longer second axis, so a spare column is added."""
    pm = np.zeros((x.shape[1], x.shape[0] + 1) + x.shape[2:])
    pm[:, :-1] = np.moveaxis(x, 0, 1)
    return [v[:-1] for v in stat(pm)]


def twin_filter_experiment(
    model: HmmModel,
    priors: PriorPair,
    horizon: float,
    dt: float,
    n_paths: int,
    seed,
    f_list: Array | None = None,
    keep_every: int = 1,
) -> DivergenceTrace:
    """Run twin filters on shared observations and average their divergences.

    Each path simulates ``(X, Z)`` under the true prior ``mu``, filters the
    same record from both priors, and records ``(chi2, kl, tv)`` and,
    optionally, the gaps ``|pi^mu(f) - pi^nu(f)|^2`` for each requested
    function.  ``keep_every`` subsamples the reporting grid; the beliefs
    are reduced a block at a time and never stored whole.
    """
    f_arr = None if f_list is None else np.atleast_2d(np.asarray(f_list, dtype=float))
    blocks, gamma = [], -np.inf
    for pm, pn in _twin_beliefs(model, priors, horizon, dt, n_paths, seed, keep_every):
        stats = [_over_paths(div, _mean_stderr) for div in divergences_batch(pm, pn)]
        if f_arr is not None:
            gaps = (np.einsum("tpd,fd->tpf", pm, f_arr) - np.einsum("tpd,fd->tpf", pn, f_arr)) ** 2
            stats.append([v.T for v in _over_paths(gaps, lambda g: (
                g.mean(axis=0), g.std(axis=0, ddof=1) / np.sqrt(n_paths)))])
        ratio = np.where(pn > SUPPORT_TOL, pm / np.where(pn > SUPPORT_TOL, pn, 1.0), 0.0)
        gamma = np.maximum(gamma, ratio.max(initial=-np.inf))   # NaN propagates, as in one max
        blocks.append([v for pair in stats for v in pair])
    (chi2, chi2_se, kl, kl_se, tv, tv_se, *l2) = (np.concatenate(c, axis=-1) for c in zip(*blocks))
    return DivergenceTrace(dt * keep_every, chi2, kl, tv, chi2_se, kl_se, tv_se,
                           *(l2 or (None, None)), gamma_max=float(gamma))


def kl_supermartingale_check(
    model: HmmModel, priors: PriorPair, horizon: float, dt: float, n_paths: int, seed,
    n_checkpoints: int = 10,
) -> dict:
    """Relative-entropy monotonicity report.

    Verifies (within 3 standard errors) that the mean posterior relative
    entropy never exceeds the prior relative entropy after time 0, that it
    is non-increasing across a coarse checkpoint grid, and that the
    accumulated one-step-prediction energy
    ``0.5 E int |pi^mu(h) - pi^nu(h)|^2 dt`` stays below the prior relative
    entropy.  ``kl_lower_max`` (the largest ``mean - 3 se`` of the relative
    entropy over ``t > 0``; at ``t = 0`` it is the prior's) and
    ``rise_lower_max`` (the largest ``mean - 3 se`` of its rise between
    checkpoints) are the numbers the first two tests compare with
    ``kl_prior`` and 0.
    """
    kl0 = priors.kl()
    if not np.isfinite(kl0):
        raise ValueError("prior relative entropy is infinite")
    n, h = n_steps_for(horizon, dt), model.obs.entries
    check_idx = np.linspace(0, n, n_checkpoints + 1).round().astype(int)[1:]
    stats, at_checks, path_energy, k = [], [], np.zeros(n_paths), 0
    for bel_mu, bel_nu in _twin_beliefs(model, priors, horizon, dt, n_paths, seed):
        kl = divergences_batch(bel_mu, bel_nu)[1]
        stats.append(_over_paths(kl, _mean_stderr))
        at_checks.append(kl[check_idx[(check_idx >= k) & (check_idx < k + len(kl))] - k])
        gap = bel_mu[:n - k] @ h - bel_nu[:n - k] @ h           # left points of the steps
        path_energy += 0.5 * np.einsum("tpm,tpm->p", gap, gap) * dt
        k += len(kl)
    kl_mean, kl_se = (np.concatenate(c) for c in zip(*stats))
    kl_lower_max = float(np.max(kl_mean[1:] - 3.0 * kl_se[1:]))
    kl_checks = np.concatenate(at_checks).T         # the (paths, checkpoints) layout of kl[:, idx]
    diffs = kl_checks[:, 1:] - kl_checks[:, :-1]
    rise = diffs.mean(axis=0) - 3.0 * (diffs.std(axis=0, ddof=1) / np.sqrt(n_paths))
    rise_lower_max = float(np.max(rise, initial=-np.inf))
    energy = float(path_energy.mean())
    energy_se = float(path_energy.std(ddof=1) / np.sqrt(n_paths))
    return {
        "kl_prior": kl0,
        "kl_mean": kl_mean,
        "kl_stderr": kl_se,
        "checkpoints": check_idx * dt,
        "kl_lower_max": kl_lower_max,
        "rise_lower_max": rise_lower_max,
        "bounded_by_prior": bool(kl_lower_max <= kl0 + 1e-12),
        "non_increasing": rise_lower_max <= 1e-12,
        "obs_energy": energy,
        "obs_energy_stderr": energy_se,
        "obs_energy_bounded": bool(energy <= kl0 + 3.0 * energy_se),
    }


# -- Poincare constants --------------------------------------------------------

PiMethod = Literal["closed-form-2state", "doeblin", "sqrt", "brute-force"]


@dataclass(frozen=True)
class PiConstant:
    value: float
    method: PiMethod
    certificate: tuple[Array, Array] | None = None   # minimizing (rho, f)


def _constant_complement(d: int) -> Array:
    ones = np.ones((d, 1)) / np.sqrt(d)
    u, _, _ = np.linalg.svd(ones, full_matrices=True)
    return u[:, 1:]


def _min_ratio_batch(q: Array, rhos: Array) -> tuple[Array, Array]:
    """Minimize energy/variance over f orthogonal to constants, for a batch
    of simplex points at once (generalized eigenproblem on the complement of
    the constants; shifting f by constants changes neither form, so the
    restriction loses nothing).  ``q`` holds the carre du champ matrices."""
    d = q.shape[0]
    b = _constant_complement(d)
    e_all = np.einsum("ni,ijk->njk", rhos, q)
    c_all = np.einsum("ni,ij->nij", rhos, np.eye(d)) - rhos[:, :, None] * rhos[:, None, :]
    eb = np.einsum("ki,nkl,lj->nij", b, e_all, b)
    cb = np.einsum("ki,nkl,lj->nij", b, c_all, b)
    lam, vec = np.linalg.eigh(cb)
    lam = np.clip(lam, 1e-14, None)
    w = np.einsum("nik,nk,njk->nij", vec, 1.0 / np.sqrt(lam), vec)
    sym = w @ eb @ w
    sym = 0.5 * (sym + np.transpose(sym, (0, 2, 1)))
    mu, phi = np.linalg.eigh(sym)
    f = np.einsum("ij,njk->nik", b, w @ phi)[:, :, 0]
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    return mu[:, 0], f


def pi_constant(
    model: HmmModel,
    method: PiMethod,
    resolution: float = 1e-3,
    n_samples: int = 100_000,
    seed: int = 0,
) -> PiConstant:
    """Poincare constant of the chain, by closed form or brute force.

    Closed forms: the 2-state uniform constant
    ``a1 + a2 + 2 sqrt(a1 a2)``; the Doeblin column bound
    ``sum_j min_{i != j} A(i,j)``; and the symmetrized square-root bound
    ``min_{i != j} 2 sqrt(A(i,j) A(j,i))``.  Brute force minimizes
    ``rho(Gamma f) / var_rho(f)`` over simplex points (a fine grid for two
    states, Dirichlet samples otherwise, plus local refinement around the
    incumbent) with the inner minimization over ``f`` solved exactly.
    """
    a = model.rate.entries
    d = model.dim
    if method == "closed-form-2state":
        if d != 2:
            raise ValueError("closed-form-2state requires d = 2")
        a1, a2 = a[0, 1], a[1, 0]
        if a1 <= 0 or a2 <= 0:
            raise ValueError("closed-form-2state requires an irreducible chain")
        p_star = float(np.sqrt(a1 * a2) - a2) / (a1 - a2) if a1 != a2 else 0.5
        rho = np.array([p_star, 1.0 - p_star])
        f = np.array([1.0, -1.0]) / np.sqrt(2.0)
        return PiConstant(float(a1 + a2 + 2.0 * np.sqrt(a1 * a2)), method, (rho, f))
    if method == "doeblin":
        off = a + np.diag(np.full(d, np.inf))
        return PiConstant(float(off.min(axis=0).sum()), method)
    if method == "sqrt":
        prod = a * a.T
        mask = ~np.eye(d, dtype=bool)
        return PiConstant(float(2.0 * np.sqrt(np.clip(prod[mask], 0.0, None).min())), method)
    if method != "brute-force":
        raise ValueError(f"unknown method {method!r}")

    if d == 2:
        ps = np.arange(resolution, 1.0, resolution)
        rhos = np.stack([ps, 1.0 - ps], axis=1)
    else:
        rng = np.random.default_rng(seed)
        rhos = rng.dirichlet(np.ones(d), size=n_samples)
    q = q_matrices(model.rate).q_of
    vals, fs = _min_ratio_batch(q, rhos)
    k = int(np.argmin(vals))
    val, rho, f = float(vals[k]), rhos[k], fs[k]
    # local refinement around the incumbent
    rng = np.random.default_rng(seed + 1)
    width = resolution if d == 2 else 0.05
    for _ in range(3):
        cand = np.clip(rho + width * rng.standard_normal((400, d)), 1e-9, None)
        cand /= cand.sum(axis=1, keepdims=True)
        v, g = _min_ratio_batch(q, cand)
        j = int(np.argmin(v))
        if v[j] < val:
            val, rho, f = float(v[j]), cand[j], g[j]
        width /= 4.0
    return PiConstant(val, "brute-force", (rho, f))


def beta_process(model: HmmModel, beliefs: Array, dt: float) -> tuple[Array, Array]:
    """Pathwise Poincare rate ``beta_t = sum_i pi_t(i) min_{j != i} A(i,j)``.

    Returns the pointwise values and the running time average
    ``(1/t) int_0^t beta_s ds`` (trapezoid); the average converges to the
    invariant-weighted row minimum for an ergodic chain.
    """
    a = model.rate.entries
    d = model.dim
    row_min = (a + np.diag(np.full(d, np.inf))).min(axis=1)
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    beta = beliefs @ row_min
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (beta[1:] + beta[:-1]) * dt)])
    t = np.arange(beta.shape[0]) * dt
    avg = np.divide(cum, t, out=beta.copy(), where=t > 0)
    return beta, avg


def log_slope(times: Array, mean: Array, stderr: Array) -> tuple[float, float]:
    """Weighted least-squares slope of ``log mean`` against ``times``, with
    its standard error.

    Delta method: ``var(log mean) ~ (stderr / mean)^2``; the weights are the
    inverse variances and the points are treated as independent.
    """
    logs = np.log(mean)
    rel = np.maximum(stderr, 1e-30) / mean
    w = 1.0 / rel**2
    xm = (w * times).sum() / w.sum()
    ym = (w * logs).sum() / w.sum()
    sxx = (w * (times - xm) ** 2).sum()
    return float((w * (times - xm) * (logs - ym)).sum() / sxx), float(np.sqrt(1.0 / sxx))


@dataclass(frozen=True)
class StabilityIndexReport:
    slope: float
    slope_stderr: float
    sqrt_bound: float          # -2 min sqrt(A(i,j) A(j,i))
    row_min_bound: float       # -sum mubar(i) min_{j != i} A(i,j)
    degenerate: bool           # TV too small to fit a slope
    window: tuple[float, float]
    tv_trace: Array
    dt: float


def stability_index(
    model: HmmModel, priors: PriorPair, horizon: float, dt: float, n_paths: int, seed,
) -> StabilityIndexReport:
    """Empirical decay exponent of the twin-filter total variation.

    Fits the least-squares slope of ``log E[TV_t]`` over the second half of
    the horizon (the first half is treated as transient) and reports it next
    to the two closed-form upper bounds on the decay exponent.  When the
    total variation in the window is numerically zero the slope is undefined
    and the report is flagged degenerate.
    """
    trace = twin_filter_experiment(model, priors, horizon, dt, n_paths, seed)
    n = trace.tv.shape[0] - 1
    lo = n // 2
    window = trace.tv[lo:]
    times = np.arange(lo, n + 1) * dt
    degenerate = bool(np.any(~np.isfinite(window)) or window.min() <= 1e-12)
    if degenerate:
        slope, slope_se = float("nan"), float("nan")
    else:
        slope, slope_se = log_slope(times, window, trace.tv_stderr[lo:])
    classes, transient = ergodic_classes(model.rate)
    if len(classes) == 1 and not transient:
        mubar = invariant_measure(model.rate).entries
        a = model.rate.entries
        row_min = (a + np.diag(np.full(model.dim, np.inf))).min(axis=1)
        row_bound = -float(mubar @ row_min)
    else:
        row_bound = float("nan")
    sqrt_bound = -pi_constant(model, "sqrt").value
    return StabilityIndexReport(
        slope=slope, slope_stderr=slope_se, sqrt_bound=sqrt_bound,
        row_min_bound=row_bound, degenerate=degenerate,
        window=(lo * dt, horizon), tv_trace=trace.tv, dt=dt,
    )


def chi2_bound_check(
    model: HmmModel, priors: PriorPair, horizon: float, dt: float, n_paths: int, seed,
    c: float, n_checkpoints: int = 10,
) -> dict:
    """Exponential chi-square stability bound at checkpoint times.

    Checks ``a_lower * E[chi2_t] <= exp(-c t) * chi2(mu | nu) + 3 stderr``
    at ``n_checkpoints`` times; the rate ``c`` comes from a Poincare
    constant when one applies to the model, otherwise it is user supplied
    and the report is purely empirical.
    """
    if priors.a_lower <= 0:
        raise ValueError("the bound requires a strictly positive density lower bound")
    chi2_0 = priors.chi2()
    n = n_steps_for(horizon, dt)
    keep = max(n // (10 * n_checkpoints), 1)
    trace = twin_filter_experiment(model, priors, horizon, dt, n_paths, seed, keep_every=keep)
    grid = trace.grid()
    check_idx = np.linspace(1, grid.shape[0] - 1, n_checkpoints).round().astype(int)
    lhs = priors.a_lower * trace.chi2[check_idx]
    slack = 3.0 * priors.a_lower * trace.chi2_stderr[check_idx]
    rhs = np.exp(-c * grid[check_idx]) * chi2_0
    ok = np.isfinite(lhs) & (lhs <= rhs + slack)
    return {
        "times": grid[check_idx],
        "lhs": lhs,
        "rhs": rhs,
        "stderr": slack / 3.0,
        "holds": ok,
        "all_hold": bool(np.all(ok)),
        "c": float(c),
        "chi2_prior": chi2_0,
        "gamma_max": trace.gamma_max,
        "gamma_limit": priors.a_upper / priors.a_lower,
        "trace": trace,
    }


def ergodic_class_detection(
    model: HmmModel, priors: PriorPair, horizon: float, dt: float, n_paths: int, seed,
) -> dict:
    """Ergodic-class detection error of the mismatched filter.

    Simulates under the true prior, filters from ``nu``, and reports the
    mean error ``E |pi_T(1_{S_k}) - 1_{S_k}(X_0)|`` per closed class.  Along
    each path the class decomposition identity
    ``pi_T = sum_k pi_T(1_{S_k}) pi_T^{nu_k}`` is verified against filters
    started from the per-class conditional priors.  Transient states are
    rejected.
    """
    classes, transient = ergodic_classes(model.rate)
    if transient:
        raise ValueError(f"transient states present: {sorted(transient)}")
    if len(classes) < 1:
        raise ValueError("no closed classes found")
    n = n_steps_for(horizon, dt)
    work = model.with_prior(priors.mu)
    paths, incs = batch_hmm_observations(work, horizon, dt, n_paths, seed, measure="P")
    nu = priors.nu
    indicators = np.stack([np.isin(np.arange(model.dim), sorted(cls)).astype(float) for cls in classes])
    weights = [float(ind @ nu) for ind in indicators]
    # one pass from nu and each class's conditional prior nu_k (none without nu mass): rows 0, n
    starts = [nu] + [nu * ind / w for ind, w in zip(indicators, weights) if w > 0]
    bel_nu, *bel_classes = wonham_filter_batch(model, starts, incs, dt, keep_every=n)
    class_mass = np.einsum("ptd,kd->ptk", bel_nu, indicators)
    true_mass = indicators[:, paths.x0].T               # (n_paths, n_classes)
    err = np.abs(class_mass[:, -1, :] - true_mass)
    detection_error = err.mean(axis=0)
    detection_stderr = err.std(axis=0, ddof=1) / np.sqrt(n_paths)

    # decomposition identity on each path, at the terminal time
    recomposed = np.zeros_like(bel_nu[:, -1, :])
    for k, bel_k in zip(np.flatnonzero(np.array(weights) > 0), bel_classes):
        recomposed += class_mass[:, -1, k][:, None] * bel_k[:, -1, :]
    max_gap = float(np.abs(recomposed - bel_nu[:, -1, :]).max())
    # class mass along nu-paths is a martingale; report the mean drift
    drift = class_mass[:, -1, :] - class_mass[:, 0, :]
    return {
        "classes": [sorted(cls) for cls in classes],
        "detection_error": detection_error,
        "detection_stderr": detection_stderr,
        "decomposition_gap": max_gap,
        "decomposition_ok": bool(max_gap <= DECOMPOSITION_TOL),
        "class_mass_drift": drift.mean(axis=0),
        "class_mass_drift_stderr": drift.std(axis=0, ddof=1) / np.sqrt(n_paths),
    }
