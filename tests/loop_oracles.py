"""Per-step reference loops for the finite-state filters, the Zakai
operator, the smoother, the dual half-grid solve and the Monte-Carlo
path sampler.

Each function is the plain one-step-at-a-time recursion that the chunked
forward kernel of ``dualfilter.filters`` (or, for the half grid,
``dualfilter.duality.backward_dual_ode``; for the sampler,
``dualfilter.sim.batch_hmm_observations``) replaces.  They are slow (Python
runs once per step, jump or path) and exist only as test oracles.
"""

import numpy as np
from scipy.special import logsumexp

from dualfilter._linalg import cached_expm, drift_step
from dualfilter._rng import path_rng
from dualfilter.filters import MASS_FLOOR, BeliefPath, UnnormalizedPath, ZakaiOperatorPath
from dualfilter.models import NumericalFailure, as_simplex
from dualfilter.sim import ABSORBING_RATE, n_steps_for
from dualfilter.smoothing import SmoothingPath


def wonham_loop(model, prior, obs) -> BeliefPath:
    prior = as_simplex(prior)
    h = model.obs.entries
    trans = cached_expm(model.rate.entries.T, obs.dt)
    like = np.exp(obs.increments @ h.T - 0.5 * np.sum(h * h, axis=1) * obs.dt)
    out = np.empty((obs.n_steps + 1, model.dim))
    out[0] = prior.entries
    pi = prior.entries
    for k in range(obs.n_steps):
        pi = like[k] * (trans @ pi)
        mass = pi.sum()
        if not mass > MASS_FLOOR:
            raise NumericalFailure("posterior mass underflow", step=k)
        pi = pi / mass
        out[k + 1] = pi
    return BeliefPath(dt=obs.dt, beliefs=out)


def wonham_batch_loop(model, prior, increments, dt, keep_every=1):
    prior = as_simplex(prior)
    n_paths, n_steps, _ = increments.shape
    trans_t = cached_expm(model.rate.entries.T, dt).T
    h = model.obs.entries
    quad = 0.5 * np.sum(h * h, axis=1) * dt
    out = np.empty((n_paths, n_steps // keep_every + 1, model.dim))
    out[:, 0] = prior.entries
    pi = np.broadcast_to(prior.entries, (n_paths, model.dim)).copy()
    for k in range(n_steps):
        pi = (pi @ trans_t) * np.exp(increments[:, k] @ h.T - quad)
        mass = pi.sum(axis=1)
        if not np.all(mass > MASS_FLOOR):
            raise NumericalFailure("posterior mass underflow", step=k)
        pi = pi / mass[:, None]
        if (k + 1) % keep_every == 0:
            out[:, (k + 1) // keep_every] = pi
    return out


def zakai_loop(model, prior, obs) -> UnnormalizedPath:
    prior = as_simplex(prior)
    h = model.obs.entries
    trans = cached_expm(model.rate.entries.T, obs.dt)
    quad = 0.5 * np.sum(h * h, axis=1) * obs.dt
    log_like = obs.increments @ h.T - quad
    masses = np.empty((obs.n_steps + 1, model.dim))
    logn = np.empty(obs.n_steps + 1)
    masses[0] = prior.entries
    logn[0] = 0.0
    pi = prior.entries
    for k in range(obs.n_steps):
        peak = log_like[k].max()
        pi = np.exp(log_like[k] - peak) * (trans @ pi)
        mass = pi.sum()
        pi = pi / mass
        masses[k + 1] = pi
        logn[k + 1] = logn[k] + np.log(mass) + peak
    return UnnormalizedPath(dt=obs.dt, masses=masses, log_normalizer=logn)


def zakai_operator_loop(model, obs) -> ZakaiOperatorPath:
    """Raw likelihoods; a column is rescaled by its peak only when that peak
    leaves ``[1e-150, 1e150]``."""
    d, rescale_above = model.dim, 1e150
    trans = cached_expm(model.rate.entries.T, obs.dt)
    h = model.obs.entries
    like = np.exp(obs.increments @ h.T - 0.5 * np.sum(h * h, axis=1) * obs.dt)
    psi = np.empty((obs.n_steps + 1, d, d))
    log_scale = np.zeros((obs.n_steps + 1, d))
    psi[0] = cur = np.eye(d)
    scale = np.zeros(d)
    for k in range(obs.n_steps):
        cur = like[k][:, None] * (trans @ cur)
        peak = np.abs(cur).max(axis=0)
        hot = (peak > rescale_above) | ((peak > 0.0) & (peak < 1.0 / rescale_above))
        if np.any(hot):
            cur[:, hot] /= peak[hot]
            scale = scale + np.where(hot, np.log(peak, where=peak > 0, out=np.zeros(d)), 0.0)
        psi[k + 1] = cur
        log_scale[k + 1] = scale
    return ZakaiOperatorPath(dt=obs.dt, psi=psi, log_scale=log_scale)


def backward_dual_half_grid_loop(model, f, u, dt):
    """``-dy/dt = A y + H u`` backward from ``y(T) = f`` at half-step
    resolution (2 n + 1 points), ``u[j // 2]`` on half step ``j``."""
    h = model.obs.entries
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n = u.shape[0]
    f_step, f_int = drift_step(model.rate.entries, dt / 2.0)
    y = np.empty((2 * n + 1, model.dim))
    y[2 * n] = np.asarray(f, dtype=float)
    for j in range(2 * n - 1, -1, -1):
        y[j] = f_step @ y[j + 1] + f_int @ (h @ u[j // 2])
    return y


def forward_backward_loop(model, obs, prior=None) -> SmoothingPath:
    prior = as_simplex(model.prior if prior is None else prior)
    n, dt = obs.n_steps, obs.dt
    d = model.dim
    trans_meas = cached_expm(model.rate.entries.T, dt)
    trans_fun = trans_meas.T
    h = model.obs.entries
    quad = 0.5 * np.sum(h * h, axis=1) * dt
    log_like = obs.increments @ h.T - quad

    log_fwd = np.empty((n + 1, d))
    with np.errstate(divide="ignore"):
        log_fwd[0] = np.log(prior.entries)
    for k in range(n):
        prev = log_fwd[k]
        peak = prev.max()
        pred = trans_meas @ np.exp(prev - peak)
        with np.errstate(divide="ignore"):
            log_fwd[k + 1] = np.log(pred) + peak + log_like[k]

    log_bwd = np.empty((n + 1, d))
    log_bwd[n] = 0.0
    for k in range(n - 1, -1, -1):
        nxt = log_bwd[k + 1] + log_like[k]
        peak = nxt.max()
        with np.errstate(divide="ignore"):
            log_bwd[k] = np.log(trans_fun @ np.exp(nxt - peak)) + peak

    joint = log_fwd + log_bwd
    smoothed = np.exp(joint - logsumexp(joint, axis=1, keepdims=True))
    return SmoothingPath(dt=dt, smoothed=smoothed, log_forward=log_fwd, log_backward=log_bwd)


def ctmc_loop(model, horizon, rng):
    """One jump-chain path, each categorical draw a ``Generator.choice``;
    returns ``(jump_times, states)`` with ``jump_times[0] = 0``."""
    a = model.rate.entries
    exit_rate = -np.diag(a)
    state = int(rng.choice(model.dim, p=model.prior.entries))
    times, states = [0.0], [state]
    t = 0.0
    while True:
        rate = exit_rate[state]
        if rate <= ABSORBING_RATE:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        row = a[state].copy()
        row[state] = 0.0
        state = int(rng.choice(model.dim, p=row / rate))
        times.append(t)
        states.append(state)
    return np.array(times), np.array(states, dtype=np.int64)


def occupation_loop(jump_times, states, horizon, values, grid):
    """``int_0^{grid[k]} values[X_s] ds`` of one path by cumulative sum and searchsorted."""
    times = np.append(jump_times, horizon)
    levels = values[states]
    seg = np.diff(times)
    cum = np.concatenate([np.zeros((1,) + levels.shape[1:]),
                          np.cumsum(seg.reshape(-1, *([1] * (levels.ndim - 1))) * levels, axis=0)])
    idx = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(seg) - 1)
    return cum[idx] + (grid - times[idx]).reshape(-1, *([1] * (levels.ndim - 1))) * levels[idx]


def batch_hmm_loop(model, horizon, dt, n_paths, seed, measure="P"):
    """Path by path: ``([(jump_times, states), ...], increments)``; under
    ``P_tilde`` no chain is drawn and the list is empty."""
    n = n_steps_for(horizon, dt)
    paths = []
    incs = np.empty((n_paths, n, model.n_channels))
    grid = np.arange(n + 1) * dt
    for k in range(n_paths):
        rng = path_rng(seed, k)
        if measure == "P_tilde":
            incs[k] = np.sqrt(dt) * rng.standard_normal((n, model.n_channels))
            continue
        jump_times, states = ctmc_loop(model, horizon, rng)
        paths.append((jump_times, states))
        noise = np.sqrt(dt) * rng.standard_normal((n, model.n_channels))
        cum = occupation_loop(jump_times, states, horizon, model.obs.entries, grid)
        incs[k] = np.diff(cum, axis=0) + noise
    return paths, incs
