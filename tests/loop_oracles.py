"""Per-step reference loops for the finite-state filters and smoother.

Each function is the plain one-step-at-a-time recursion that the chunked
forward kernel of ``dualfilter.filters`` replaces.  They are slow (Python
runs once per step) and exist only as test oracles.
"""

import numpy as np
from scipy.special import logsumexp

from dualfilter._linalg import cached_expm
from dualfilter.filters import MASS_FLOOR, BeliefPath, UnnormalizedPath
from dualfilter.models import NumericalFailure, as_simplex
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
