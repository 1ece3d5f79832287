"""Per-step reference loops for the finite-state filters, the Zakai
operator, the smoother, the dual backward solve, the Monte-Carlo path
sampler, the linear-Gaussian means and the dual-LQ and minimum-energy
backward passes.

Each function is the plain one-step-at-a-time recursion that the chunked
forward kernel of ``dualfilter.filters`` (for the dual solve, the
linear-Gaussian means and the backward passes, ``dualfilter._linalg.affine_scan``;
for the sampler, ``dualfilter.sim.batch_hmm_observations``) replaces.  They
are slow (Python runs once per step, jump or path) and exist only as test
oracles.  The backward-pass oracles integrate the covariance (and the
filter mean) backward again beside the state, the joint RK4 solve that the
affine passes replaced; that re-trace is unstable over long horizons.
"""

import numpy as np
from scipy.special import logsumexp

from dualfilter._linalg import (cached_expm, drift_step, rk4, simpson, symmetrize,
                                van_loan_discretization)
from dualfilter._rng import path_rng
from dualfilter.filters import (MASS_FLOOR, BeliefPath, GaussianBeliefPath, UnnormalizedPath,
                                ZakaiOperatorPath, _check_psd, _rk4_riccati, chain_riccati,
                                riccati_rhs)
from dualfilter.models import NumericalFailure, as_simplex
from dualfilter.sim import ABSORBING_RATE, ObservationPath, n_steps_for
from dualfilter.smoothing import (EnergyTrajectory, GaussianSmoothingPath, SmoothingPath,
                                  reintegrate)


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


def backward_dual_loop(model, f, u, dt):
    """``-dy/dt = A y + H u`` backward from ``y(T) = f``, one exact step per row of ``u``."""
    a = model.rate.entries
    h = model.obs.entries
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n = u.shape[0]
    f_step, f_int = drift_step(a, dt)
    y = np.empty((n + 1, model.dim))
    y[n] = np.asarray(f, dtype=float)
    for k in range(n - 1, -1, -1):
        y[k] = f_step @ y[k + 1] + f_int @ (h @ u[k])
    return y


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


# -- linear-Gaussian means ------------------------------------------------------

def kalman_bucy_loop(model, obs) -> GaussianBeliefPath:
    n, dt = obs.n_steps, obs.dt
    covs = _rk4_riccati(model, model.cov0, n, dt)
    _check_psd(covs)
    means = np.empty((n + 1, model.dim))
    means[0] = model.mean0
    a, h = model.a_mat, model.h_mat
    for k in range(n):
        m = means[k]
        means[k + 1] = m + a.T @ m * dt + covs[k] @ h @ (obs.increments[k] - h.T @ m * dt)
    return GaussianBeliefPath(dt=dt, means=means, covs=covs)


def chain_kalman_loop(model, increments, dt):
    """Estimates (n_paths, n + 1, d) and covariances of the chain Kalman filter."""
    n_paths, n, _ = increments.shape
    covs, _ = chain_riccati(model, n, dt)
    _check_psd(covs)
    h = model.obs.entries
    gains = covs @ h
    trans_t = cached_expm(model.rate.entries.T, dt).T
    est = np.empty((n_paths, n + 1, model.dim))
    est[:, 0] = x = model.prior.entries
    for k in range(n):
        x = (x @ trans_t) + (increments[:, k] - (x @ h) * dt) @ gains[k].T
        est[:, k + 1] = x
    return est, covs


def discrete_kalman_loop(model, obs):
    n, dt = obs.n_steps, obs.dt
    d, m = model.dim, model.n_channels
    f, qd = van_loan_discretization(model.a_mat.T, model.noise_cov, dt)
    h = model.h_mat
    r = np.eye(m) / dt
    xf = np.empty((n + 1, d)); pf = np.empty((n + 1, d, d))
    xp = np.empty((n + 1, d)); pp = np.empty((n + 1, d, d))
    xf[0], pf[0] = model.mean0, symmetrize(model.cov0)
    y = obs.increments / dt
    for k in range(1, n + 1):
        xp[k] = f @ xf[k - 1]
        pp[k] = symmetrize(f @ pf[k - 1] @ f.T + qd)
        s = h.T @ pp[k] @ h + r
        cond = np.linalg.cond(s)
        if not np.isfinite(cond) or cond > 1e12:
            raise NumericalFailure("innovation covariance ill-conditioned", step=k)
        gain = np.linalg.solve(s.T, (pp[k] @ h).T).T
        xf[k] = xp[k] + gain @ (y[k - 1] - h.T @ xp[k])
        pf[k] = symmetrize((np.eye(d) - gain @ h.T) @ pp[k])
    return f, qd, xf, pf, xp, pp, y, r


def rts_loop(model, obs) -> GaussianSmoothingPath:
    n = obs.n_steps
    f, qd, xf, pf, xp, pp, _, _ = discrete_kalman_loop(model, obs)
    xs = xf.copy()
    ps = pf.copy()
    for k in range(n - 1, -1, -1):
        cond = np.linalg.cond(pp[k + 1])
        if not np.isfinite(cond) or cond > 1e12:
            raise NumericalFailure("predicted covariance ill-conditioned", step=k)
        gain = np.linalg.solve(pp[k + 1].T, (pf[k] @ f.T).T).T
        xs[k] = xf[k] + gain @ (xs[k + 1] - xp[k + 1])
        ps[k] = symmetrize(pf[k] + gain @ (ps[k + 1] - pp[k + 1]) @ gain.T)
    return GaussianSmoothingPath(dt=obs.dt, smoothed_means=xs, filter_means=xf,
                                 smoothed_covs=ps, filter_covs=pf)


def fraser_potter_loop(model, obs) -> GaussianSmoothingPath:
    n = obs.n_steps
    d, m = model.dim, model.n_channels
    f, qd, xf, pf, xp, pp, y, r = discrete_kalman_loop(model, obs)
    h = model.h_mat
    ri = np.linalg.inv(r)
    lam = np.zeros((n + 1, d, d))
    eta = np.zeros((n + 1, d))
    eye = np.eye(d)
    for k in range(n - 1, -1, -1):
        lam_meas = lam[k + 1] + h @ ri @ h.T
        eta_meas = eta[k + 1] + h @ ri @ y[k]
        pull = np.linalg.solve((eye + lam_meas @ qd).T, f).T
        lam[k] = symmetrize(pull @ lam_meas @ f)
        eta[k] = pull @ eta_meas
    xs = np.empty_like(xf)
    ps = np.empty_like(pf)
    for k in range(n + 1):
        lam_f = np.linalg.eigvalsh(symmetrize(pf[k])).min()
        if lam_f < 1e-10:
            raise NumericalFailure("filter covariance numerically singular", step=k)
        pfi = np.linalg.inv(pf[k])
        info = pfi + lam[k]
        ps[k] = symmetrize(np.linalg.inv(info))
        xs[k] = ps[k] @ (pfi @ xf[k] + eta[k])
    return GaussianSmoothingPath(dt=obs.dt, smoothed_means=xs, filter_means=xf,
                                 smoothed_covs=ps, filter_covs=pf)


def simulate_linear_gaussian_loop(model, horizon, dt, seed, path_index=0):
    """Euler-Maruyama path with one normal draw per channel block and step."""
    n = n_steps_for(horizon, dt)
    rng = path_rng(seed, path_index)
    d, m = model.dim, model.n_channels
    p = model.sigma.shape[1]
    x = np.zeros((n + 1, d))
    c0 = (model.cov0 + model.cov0.T) / 2
    lam, vec = np.linalg.eigh(c0)
    x[0] = model.mean0 + vec @ (np.sqrt(np.clip(lam, 0.0, None)) * rng.standard_normal(d))
    dz = np.zeros((n, m))
    sq = np.sqrt(dt)
    for k in range(n):
        dz[k] = model.h_mat.T @ x[k] * dt + sq * rng.standard_normal(m)
        x[k + 1] = x[k] + model.a_mat.T @ x[k] * dt + model.sigma @ (sq * rng.standard_normal(p))
    return x, ObservationPath(dt=float(dt), increments=dz)


def reintegrate_rk4(model, x0, controls, dt):
    """``dx/dt = A^T x + sigma u`` by RK4 on the half grid, the drive
    averaged at the quarter points."""
    a, sig = model.a_mat, model.sigma
    drive = np.empty((2 * controls.shape[0] - 1, sig.shape[0]))
    drive[::2] = controls @ sig.T                         # node controls
    drive[1::2] = 0.5 * (drive[:-2:2] + drive[2::2])      # midpoint averages
    return rk4(lambda x, k, s: a.T @ x + drive[2 * k + s], x0, controls.shape[0] - 1, dt / 2.0)


# -- dual-LQ and minimum-energy backward passes ------------------------------

def closed_loop_backward_rk4(a, h, weight, sig_half, f, dt):
    """``(cost, u, y)`` of the dual LQ backward pass on the half grid, with
    ``Sigma`` integrated backward from ``sig_half[-1]`` jointly with ``y``."""
    n2 = sig_half.shape[0] - 1
    back_weight = weight[::-1]

    def joint_rhs(v, k, s):
        sig, y = v[:-1], v[-1]
        return np.concatenate((riccati_rhs(a, h, back_weight[2 * k + s], sig),
                               [h @ (h.T @ (sig @ y)) - a @ y]))

    back = rk4(joint_rhs, np.vstack((sig_half[-1], f)), n2, -dt / 2.0)[::-1]
    sig, y = back[:, :-1], back[:, -1]
    u = -np.einsum("km,jkl,jl->jm", h, sig, y)
    integrand = np.einsum("jm,jm->j", u, u) + np.einsum("jk,jkl,jl->j", y, weight[::2], y)
    cost = float(y[0] @ sig_half[0] @ y[0])
    return cost + simpson(integrand[:-1:2], integrand[1::2], integrand[2::2], dt), u, y


def _reference_rhs(a, h, q, v, z):
    """Time derivative of the stacked rows ``[Sigma; xhat]``."""
    sig, xr = v[:-1], v[-1]
    return np.concatenate((riccati_rhs(a, h, q, sig), [a.T @ xr + sig @ (h @ (z - h.T @ xr))]))


def minimum_energy_rk4(model, obs):
    """Minimum-energy trajectory with the covariance and the filter mean
    solved jointly forward, then integrated backward again beside the state."""
    n, dt = obs.n_steps, obs.dt
    a, h, q, sig_m = model.a_mat, model.h_mat, model.noise_cov, model.sigma
    zd = obs.increments / dt
    v = rk4(lambda v, k, s: _reference_rhs(a, h, q, v, zd[k // 2]),
            np.vstack((symmetrize(model.cov0), model.mean0)), 2 * n, dt / 2.0)
    sig_half, xh = v[:, :-1], v[:, -1]
    lam_min = np.linalg.eigvalsh(sig_half).min()
    if lam_min < 1e-10:
        raise NumericalFailure("covariance numerically singular along the path")
    zd_back = zd[::-1]

    def rhs(v, k, s):
        sig, xr, xv = v[:-2], v[-2], v[-1]
        return np.concatenate((_reference_rhs(a, h, q, v[:-1], zd_back[k // 2]),
                               [a.T @ xv + q @ np.linalg.solve(sig, xv - xr)]))

    x = rk4(rhs, np.vstack((sig_half[-1], xh[-1], xh[-1])), 2 * n, -dt / 2.0)[::-1, -1]
    controls = np.linalg.solve(sig_half, (x - xh)[:, :, None])[:, :, 0] @ sig_m
    states = reintegrate(model, x[0], controls, dt)
    return EnergyTrajectory(dt=dt, states=states, controls=controls, filter_means=xh)
