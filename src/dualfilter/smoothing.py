"""Smoothing distributions over a fixed observation record.

Finite-state smoothing runs the unnormalized forward recursion together with
its time-reversed analogue in log domain; the product of the two passes is,
step for step, the classical discrete forward-backward algorithm for the
hidden Markov model induced on the grid, which an independent textbook
implementation can reproduce to machine precision.

Linear-Gaussian smoothing offers three routes on the exactly discretized
model: the Rauch-Tung-Striebel backward sweep, the Fraser-Potter two-filter
combination (forward Kalman filter plus a backward information filter), and
the minimum-energy trajectory obtained from deterministic forward/backward
ODEs driven by the increment ratio ``dZ/dt``.

Every mean of the linear side is one affine recursion
``x_{k+1} = x_k M_k + b_k`` (:func:`~dualfilter._linalg.affine_scan`): the
filtered means, the RTS sweep, the Fraser-Potter information vector, both
minimum-energy passes and :func:`reintegrate` (an RK4 step of a linear ODE
is exactly such a map).  The covariances do not depend on the record; each
is a linear-fractional flow, run by one kernel
(:func:`~dualfilter._linalg.fractional_flow`).  The continuous Riccati flow
is exact, on the grid for :func:`~dualfilter.filters.kalman_bucy` beside its
Euler mean update in ``dZ``, and on the half grid
(:func:`~dualfilter.filters.riccati_half_grid`) for the minimum-energy
passes, which start every RK4 step from its nodes.  :func:`discrete_kalman`
is the exact filter of the discretized model, whose pass the RTS and
Fraser-Potter sweeps share and on which they must agree to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.typing import NDArray

from ._linalg import (PROPAGATOR_POWERS, affine_scan, expm, fractional_flow, rk4, simpson,
                      symmetrize, van_loan_discretization)
from .filters import _log_likelihoods, _prior_entries, _scan, riccati_half_grid, riccati_rhs
from .models import HmmModel, LinearGaussianModel, NumericalFailure

Array = NDArray[np.float64]

CONSISTENCY_TOL = 1e-8    # largest state gap a (trajectory, control) pair may leave on replay


@dataclass(frozen=True)
class SmoothingPath:
    """Finite-state smoothing output.

    ``smoothed[k]`` is the posterior of the state at ``t_k`` given the whole
    record; ``log_forward`` and ``log_backward`` store the two log-domain
    passes, and the smoothed rows are the normalized exponential of their
    sum.
    """

    dt: float
    smoothed: Array       # (n + 1, d), rows on the simplex
    log_forward: Array    # (n + 1, d)
    log_backward: Array   # (n + 1, d)

    def grid(self) -> Array:
        return np.arange(self.smoothed.shape[0]) * self.dt


@dataclass(frozen=True)
class GaussianSmoothingPath:
    """Linear-Gaussian smoothing output: smoothed and filtered moments."""

    dt: float
    smoothed_means: Array
    filter_means: Array
    smoothed_covs: Array
    filter_covs: Array

    def grid(self) -> Array:
        return np.arange(self.smoothed_means.shape[0]) * self.dt


def forward_backward_smoother(model: HmmModel, obs, prior=None) -> SmoothingPath:
    """Two-pass smoother for a finite chain, fully in log domain.

    Forward pass: log of the unnormalized filter masses.  Backward pass:
    ``q_k = expm(A dt) (g_k . q_{k+1})`` with ``q_N = 1``, where ``g_k`` is
    the Gaussian increment likelihood of step ``k``.  The smoothed law at
    ``t_k`` is proportional to the elementwise product of the two passes.

    Both run the forward kernel of :mod:`dualfilter.filters`, the backward
    one on ``w_{j+1} = g_{n-2-j} . (expm(A dt) w_j)``, ``w_0 = g_{n-1}``, so
    that ``q_k = expm(A dt) w_{n-1-k}``.  A state outside the forward support
    at a node gets zero backward likelihood there, so it cannot make the
    reachable states underflow.  The smoothed rows multiply the two scans'
    normalized rows, whose scales cancel, so the log masses add no roundoff.
    """
    prior = _prior_entries(model, model.prior if prior is None else prior)
    n, dt = obs.n_steps, obs.dt
    d = model.dim
    step = expm(model.rate.entries.T * dt).T      # expm(A dt); rows are beliefs
    log_like = _log_likelihoods(model.obs.entries, obs.increments.T, dt)
    fwd, fwd_mass = _scan(step, log_like, prior[:, None], shift=True)
    with np.errstate(divide="ignore"):
        log_fwd = np.log(fwd[:, :, 0])

    log_bwd, log_mass = np.zeros((n + 1, d)), np.zeros((0, 1))
    if n:
        log_like[fwd[1:, :, 0] == 0] = -np.inf
        peak = log_like[-1].max()
        w0 = np.exp(log_like[-1] - peak)
        bwd, log_mass = _scan(step.T, log_like[:-1][::-1], (w0 / w0.sum())[:, None], shift=True)
        log_mass += peak + np.log(w0.sum())
        with np.errstate(divide="ignore"):
            log_bwd[:-1] = np.log(bwd[::-1, :, 0] @ step.T)

    joint = log_fwd + log_bwd
    peak = joint.max(axis=1, keepdims=True)               # row log-sum-exp, shifted by the peak
    smoothed = np.exp(joint - (np.log(np.exp(joint - peak).sum(axis=1, keepdims=True)) + peak))
    log_fwd += fwd_mass
    log_bwd[:-1] += log_mass[::-1]
    return SmoothingPath(dt=dt, smoothed=smoothed, log_forward=log_fwd, log_backward=log_bwd)


# -- linear-Gaussian smoothers --------------------------------------------------

@dataclass(frozen=True)
class KalmanPass:
    """One Kalman filter pass over the exactly discretized model, which the
    RTS and Fraser-Potter sweeps share (:func:`discrete_kalman`)."""

    dt: float
    f: Array               # one-step transition, F = expm(A^T dt)
    qd: Array              # one-step process-noise covariance
    h: Array               # observation matrix H
    r_inv: Array           # measurement precision R^{-1} = dt I
    y: Array               # measurements dZ_k / dt, (n, m)
    means: Array           # filtered means x_f, (n + 1, d)
    filter_covs: Array     # P_f(k), (n + 1, d, d)
    predicted_covs: Array  # P_p(k) for k = 1..n, (n, d, d)


def _powers(m: Array) -> Array:
    """``m^1 ... m^PROPAGATOR_POWERS`` by repeated products; the flow steps
    only with the powers it trusts, so an overflow past them is harmless."""
    with np.errstate(all="ignore"):
        return np.stack(list(accumulate([m] * PROPAGATOR_POWERS, np.matmul)))


def discrete_kalman(model: LinearGaussianModel, obs) -> KalmanPass:
    """Kalman filter for the exactly discretized model.

    The state transition over a step is exact (Van Loan); the measurement at
    node ``k >= 1`` is ``dZ_{k-1}/dt``, a noisy reading of ``H^T x_k`` with
    noise covariance ``R = I/dt``.  The covariances do not depend on the
    record: ``P_f`` is the linear-fractional flow of the one-step symplectic
    matrix ``[[I, S], [0, I]] [[F^{-T}, 0], [Qd F^{-T}, F]]``,
    ``S = H R^{-1} H^T`` (:func:`~dualfilter._linalg.fractional_flow`), and
    the predicted and innovation covariances and the gains are batched
    operations on its stack.  The filtered means are one affine scan.  A
    singular step of the flow, or an ill-conditioned innovation covariance,
    raises at its first step.
    """
    n, dt = obs.n_steps, obs.dt
    d, m = model.dim, model.n_channels
    f, qd = van_loan_discretization(model.a_mat.T, model.noise_cov, dt)
    h, r_inv = model.h_mat, dt * np.eye(m)
    s, f_inv_t = h @ r_inv @ h.T, np.linalg.inv(f).T
    step = np.block([[f_inv_t + s @ qd @ f_inv_t, s @ f], [qd @ f_inv_t, f]])
    pf = fractional_flow(_powers(step), model.cov0, n)
    with np.errstate(all="ignore"):                   # steps past a bad one may overflow
        pp = symmetrize(f @ pf[:-1] @ f.T + qd)
        innov = h.T @ pp @ h + np.eye(m) / dt
    finite = np.isfinite(innov).all(axis=(1, 2))[:, None, None]   # non-finite counts as singular
    bad = np.flatnonzero(~(np.linalg.cond(np.where(finite, innov, 0.0)) <= 1e12))
    if bad.size:
        raise NumericalFailure("innovation covariance ill-conditioned", step=int(bad[0]) + 1)
    gains_t = np.linalg.solve(innov.transpose(0, 2, 1), (pp @ h).transpose(0, 2, 1))   # G_k^T
    y = obs.increments / dt
    # x_f(k) = (I - G_k H^T) F x_f(k-1) + G_k y_{k-1}, in row form
    xf = affine_scan(f.T - (f.T @ h) @ gains_t, np.einsum("km,kmd->kd", y, gains_t), model.mean0)
    return KalmanPass(dt=dt, f=f, qd=qd, h=h, r_inv=r_inv, y=y, means=xf, filter_covs=pf,
                      predicted_covs=pp)


def rts_smoother(model: LinearGaussianModel, obs) -> GaussianSmoothingPath:
    """Backward gain sweep over the filtered marginals.

    ``x_s(k) = x_f(k) + G_k (x_s(k+1) - x_p(k+1))`` with
    ``G_k = P_f(k) F^T P_p(k+1)^{-1}``; covariances follow the matching
    recursion.  Exact for the discretized model, so it doubles as the oracle
    for the two-filter route.
    """
    return rts_sweep(discrete_kalman(model, obs))


def rts_sweep(kf: KalmanPass) -> GaussianSmoothingPath:
    """The RTS sweep of :func:`rts_smoother` over a :func:`discrete_kalman` pass."""
    f, xf, pf, pp = kf.f, kf.means, kf.filter_covs, kf.predicted_covs
    cond = np.linalg.cond(pp)
    bad = np.flatnonzero(~(np.isfinite(cond) & (cond <= 1e12)))
    if bad.size:                                          # the sweep meets the last one first
        raise NumericalFailure("predicted covariance ill-conditioned", step=int(bad[-1]))
    # G_k^T = P_p(k+1)^{-T} (P_f(k) F^T)^T
    gains_t = np.linalg.solve(pp.transpose(0, 2, 1), (pf[:-1] @ f.T).transpose(0, 2, 1))
    ps = pf.copy()
    for k in range(len(gains_t) - 1, -1, -1):
        gain = gains_t[k].T
        ps[k] = symmetrize(pf[k] + gain @ (ps[k + 1] - pp[k]) @ gain.T)
    # backward: x_s(k) = x_s(k+1) G_k^T + x_f(k) - x_p(k+1) G_k^T, with x_p(k+1) = F x_f(k)
    forcing = xf[:-1] - np.einsum("kd,kde->ke", xf[:-1] @ f.T, gains_t)
    xs = affine_scan(gains_t[::-1], forcing[::-1], xf[-1])[::-1]
    return GaussianSmoothingPath(dt=kf.dt, smoothed_means=xs, filter_means=xf,
                                 smoothed_covs=ps, filter_covs=pf)


def fraser_potter_smoother(model: LinearGaussianModel, obs) -> GaussianSmoothingPath:
    """Two-filter smoother: forward Kalman filter combined with a backward
    information filter started from zero information at the horizon.

    The backward pass condenses the future record into an information pair
    ``(Lambda_k, eta_k)``; the smoothed moments solve
    ``(P_f^{-1} + Lambda) x = P_f^{-1} x_f + eta``.  The terminal smoothed
    state equals the filtered state by construction.  Requires the filter
    covariances to stay invertible along the path.
    """
    return fraser_potter_sweep(discrete_kalman(model, obs))


def fraser_potter_sweep(kf: KalmanPass) -> GaussianSmoothingPath:
    """The two-filter combination of :func:`fraser_potter_smoother` over a
    :func:`discrete_kalman` pass.

    ``Lambda_k = pull_k (Lambda_{k+1} + S) F`` with
    ``pull_k = F^T (I + (Lambda_{k+1} + S) Qd)^{-1}`` and ``S = H R^{-1} H^T``
    is a linear-fractional flow backward from ``Lambda_n = 0``, of the
    one-step matrix ``[[F^{-1}, F^{-1} Qd], [0, F^T]] [[I, 0], [S, I]]``; the
    pulls are then one batched solve.
    """
    f, qd, h, ri, y, xf, pf = kf.f, kf.qd, kf.h, kf.r_inv, kf.y, kf.means, kf.filter_covs
    n, d = y.shape[0], f.shape[0]
    s = h @ ri @ h.T
    f_inv = np.linalg.inv(f)
    step = np.block([[f_inv + f_inv @ qd @ s, f_inv @ qd], [f.T @ s, f.T]])
    lam = fractional_flow(_powers(step), np.zeros((d, d)), n)[::-1]
    pulls_t = np.linalg.solve((np.eye(d) + (lam[1:] + s) @ qd).transpose(0, 2, 1), f)
    # eta_k = pull_k (eta_{k+1} + H R^{-1} y_k), backward from eta_n = 0
    forcing = np.einsum("kd,kde->ke", y @ (h @ ri).T, pulls_t)
    eta = affine_scan(pulls_t[::-1], forcing[::-1], np.zeros(d))[::-1]
    lam_f = np.linalg.eigvalsh(pf).min(axis=1)
    bad = np.flatnonzero(lam_f < 1e-10)
    if bad.size:
        raise NumericalFailure("filter covariance numerically singular", step=int(bad[0]))
    pfi = np.linalg.inv(pf)
    ps = symmetrize(np.linalg.inv(pfi + lam))
    xs = (ps @ (pfi @ xf[:, :, None] + eta[:, :, None]))[:, :, 0]
    return GaussianSmoothingPath(dt=kf.dt, smoothed_means=xs, filter_means=xf,
                                 smoothed_covs=ps, filter_covs=pf)


# -- minimum-energy trajectory ---------------------------------------------------

@dataclass(frozen=True)
class EnergyTrajectory:
    """Candidate for the minimum-energy problem, sampled on the half grid.

    ``states``/``controls`` have ``2 n + 1`` rows (grid and midpoints);
    ``controls`` drives ``dx/dt = A^T x + sigma u``.  ``filter_means`` is the
    forward reference trajectory driven by the same observation record.
    """

    dt: float
    states: Array
    controls: Array
    filter_means: Array

    @property
    def n_steps(self) -> int:
        return (self.states.shape[0] - 1) // 2

    def on_grid(self) -> Array:
        return self.states[::2]


def _zdot(obs) -> Array:
    return obs.increments / obs.dt


def _filter_rhs(a: Array, h: Array, q: Array, v: Array, zd: Array) -> Array:
    """Time derivative of stacks of rows ``[Sigma; x]``: the Riccati flow and,
    in row form, ``dx/dt = A^T x + Sigma H (zdot - H^T x)`` with the forcing
    ``zdot`` on the last row only."""
    sig, rows = v[:, :a.shape[0]], v[:, a.shape[0]:]
    gains_t = h.T @ sig                                   # (Sigma H)^T
    out = rows @ a - rows @ h @ gains_t
    out[:, -1] += np.einsum("jm,jmd->jd", zd, gains_t)
    return np.concatenate((riccati_rhs(a, h, q, sig), out), axis=1)


def minimum_energy_trajectory(model: LinearGaussianModel, obs) -> EnergyTrajectory:
    """Optimal trajectory of the deterministic minimum-energy problem.

    The forward pass is the filter mean equation with the increment ratio in
    place of the formal observation derivative; the backward pass integrates
    ``dx/dt = A^T x + Q Sigma_t^{-1} (x - xhat)`` from the terminal filter
    state.  The associated control is ``u = sigma^T Sigma^{-1} (x - xhat)``;
    the returned states are re-integrated from ``(x_0, u)`` so the pair
    passes the dynamics-consistency check exactly.

    One RK4 step from every half-grid node of the forward Riccati flow, on
    the rows ``[Sigma; I; 0]`` (backward ``[Sigma; xhat; I; 0]``), gives
    each step's affine map ``[M; c]`` of the mean, which an affine scan
    runs; Sigma is never integrated backward, where it is unstable.  A
    singular Sigma raises, naming its first half-grid step.
    """
    n, dt = obs.n_steps, obs.dt
    a, h, q, d = model.a_mat, model.h_mat, model.noise_cov, model.dim
    sig_half = riccati_half_grid(model, model.cov0, n, dt)
    bad = np.flatnonzero(np.linalg.eigvalsh(sig_half).min(axis=1) < 1e-10)
    if bad.size:
        raise NumericalFailure("covariance numerically singular along the path", step=int(bad[0]))
    zd = np.repeat(_zdot(obs), 2, axis=0)                  # half step j reads zdot[j // 2]
    unit = np.broadcast_to(np.eye(d + 1, d), (2 * n, d + 1, d))
    last = np.eye(d + 1, 1, -d)                           # selects the forcing row

    def backward(v: Array, k: int, s: int) -> Array:
        sig, xr, xs = v[:, :d], v[:, d:d + 1], v[:, d + 1:]
        return np.concatenate((_filter_rhs(a, h, q, v[:, :d + 1], zd),
                               xs @ a + (xs - last * xr) @ np.linalg.solve(sig, q)), axis=1)

    fwd = rk4(lambda v, k, s: _filter_rhs(a, h, q, v, zd),
              np.concatenate((sig_half[:-1], unit), axis=1), 1, dt / 2.0)[1, :, d:]
    xh = affine_scan(fwd[:, :d], fwd[:, d], model.mean0)
    bwd = rk4(backward, np.concatenate((sig_half[1:], xh[1:, None], unit), axis=1), 1,
              -dt / 2.0)[1, ::-1, d + 1:]
    x = affine_scan(bwd[:, :d], bwd[:, d], xh[-1])[::-1]
    controls = np.linalg.solve(sig_half, (x - xh)[:, :, None])[:, :, 0] @ model.sigma
    states = reintegrate(model, x[0], controls, dt)
    return EnergyTrajectory(dt=dt, states=states, controls=controls, filter_means=xh)


def reintegrate(model: LinearGaussianModel, x0: Array, controls: Array, dt: float) -> Array:
    """Integrate ``dx/dt = A^T x + sigma u`` with half-grid control samples.

    Each RK4 step of ``dt / 2``, with the drive ``g`` at the step's start,
    midpoint (the average of the node controls) and end, is exactly the
    affine map ``x' = x M + g_0 P_0 + g_1 P_1 + g_2 P_2``; one RK4 step on the
    stacked identity ``[I; 0; 0; 0]``, with the unit forcing of stage ``s``
    in block ``s + 1``, returns ``[M; P_0; P_1; P_2]``.

    Used both to validate trajectory/control consistency and to build
    perturbed-but-feasible candidates for the cost inequality.
    """
    a, sig = model.a_mat, model.sigma
    d = a.shape[0]
    coef = rk4(lambda x, k, s: x @ a + np.eye(4 * d, d, -d * (s + 1)), np.eye(4 * d, d), 1, dt / 2.0)
    m, p0, p1, p2 = coef[1].reshape(4, d, d)
    drive = controls @ sig.T                               # node controls
    forcing = drive[:-1] @ p0 + (0.5 * (drive[:-1] + drive[1:])) @ p1 + drive[1:] @ p2
    return affine_scan(m, forcing, x0)


def min_energy_cost(model: LinearGaussianModel, trajectory: EnergyTrajectory, obs) -> float:
    """Minimum-energy objective of a (trajectory, control) pair.

    ``J = (x_0 - m_0)^T Sigma_0^{-1} (x_0 - m_0)
    + int |u|^2 + |zdot - H^T x|^2 dt`` with ``zdot = dZ/dt`` and per-step
    Simpson quadrature on the half grid.  The trajectory must satisfy the
    controlled dynamics to within ``CONSISTENCY_TOL`` (checked by
    re-integration), otherwise the pair is rejected.
    """
    u, x = trajectory.controls, trajectory.states
    if u.shape[0] != x.shape[0]:
        raise ValueError("controls and states must share the half grid")
    replay = reintegrate(model, x[0], u, trajectory.dt)
    residual = float(np.abs(replay - x).max())
    if residual > CONSISTENCY_TOL:
        raise ValueError(f"trajectory is inconsistent with the dynamics (residual {residual:g})")
    dev = x[0] - model.mean0
    cost = float(dev @ np.linalg.solve(model.cov0, dev))
    return cost + _step_simpson(np.einsum("jm,jm->j", u, u), x @ model.h_mat, obs, trajectory.dt)


def prediction_error_integral(model: LinearGaussianModel, trajectory: EnergyTrajectory, obs) -> float:
    """``int |zdot - H^T xhat|^2 dt`` along the forward reference trajectory."""
    xh = trajectory.filter_means
    return _step_simpson(np.zeros(xh.shape[0]), xh @ model.h_mat, obs, trajectory.dt)


def _step_simpson(extra: Array, pred: Array, obs, dt: float) -> float:
    """Simpson sum of ``extra + |zdot - pred|^2`` over half-grid values; the
    increment ratio ``zdot`` is constant over each step, so step ``k``'s
    three nodes all use ``zdot[k]``."""
    zd = _zdot(obs)

    def vals(j: slice) -> Array:
        r = zd - pred[j]
        return extra[j] + np.einsum("km,km->k", r, r)

    return simpson(vals(slice(0, -1, 2)), vals(slice(1, None, 2)), vals(slice(2, None, 2)), dt)
