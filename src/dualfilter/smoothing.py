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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import logsumexp

from ._csv import csv_text, grid_rows
from ._linalg import cached_expm, symmetrize, van_loan_discretization
from .filters import _log_likelihoods, _scan
from .models import HmmModel, LinearGaussianModel, NumericalFailure, as_simplex

Array = NDArray[np.float64]


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

    def csv(self) -> str:
        d = self.smoothed.shape[1]
        return csv_text("t," + ",".join(f"smoothed_{i + 1}" for i in range(d)),
                        grid_rows(self.dt, self.smoothed))


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

    def csv(self) -> str:
        d = self.smoothed_means.shape[1]
        return csv_text("t," + ",".join(f"x_{i + 1}" for i in range(d)),
                        grid_rows(self.dt, self.smoothed_means))


def forward_backward_smoother(model: HmmModel, obs, prior=None) -> SmoothingPath:
    """Two-pass smoother for a finite chain, fully in log domain.

    Forward pass: log of the unnormalized filter masses.  Backward pass:
    ``q_k = expm(A dt) (g_k . q_{k+1})`` with ``q_N = 1``, where ``g_k`` is
    the Gaussian increment likelihood of step ``k``.  The smoothed law at
    ``t_k`` is proportional to the elementwise product of the two passes.

    Both run the forward kernel of :mod:`dualfilter.filters`, the backward
    one on ``w_{j+1} = g_{n-2-j} . (expm(A dt) w_j)``, ``w_0 = g_{n-1}``, so
    that ``q_k = expm(A dt) w_{n-1-k}``.
    """
    prior = as_simplex(model.prior if prior is None else prior)
    n, dt = obs.n_steps, obs.dt
    d = model.dim
    step = cached_expm(model.rate.entries.T, dt).T       # expm(A dt); rows are beliefs
    log_like = _log_likelihoods(model.obs.entries, obs.increments, dt)
    fwd, log_mass = _scan(step, log_like, prior.entries, shift=True)
    with np.errstate(divide="ignore"):
        log_fwd = np.log(fwd) + log_mass[:, None]

    log_bwd = np.zeros((n + 1, d))
    if n:
        peak = log_like[-1].max()
        w0 = np.exp(log_like[-1] - peak)
        bwd, log_mass = _scan(step.T, log_like[:-1][::-1], w0 / w0.sum(), shift=True)
        log_mass += peak + np.log(w0.sum())
        with np.errstate(divide="ignore"):
            log_bwd[:-1] = np.log(bwd[::-1] @ step.T) + log_mass[::-1, None]

    joint = log_fwd + log_bwd
    smoothed = np.exp(joint - logsumexp(joint, axis=1, keepdims=True))
    return SmoothingPath(dt=dt, smoothed=smoothed, log_forward=log_fwd, log_backward=log_bwd)


# -- linear-Gaussian smoothers --------------------------------------------------

def _discrete_kalman(model: LinearGaussianModel, obs):
    """Kalman filter for the exactly discretized model.

    The state transition over a step is exact (Van Loan); the measurement at
    node ``k >= 1`` is ``dZ_{k-1}/dt``, a noisy reading of ``H^T x_k`` with
    noise covariance ``I/dt``.
    """
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


def rts_smoother(model: LinearGaussianModel, obs) -> GaussianSmoothingPath:
    """Backward gain sweep over the filtered marginals.

    ``x_s(k) = x_f(k) + G_k (x_s(k+1) - x_p(k+1))`` with
    ``G_k = P_f(k) F^T P_p(k+1)^{-1}``; covariances follow the matching
    recursion.  Exact for the discretized model, so it doubles as the oracle
    for the two-filter route.
    """
    n = obs.n_steps
    f, qd, xf, pf, xp, pp, _, _ = _discrete_kalman(model, obs)
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


def fraser_potter_smoother(model: LinearGaussianModel, obs) -> GaussianSmoothingPath:
    """Two-filter smoother: forward Kalman filter combined with a backward
    information filter started from zero information at the horizon.

    The backward pass condenses the future record into an information pair
    ``(Lambda_k, eta_k)``; the smoothed moments solve
    ``(P_f^{-1} + Lambda) x = P_f^{-1} x_f + eta``.  The terminal smoothed
    state equals the filtered state by construction.  Requires the filter
    covariances to stay invertible along the path.
    """
    n = obs.n_steps
    d, m = model.dim, model.n_channels
    f, qd, xf, pf, xp, pp, y, r = _discrete_kalman(model, obs)
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


def _riccati_rhs(model: LinearGaussianModel, s: Array) -> Array:
    a, h = model.a_mat, model.h_mat
    return a.T @ s + s @ a + model.noise_cov - s @ h @ h.T @ s


def _forward_reference(model: LinearGaussianModel, obs) -> tuple[Array, Array]:
    """Joint RK4 solve of the covariance flow and
    ``dx/dt = A^T x + Sigma_t H (zdot - H^T x)`` on the half grid.

    ``zdot`` is constant within each step and the covariance is advanced
    inside the same RK4 stages, so no coefficient interpolation is needed
    and the half-grid nodes are genuine fourth-order nodes.
    """
    n, dt = obs.n_steps, obs.dt
    a, h = model.a_mat, model.h_mat
    zd = _zdot(obs)
    x = np.empty((2 * n + 1, model.dim))
    sig = np.empty((2 * n + 1, model.dim, model.dim))
    x[0] = model.mean0
    sig[0] = symmetrize(model.cov0)
    hh = dt / 2.0

    def rhs(s, xv, z):
        return _riccati_rhs(model, s), a.T @ xv + s @ (h @ (z - h.T @ xv))

    for j in range(2 * n):
        z = zd[j // 2]
        s, xv = sig[j], x[j]
        ds1, dx1 = rhs(s, xv, z)
        ds2, dx2 = rhs(s + 0.5 * hh * ds1, xv + 0.5 * hh * dx1, z)
        ds3, dx3 = rhs(s + 0.5 * hh * ds2, xv + 0.5 * hh * dx2, z)
        ds4, dx4 = rhs(s + hh * ds3, xv + hh * dx3, z)
        sig[j + 1] = symmetrize(s + hh / 6.0 * (ds1 + 2 * ds2 + 2 * ds3 + ds4))
        x[j + 1] = xv + hh / 6.0 * (dx1 + 2 * dx2 + 2 * dx3 + dx4)
    return sig, x


def minimum_energy_trajectory(model: LinearGaussianModel, obs) -> EnergyTrajectory:
    """Optimal trajectory of the deterministic minimum-energy problem.

    The forward pass is the filter mean equation with the increment ratio in
    place of the formal observation derivative; the backward pass integrates
    ``dx/dt = A^T x + Q Sigma_t^{-1} (x - xhat)`` jointly with the
    covariance and reference trajectory from the terminal filter state.
    The associated control is ``u = sigma^T Sigma^{-1} (x - xhat)``; the
    returned states are re-integrated from ``(x_0, u)`` so the pair passes
    the dynamics-consistency check exactly.
    """
    n, dt = obs.n_steps, obs.dt
    a, h, q, sig_m = model.a_mat, model.h_mat, model.noise_cov, model.sigma
    sig_half, xh = _forward_reference(model, obs)
    lam_min = np.linalg.eigvalsh(sig_half).min()
    if lam_min < 1e-10:
        raise NumericalFailure("covariance numerically singular along the path")
    zd = _zdot(obs)
    x = np.empty_like(xh)
    x[-1] = xh[-1]
    s_b = sig_half[2 * n].copy()
    xh_b = xh[2 * n].copy()
    hh = -dt / 2.0

    def rhs(s, xr, xv, z):
        ds = _riccati_rhs(model, s)
        dxr = a.T @ xr + s @ (h @ (z - h.T @ xr))
        dxv = a.T @ xv + q @ np.linalg.solve(s, xv - xr)
        return ds, dxr, dxv

    for j in range(2 * n, 0, -1):
        z = zd[(j - 1) // 2]
        ds1, dr1, dx1 = rhs(s_b, xh_b, x[j], z)
        ds2, dr2, dx2 = rhs(s_b + 0.5 * hh * ds1, xh_b + 0.5 * hh * dr1, x[j] + 0.5 * hh * dx1, z)
        ds3, dr3, dx3 = rhs(s_b + 0.5 * hh * ds2, xh_b + 0.5 * hh * dr2, x[j] + 0.5 * hh * dx2, z)
        ds4, dr4, dx4 = rhs(s_b + hh * ds3, xh_b + hh * dr3, x[j] + hh * dx3, z)
        s_b = symmetrize(s_b + hh / 6.0 * (ds1 + 2 * ds2 + 2 * ds3 + ds4))
        xh_b = xh_b + hh / 6.0 * (dr1 + 2 * dr2 + 2 * dr3 + dr4)
        x[j - 1] = x[j] + hh / 6.0 * (dx1 + 2 * dx2 + 2 * dx3 + dx4)

    controls = np.empty((2 * n + 1, sig_m.shape[1]))
    for j in range(2 * n + 1):
        controls[j] = sig_m.T @ np.linalg.solve(sig_half[j], x[j] - xh[j])
    states = reintegrate(model, x[0], controls, dt)
    return EnergyTrajectory(dt=dt, states=states, controls=controls, filter_means=xh)


def reintegrate(model: LinearGaussianModel, x0: Array, controls: Array, dt: float) -> Array:
    """Integrate ``dx/dt = A^T x + sigma u`` with half-grid control samples.

    Used both to validate trajectory/control consistency and to build
    perturbed-but-feasible candidates for the cost inequality.
    """
    n2 = controls.shape[0] - 1
    a, sig = model.a_mat, model.sigma
    x = np.empty((n2 + 1, model.dim))
    x[0] = np.asarray(x0, dtype=float)
    hh = dt / 2.0
    for j in range(n2):
        u0, u1 = controls[j], controls[j + 1]
        um = 0.5 * (u0 + u1)
        k1 = a.T @ x[j] + sig @ u0
        k2 = a.T @ (x[j] + 0.5 * hh * k1) + sig @ um
        k3 = a.T @ (x[j] + 0.5 * hh * k2) + sig @ um
        k4 = a.T @ (x[j] + hh * k3) + sig @ u1
        x[j + 1] = x[j] + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def min_energy_cost(
    model: LinearGaussianModel,
    trajectory: EnergyTrajectory,
    controls: Array | None = None,
    obs=None,
    consistency_tol: float = 1e-8,
) -> float:
    """Minimum-energy objective of a (trajectory, control) pair.

    ``J = (x_0 - m_0)^T Sigma_0^{-1} (x_0 - m_0)
    + int |u|^2 + |zdot - H^T x|^2 dt`` with ``zdot = dZ/dt`` and per-step
    Simpson quadrature on the half grid.  The trajectory must satisfy the
    controlled dynamics to within ``consistency_tol`` (checked by
    re-integration), otherwise the pair is rejected.
    """
    if obs is None:
        raise ValueError("an observation path is required to evaluate the cost")
    u = trajectory.controls if controls is None else np.asarray(controls, dtype=float)
    x = trajectory.states
    if u.shape[0] != x.shape[0]:
        raise ValueError("controls and states must share the half grid")
    replay = reintegrate(model, x[0], u, trajectory.dt)
    residual = float(np.abs(replay - x).max())
    if residual > consistency_tol:
        raise ValueError(f"trajectory is inconsistent with the dynamics (residual {residual:g})")
    n, dt = trajectory.n_steps, trajectory.dt
    h = model.h_mat
    zd = _zdot(obs)
    dev = x[0] - model.mean0
    cost = float(dev @ np.linalg.solve(model.cov0, dev))
    for k in range(n):
        vals = []
        for j in (2 * k, 2 * k + 1, 2 * k + 2):
            r = zd[k] - h.T @ x[j]
            vals.append(float(u[j] @ u[j] + r @ r))
        cost += dt / 6.0 * (vals[0] + 4.0 * vals[1] + vals[2])
    return cost


def prediction_error_integral(model: LinearGaussianModel, trajectory: EnergyTrajectory, obs) -> float:
    """``int |zdot - H^T xhat|^2 dt`` along the forward reference trajectory."""
    n, dt = trajectory.n_steps, trajectory.dt
    h = model.h_mat
    zd = _zdot(obs)
    xh = trajectory.filter_means
    total = 0.0
    for k in range(n):
        vals = []
        for j in (2 * k, 2 * k + 1, 2 * k + 2):
            r = zd[k] - h.T @ xh[j]
            vals.append(float(r @ r))
        total += dt / 6.0 * (vals[0] + 4.0 * vals[1] + vals[2])
    return total
