"""Optimal filters for the white-noise observation model.

The finite-state filters share one splitting scheme per step of size ``dt``
with increment ``dZ``:

* predict through the exact transition semigroup, ``p = expm(A^T dt) pi``;
* correct by the Gaussian increment likelihood,
  ``pi'(i) propto p(i) exp(h(i)^T dZ - |h(i)|^2 dt / 2)``.

The scheme preserves positivity unconditionally and coincides with the exact
filter of the discrete-time hidden Markov model induced on the grid, which
is what makes machine-precision oracle comparisons possible elsewhere in the
package.

One kernel, :func:`_advance`, runs the scheme on a batch of rows,
renormalizing every step and recording the mass it divides out; a single
record runs it in about ``sqrt(n)`` chunks side by side (:func:`_scan`).
The Wonham filters use raw likelihoods, so a mass underflow is reported at
its step; the Zakai filter and the smoother factor each step's largest log
likelihood into the log normalizer instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._csv import csv_text, grid_rows
from ._linalg import cached_expm, symmetrize
from .models import HmmModel, LinearGaussianModel, NumericalFailure, as_simplex, q_matrices

Array = NDArray[np.float64]

MASS_FLOOR = 1e-300
SCAN_FLOOR = 1e-200      # smallest chunk-start mass the chunked scan trusts
BATCH_BLOCK = 16         # steps of likelihoods wonham_filter_batch forms at once
OPERATOR_RESCALE_ABOVE = 1e150


@dataclass(frozen=True)
class BeliefPath:
    """Posterior distribution at every grid point; rows live on the simplex."""

    dt: float
    beliefs: Array  # (n_steps + 1, d)

    @property
    def n_steps(self) -> int:
        return self.beliefs.shape[0] - 1

    def grid(self) -> Array:
        return np.arange(self.beliefs.shape[0]) * self.dt

    def expectation(self, f) -> Array:
        """``pi_t(f)`` along the grid."""
        return self.beliefs @ np.asarray(f, dtype=float)

    def csv(self) -> str:
        d = self.beliefs.shape[1]
        head = "t," + ",".join(f"pi_{i + 1}" for i in range(d))
        return csv_text(head, grid_rows(self.dt, self.beliefs))


@dataclass(frozen=True)
class UnnormalizedPath:
    """Zakai masses, stored as normalized rows plus a log normalizer.

    ``sigma_t = exp(log_normalizer[k]) * masses[k]`` and
    ``log_normalizer[k] = log sigma_t(1)``.
    """

    dt: float
    masses: Array           # (n_steps + 1, d), rows sum to 1
    log_normalizer: Array   # (n_steps + 1,)

    def normalized(self) -> BeliefPath:
        return BeliefPath(dt=self.dt, beliefs=self.masses.copy())

    def total_mass(self) -> Array:
        """``sigma_t(1)`` along the grid (may overflow for long horizons;
        prefer ``log_normalizer``)."""
        return np.exp(self.log_normalizer)


@dataclass(frozen=True)
class ZakaiOperatorPath:
    """Solution operator of the Zakai equation on the grid.

    Columns are stored individually rescaled:
    ``Psi(t_k)[:, j] = exp(log_scale[k, j]) * psi[k][:, j]``.  Scale factors
    stay zero until a column would over- or underflow; because the recursion
    multiplies from the left, a column's factor persists once applied.
    """

    dt: float
    psi: Array        # (n_steps + 1, d, d)
    log_scale: Array  # (n_steps + 1, d), per column

    def matrix(self, k: int) -> Array:
        """Full operator at grid index ``k`` (scales folded back in)."""
        return self.psi[k] * np.exp(self.log_scale[k])[None, :]

    def apply(self, measure) -> Array:
        """Unnormalized masses ``Psi_t mu`` along the grid."""
        mu = np.asarray(measure, dtype=float)
        return np.einsum("tij,tj->ti", self.psi, np.exp(self.log_scale) * mu)


@dataclass(frozen=True)
class GaussianBeliefPath:
    """Kalman-Bucy posterior: mean and covariance at every grid point."""

    dt: float
    means: Array  # (n_steps + 1, d)
    covs: Array   # (n_steps + 1, d, d)

    def grid(self) -> Array:
        return np.arange(self.means.shape[0]) * self.dt

    def csv(self) -> str:
        d = self.means.shape[1]
        head = ("t," + ",".join(f"m_{i + 1}" for i in range(d)) + ","
                + ",".join(f"Sigma_{i + 1}{j + 1}" for i in range(d) for j in range(d)))
        n = self.means.shape[0]
        return csv_text(head, grid_rows(self.dt, np.hstack([self.means, self.covs.reshape(n, -1)])))


def _check_hmm_inputs(model: HmmModel, obs) -> None:
    if obs.n_channels != model.n_channels:
        raise ValueError(f"observation has {obs.n_channels} channels, model has {model.n_channels}")


def _log_likelihoods(h: Array, increments: Array, dt: float) -> Array:
    """Per-step log correction factors ``h(i)^T dZ - |h(i)|^2 dt / 2``;
    ``increments`` (..., m) gives shape (..., d)."""
    out = increments @ h.T
    out -= 0.5 * np.sum(h * h, axis=1) * dt
    return out


def _advance(step: Array, like: Array, x: Array, rows: Array, mass: Array | None = None,
             keep: int = 1, first: int = 0) -> Array:
    """The forward kernel: ``x <- like[:, i] * (x @ step)``, renormalized, on
    B rows at once for each step ``i`` (step ``first + i`` of the record) of
    ``like`` (B, c, d).  Every ``keep``-th record step's rows fill ``rows[:, 0],
    rows[:, 1], ...``; ``mass[:, i]`` gets the mass divided out.  Returns x.
    """
    ones = np.ones(step.shape[0])                     # x @ ones sums rows faster than sum(axis=1)
    for i in range(like.shape[1]):
        x = x @ step * like[:, i]
        s = x @ ones
        lo, hi = s.min(initial=np.inf), s.max(initial=0.0)      # B may be 0
        if not (lo > MASS_FLOOR and hi < np.inf):
            kind = "overflow" if lo > MASS_FLOOR else "underflow"
            raise NumericalFailure(f"posterior mass {kind}", step=first + i)
        x /= s[:, None]
        if mass is not None:
            mass[:, i] = s
        if (first + i + 1) % keep == 0:
            rows[:, (first + i + 1) // keep - first // keep - 1] = x
    return x


def _scan(step: Array, log_like: Array, x0: Array, shift: bool) -> tuple[Array, Array]:
    """Rows (n + 1, d) and log normalizer (n + 1,) of one record ``log_like``
    (n, d) through :func:`_advance` in about ``3 sqrt(n)`` vector operations;
    ``shift`` factors each step's largest log likelihood out before ``exp``.

    Products of k chunks of ``c = isqrt(n)`` steps, built side by side, carry
    the rows from chunk start to chunk start (no factor is negative, so
    nothing cancels); then the kernel runs in all chunks at once.  If that
    leaves the range the scan trusts, the record runs step by step.
    """
    n, d = log_like.shape
    peak = log_like.max(axis=1) if shift else np.zeros(n)
    like = np.exp(log_like - peak[:, None])
    rows, logn = np.empty((n + 1, d)), np.zeros(n + 1)
    rows[0], mass = x0, logn[1:]                      # masses first, logs at the end
    c = max(1, math.isqrt(n))
    k = n // c
    chunks = like[:k * c].reshape(k, c, d)
    prod = np.tile(np.eye(d), (k, 1))                 # k stacked (d, d) chunk products
    with np.errstate(all="ignore"):                   # a broken product fails its mass check
        for i in range(c):
            prod = (prod @ step).reshape(k, d, d) * chunks[:, i, None, :]
            prod = (prod / prod.max(axis=(1, 2), keepdims=True)).reshape(k * d, d)
    starts = rows[:k * c + 1:c]
    try:
        for j in range(k):
            v = starts[j] @ prod[j * d:(j + 1) * d]
            if not SCAN_FLOOR < v.sum() < np.inf:
                raise NumericalFailure("chunk product out of range")
            starts[j + 1] = v / v.sum()
        _advance(step, chunks, starts[:k], rows[1:k * c + 1].reshape(k, c, d),
                 mass[:k * c].reshape(k, c))
        _advance(step, like[None, k * c:], starts[k:], rows[None, k * c + 1:], mass[None, k * c:])
        scanned = True
    except NumericalFailure:
        scanned = False
    if not scanned:
        _advance(step, like[None], x0[None], rows[None, 1:], mass[None])
    np.cumsum(np.log(mass) + peak, out=mass)
    return rows, logn


def wonham_filter(model: HmmModel, prior, obs) -> BeliefPath:
    """Optimal nonlinear filter of a finite-state chain, renormalized each step."""
    _check_hmm_inputs(model, obs)
    beliefs, _ = _scan(cached_expm(model.rate.entries.T, obs.dt).T,
                       _log_likelihoods(model.obs.entries, obs.increments, obs.dt),
                       as_simplex(prior).entries, shift=False)
    return BeliefPath(dt=obs.dt, beliefs=beliefs)


def wonham_filter_batch(model: HmmModel, prior, increments: Array, dt: float,
                        keep_every: int = 1) -> Array:
    """Vectorized Wonham filter over a batch of observation paths.

    ``increments`` has shape (n_paths, n_steps, m); returns beliefs of shape
    (n_paths, n_steps // keep_every + 1, d) at grid points ``0, keep_every,
    2 keep_every, ...``.  Only the kept beliefs are stored, and likelihoods
    are formed a block of steps at a time, so subsampling bounds the memory
    of long batches.
    """
    if keep_every < 1:
        raise ValueError("keep_every must be at least 1")
    prior = as_simplex(prior)
    n_paths, n_steps, _ = increments.shape
    step = cached_expm(model.rate.entries.T, dt).T
    out = np.empty((n_paths, n_steps // keep_every + 1, model.dim))
    out[:, 0] = x = prior.entries
    for b in range(0, n_steps, BATCH_BLOCK):
        like = _log_likelihoods(model.obs.entries, increments[:, b:b + BATCH_BLOCK], dt)
        np.exp(like, out=like)
        x = _advance(step, like, x, out[:, b // keep_every + 1:], keep=keep_every, first=b)
    return out


def zakai_filter(model: HmmModel, prior, obs) -> UnnormalizedPath:
    """Unnormalized filter; same splitting as the Wonham filter, no renormalization.

    The total mass is accumulated in log domain, so the path is well defined
    for horizons where ``sigma_t(1)`` itself would under- or overflow.
    """
    _check_hmm_inputs(model, obs)
    masses, logn = _scan(cached_expm(model.rate.entries.T, obs.dt).T,
                         _log_likelihoods(model.obs.entries, obs.increments, obs.dt),
                         as_simplex(prior).entries, shift=True)
    return UnnormalizedPath(dt=obs.dt, masses=masses, log_normalizer=logn)


def zakai_operator(model: HmmModel, obs) -> ZakaiOperatorPath:
    """Matrix solution operator ``Psi_t`` of the Zakai equation.

    Propagated with the same per-step factors as the filters, so
    ``Psi_t`` applied to a prior reproduces the Zakai masses exactly.
    """
    _check_hmm_inputs(model, obs)
    d = model.dim
    trans = cached_expm(model.rate.entries.T, obs.dt)
    like = np.exp(_log_likelihoods(model.obs.entries, obs.increments, obs.dt))
    psi = np.empty((obs.n_steps + 1, d, d))
    log_scale = np.zeros((obs.n_steps + 1, d))
    psi[0] = np.eye(d)
    cur = np.eye(d)
    scale = np.zeros(d)
    for k in range(obs.n_steps):
        cur = like[k][:, None] * (trans @ cur)
        peak = np.abs(cur).max(axis=0)
        hot = (peak > OPERATOR_RESCALE_ABOVE) | ((peak > 0.0) & (peak < 1.0 / OPERATOR_RESCALE_ABOVE))
        if np.any(hot):
            cur[:, hot] /= peak[hot]
            scale = scale + np.where(hot, np.log(peak, where=peak > 0, out=np.zeros(d)), 0.0)
        psi[k + 1] = cur
        log_scale[k + 1] = scale
    return ZakaiOperatorPath(dt=obs.dt, psi=psi, log_scale=log_scale)


def zakai_operator_batch(model: HmmModel, increments: Array, dt: float) -> tuple[Array, Array]:
    """Operator paths for a batch of observation paths.

    Returns ``(psi, log_scale)`` with shapes (n_paths, n_steps + 1, d, d)
    and (n_paths, n_steps + 1).
    """
    n_paths, n_steps, _ = increments.shape
    d = model.dim
    trans = cached_expm(model.rate.entries.T, dt)
    h = model.obs.entries
    quad = 0.5 * np.sum(h * h, axis=1) * dt
    psi = np.empty((n_paths, n_steps + 1, d, d))
    log_scale = np.zeros((n_paths, n_steps + 1))
    cur = np.broadcast_to(np.eye(d), (n_paths, d, d)).copy()
    scale = np.zeros(n_paths)
    psi[:, 0] = cur
    for k in range(n_steps):
        like = np.exp(increments[:, k] @ h.T - quad)        # (n_paths, d)
        cur = like[:, :, None] * (trans[None] @ cur)
        peak = np.abs(cur).max(axis=(1, 2))
        hot = (peak > OPERATOR_RESCALE_ABOVE) | ((peak > 0) & (peak < 1.0 / OPERATOR_RESCALE_ABOVE))
        if np.any(hot):
            cur[hot] /= peak[hot, None, None]
            scale[hot] += np.log(peak[hot])
        psi[:, k + 1] = cur
        log_scale[:, k + 1] = scale
    return psi, log_scale


def innovation_path(model: HmmModel, beliefs: BeliefPath, obs) -> Array:
    """Innovation increments ``dI_k = dZ_k - pi_k(h) dt`` (left-point filter)."""
    if beliefs.n_steps != obs.n_steps:
        raise ValueError("belief path and observation path have different grids")
    predicted = beliefs.beliefs[:-1] @ model.obs.entries
    return obs.increments - predicted * obs.dt


# -- linear-Gaussian ----------------------------------------------------------

def riccati_rhs(model: LinearGaussianModel, sigma: Array) -> Array:
    a, h = model.a_mat, model.h_mat
    return a.T @ sigma + sigma @ a + model.noise_cov - sigma @ h @ h.T @ sigma


def _rk4_riccati(model: LinearGaussianModel, sigma0: Array, n_steps: int, dt: float) -> Array:
    out = np.empty((n_steps + 1,) + sigma0.shape)
    out[0] = symmetrize(sigma0)
    s = out[0]
    for k in range(n_steps):
        k1 = riccati_rhs(model, s)
        k2 = riccati_rhs(model, s + 0.5 * dt * k1)
        k3 = riccati_rhs(model, s + 0.5 * dt * k2)
        k4 = riccati_rhs(model, s + dt * k3)
        s = symmetrize(s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        out[k + 1] = s
    return out


def riccati_half_grid(model: LinearGaussianModel, sigma0: Array, n_steps: int, dt: float) -> Array:
    """Riccati solution sampled at half-step resolution, shape (2 n + 1, d, d)."""
    return _rk4_riccati(model, sigma0, 2 * n_steps, dt / 2.0)


def kalman_bucy(model: LinearGaussianModel, obs) -> GaussianBeliefPath:
    """Kalman-Bucy filter: Riccati covariance by RK4, mean by Euler in ``dZ``."""
    if obs.n_channels != model.n_channels:
        raise ValueError("observation channel count does not match the model")
    n, dt = obs.n_steps, obs.dt
    covs = _rk4_riccati(model, model.cov0, n, dt)
    lam_min = np.linalg.eigvalsh(covs).min()
    if lam_min < -1e-6:
        raise NumericalFailure(f"covariance lost positive semidefiniteness ({lam_min:g})")
    means = np.empty((n + 1, model.dim))
    means[0] = model.mean0
    a, h = model.a_mat, model.h_mat
    for k in range(n):
        m = means[k]
        means[k + 1] = m + a.T @ m * dt + covs[k] @ h @ (obs.increments[k] - h.T @ m * dt)
    return GaussianBeliefPath(dt=dt, means=means, covs=covs)


def solve_are(
    model: LinearGaussianModel,
    dt: float = 2e-3,
    max_horizon: float = 100.0,
    stationarity_tol: float = 1e-10,
    residual_tol: float = 1e-8,
) -> tuple[Array, bool]:
    """Stationary Riccati solution by integrating the flow from identity.

    Returns ``(sigma_inf, hurwitz)`` where the flag reports whether the
    closed-loop matrix ``A^T - sigma_inf H H^T`` has all eigenvalues in the
    open left half-plane.  Raises :class:`~dualfilter.models.NumericalFailure`
    when the flow has not become stationary by ``max_horizon``, which is the
    diagnostic for a model that is not stabilizable/detectable.
    """
    s = np.eye(model.dim)
    steps = int(round(max_horizon / dt))
    for k in range(steps):
        k1 = riccati_rhs(model, s)
        if np.abs(k1).max() < stationarity_tol:
            break
        k2 = riccati_rhs(model, s + 0.5 * dt * k1)
        k3 = riccati_rhs(model, s + 0.5 * dt * k2)
        k4 = riccati_rhs(model, s + dt * k3)
        s = symmetrize(s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        if not np.all(np.isfinite(s)):
            raise NumericalFailure("Riccati flow diverged; model not stabilizable/detectable", step=k)
    else:
        raise NumericalFailure("Riccati flow did not reach stationarity; model not stabilizable/detectable")
    residual = riccati_rhs(model, s)
    if np.abs(residual).max() > residual_tol:
        raise NumericalFailure(f"stationary residual {np.abs(residual).max():g} exceeds {residual_tol:g}")
    closed_loop = model.a_mat.T - s @ model.h_mat @ model.h_mat.T
    hurwitz = bool(np.all(np.linalg.eigvals(closed_loop).real < 0))
    return s, hurwitz


def kf_markov_chain(model: HmmModel, obs) -> tuple[Array, Array]:
    """Sub-optimal Kalman-style filter for a finite chain.

    States are embedded as canonical basis vectors; the covariance solves a
    Riccati equation whose running weight is the prior-flow average
    ``E[Q(X_t)] = sum_i mu_t(i) Q(i)`` of the carre du champ matrices, and
    the estimate follows the mean update driven by ``dZ``.

    Returns ``(estimates, covariances)`` of shapes (n + 1, d) and
    (n + 1, d, d).
    """
    _check_hmm_inputs(model, obs)
    n, dt = obs.n_steps, obs.dt
    d = model.dim
    a, h = model.rate.entries, model.obs.entries
    q = q_matrices(model.rate).q_of
    mu0 = model.prior.entries
    half_trans = cached_expm(a.T, dt / 2.0)

    mu_half = np.empty((2 * n + 1, d))
    mu_half[0] = mu0
    for j in range(2 * n):
        mu_half[j + 1] = half_trans @ mu_half[j]

    def eq(j: int) -> Array:
        return np.einsum("i,ijk->jk", mu_half[j], q)

    def rhs(s: Array, j: int) -> Array:
        return s @ a + a.T @ s + eq(j) - s @ h @ h.T @ s

    covs = np.empty((n + 1, d, d))
    covs[0] = symmetrize(np.diag(mu0) - np.outer(mu0, mu0))
    s = covs[0]
    for k in range(n):
        k1 = rhs(s, 2 * k)
        k2 = rhs(s + 0.5 * dt * k1, 2 * k + 1)
        k3 = rhs(s + 0.5 * dt * k2, 2 * k + 1)
        k4 = rhs(s + dt * k3, 2 * k + 2)
        s = symmetrize(s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        covs[k + 1] = s
    lam_min = np.linalg.eigvalsh(covs).min()
    if lam_min < -1e-6:
        raise NumericalFailure(f"covariance lost positive semidefiniteness ({lam_min:g})")

    est = np.empty((n + 1, d))
    est[0] = mu0
    trans = cached_expm(a.T, dt)
    for k in range(n):
        x = est[k]
        est[k + 1] = trans @ x + covs[k] @ h @ (obs.increments[k] - h.T @ x * dt)
    return est, covs


def kf_markov_chain_batch(model: HmmModel, increments: Array, dt: float) -> Array:
    """Estimate paths of :func:`kf_markov_chain` over a batch of observation
    paths (shared covariance flow).  Returns shape (n_paths, n + 1, d)."""
    n_paths, n, _ = increments.shape
    _, covs = kf_markov_chain(model, ObservationStub(dt, n, model.n_channels))
    a, h = model.rate.entries, model.obs.entries
    trans_t = cached_expm(a.T, dt).T
    est = np.empty((n_paths, n + 1, model.dim))
    est[:, 0] = model.prior.entries
    x = est[:, 0].copy()
    for k in range(n):
        gain = covs[k] @ h
        x = (x @ trans_t) + (increments[:, k] - (x @ h) * dt) @ gain.T
        est[:, k + 1] = x
    return est


class ObservationStub:
    """Zero-increment observation path; used to reuse covariance flows."""

    def __init__(self, dt: float, n_steps: int, m: int):
        self.dt = dt
        self.increments = np.zeros((n_steps, m))
        self.n_steps = n_steps
        self.n_channels = m
