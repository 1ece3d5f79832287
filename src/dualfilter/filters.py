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
The Zakai solution operator is the same kernel on the rows of the identity
(one row per column), and the Monte-Carlo gramian of
:mod:`~dualfilter.duality` streams a batch of operators through it.  The
Wonham filters use raw likelihoods, so a mass underflow is reported at its
step (and, for a batch, its first failing path); the Zakai filter, its
operator and the smoother factor each step's largest log likelihood into
the log normalizer instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import LinAlgError, solve_continuous_are

from ._csv import csv_text, grid_rows
from ._linalg import affine_scan, cached_expm, rk4, symmetrize
from .models import HmmModel, LinearGaussianModel, NumericalFailure, as_simplex, q_matrices

Array = NDArray[np.float64]

MASS_FLOOR = 1e-300
SCAN_FLOOR = 1e-200      # smallest chunk-start mass the chunked scan trusts
BATCH_BLOCK = 16         # steps of likelihoods a batch forms at once


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

    Columns are stored renormalized:
    ``Psi(t_k)[:, j] = exp(log_scale[k, j]) * psi[k][:, j]``, where each
    column of ``psi[k]`` sums to one and ``log_scale[k, j]`` is the log mass
    of column ``j``.  As in the Zakai filter, every step's largest log
    likelihood is factored out and goes into ``log_scale`` with the mass the
    kernel divides out, so no column over- or underflows silently: a column
    whose peak-shifted mass drops below ``MASS_FLOOR`` (a state whose
    likelihood falls below 1e-300 of the step's largest) raises
    :class:`~dualfilter.models.NumericalFailure` at that step, the rule
    :func:`zakai_filter` applies to a unit-mass prior on the same record.
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
            row = int(np.argmin((s > MASS_FLOOR) & (s < np.inf)))
            kind = "overflow" if s[row] > MASS_FLOOR else "underflow"
            raise NumericalFailure(f"posterior mass {kind}", step=first + i, path=row)
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
        try:
            _advance(step, like[None], x0[None], rows[None, 1:], mass[None])
        except NumericalFailure as exc:                 # one record: the step says it all
            raise NumericalFailure(exc.reason, exc.step) from None
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

    The Zakai filter applied to the identity: column ``j`` is the filter
    started at the unit mass on state ``j``, run as row ``j`` of the forward
    kernel with the same per-step factors, so ``Psi_t`` applied to a prior
    reproduces the Zakai masses.  Raises
    :class:`~dualfilter.models.NumericalFailure` at the step where a
    column's peak-shifted mass underflows.
    """
    _check_hmm_inputs(model, obs)
    d, n = model.dim, obs.n_steps
    log_like = _log_likelihoods(model.obs.entries, obs.increments, obs.dt)
    peak = log_like.max(axis=1, keepdims=True)
    psi = np.empty((n + 1, d, d))
    log_scale = np.zeros((n + 1, d))
    psi[0] = np.eye(d)
    try:                                              # row j of step k is psi[k][:, j]
        _advance(cached_expm(model.rate.entries.T, obs.dt).T,
                 np.broadcast_to(np.exp(log_like - peak), (d, n, d)), psi[0],
                 psi[1:].transpose(2, 0, 1), log_scale[1:].T)
    except NumericalFailure as exc:                     # one record: the step says it all
        raise NumericalFailure(exc.reason, exc.step) from None
    np.cumsum(np.log(log_scale[1:]) + peak, axis=0, out=log_scale[1:])
    return ZakaiOperatorPath(dt=obs.dt, psi=psi, log_scale=log_scale)


def innovation_path(model: HmmModel, beliefs: BeliefPath, obs) -> Array:
    """Innovation increments ``dI_k = dZ_k - pi_k(h) dt`` (left-point filter)."""
    if beliefs.n_steps != obs.n_steps:
        raise ValueError("belief path and observation path have different grids")
    predicted = beliefs.beliefs[:-1] @ model.obs.entries
    return obs.increments - predicted * obs.dt


# -- linear-Gaussian and chain Kalman filters ---------------------------------

ARE_RESIDUAL_TOL = 1e-8


def riccati_rhs(a: Array, h: Array, q: Array, sigma: Array) -> Array:
    """Riccati right-hand side ``A^T Sigma + Sigma A + Q - Sigma H H^T Sigma``
    for a symmetric ``Sigma``, or for each of a stack (..., d, d) of them.

    ``A`` is a linear model's ``a_mat`` with ``Q = sigma sigma^T``, or a
    chain's rate matrix with the running weight ``Q = E[Q(X_t)]`` (one
    matrix, or one per member of the stack).  Formed as ``G + G^T`` with
    ``G = A^T Sigma + (Q - Sigma H (Sigma H)^T) / 2``, so the output is
    exactly symmetric and so is every RK4 stage built from it.
    """
    sh = sigma @ h
    g = a.T @ sigma + 0.5 * (q - sh @ sh.swapaxes(-1, -2))
    return g + g.swapaxes(-1, -2)


def _check_psd(covs: Array) -> None:
    lam_min = np.linalg.eigvalsh(covs).min(axis=1)
    bad = np.flatnonzero(lam_min < -1e-6)
    if bad.size:
        raise NumericalFailure(f"covariance lost positive semidefiniteness ({lam_min[bad[0]]:g})",
                               step=int(bad[0]))


def _rk4_riccati(model: LinearGaussianModel, sigma0: Array, n_steps: int, dt: float) -> Array:
    a, h, q = model.a_mat, model.h_mat, model.noise_cov
    return rk4(lambda s, k, i: riccati_rhs(a, h, q, s), symmetrize(sigma0), n_steps, dt)


def riccati_half_grid(model: LinearGaussianModel, sigma0: Array, n_steps: int, dt: float) -> Array:
    """Riccati solution sampled at half-step resolution, shape (2 n + 1, d, d)."""
    return _rk4_riccati(model, sigma0, 2 * n_steps, dt / 2.0)


def _kalman_means(trans: Array, h: Array, covs: Array, increments: Array, x0: Array,
                  dt: float) -> Array:
    """Kalman mean update ``x_{k+1} = x_k T + (dZ_k - x_k H dt) K_k^T`` with
    gain ``K_k = Sigma_k H``, shared by the Kalman-Bucy (``T = I + A dt``)
    and the chain (``T = expm(A dt)``) filters.  ``increments`` (..., n, m)
    gives means (..., n + 1, d)."""
    gains_t = (covs[:-1] @ h).transpose(0, 2, 1)          # K_k^T, (n, m, d)
    forcing = np.einsum("k...m,kmd->k...d", np.moveaxis(increments, -2, 0), gains_t)
    return np.moveaxis(affine_scan(trans - dt * (h @ gains_t), forcing, x0), 0, -2)


def kalman_bucy(model: LinearGaussianModel, obs) -> GaussianBeliefPath:
    """Kalman-Bucy filter: Riccati covariance by RK4, mean by Euler in ``dZ``."""
    if obs.n_channels != model.n_channels:
        raise ValueError("observation channel count does not match the model")
    n, dt = obs.n_steps, obs.dt
    covs = _rk4_riccati(model, model.cov0, n, dt)
    _check_psd(covs)
    means = _kalman_means(np.eye(model.dim) + model.a_mat * dt, model.h_mat, covs,
                          obs.increments, model.mean0, dt)
    return GaussianBeliefPath(dt=dt, means=means, covs=covs)


def solve_are(model: LinearGaussianModel) -> tuple[Array, bool]:
    """Stationary Riccati solution, from scipy's continuous-time algebraic
    Riccati (CARE) solver.

    Solves ``A^T S + S A + sigma sigma^T - S H H^T S = 0`` and returns
    ``(sigma_inf, hurwitz)``, where the flag reports whether the closed-loop
    matrix ``A^T - sigma_inf H H^T`` has all eigenvalues in the open left
    half-plane.  Raises :class:`~dualfilter.models.NumericalFailure` when the
    solver finds no finite stabilizing solution, which is the diagnostic for
    a model that is not stabilizable/detectable, or when the solution's
    residual exceeds ``ARE_RESIDUAL_TOL``.
    """
    a, h, q = model.a_mat, model.h_mat, model.noise_cov
    try:
        s = solve_continuous_are(a, h, q, np.eye(model.n_channels))
    except LinAlgError as exc:
        raise NumericalFailure(f"no stationary Riccati solution ({exc}); "
                               "model not stabilizable/detectable") from exc
    if not np.all(np.isfinite(s)):
        raise NumericalFailure("non-finite stationary Riccati solution; model not stabilizable/detectable")
    residual = np.abs(riccati_rhs(a, h, q, s)).max()
    if residual > ARE_RESIDUAL_TOL:
        raise NumericalFailure(f"stationary residual {residual:g} exceeds {ARE_RESIDUAL_TOL:g}")
    hurwitz = bool(np.all(np.linalg.eigvals(a.T - s @ h @ h.T).real < 0))
    return s, hurwitz


def prior_flow(rate: Array, mu0: Array, n_steps: int, dt: float) -> Array:
    """Prior marginals ``mu_t = expm(A^T t) mu0`` at ``n_steps + 1`` grid
    points ``dt`` apart: the forward kernel with unit likelihoods."""
    mu, _ = _scan(cached_expm(rate.T, dt).T, np.zeros((n_steps, rate.shape[0])), mu0, shift=False)
    return mu


def chain_riccati(model: HmmModel, n_steps: int, dt: float) -> tuple[Array, Array]:
    """Covariance flow of the chain Kalman filter, ``n_steps`` RK4 steps of ``dt``.

    The running weight is the prior-flow average ``E[Q(X_t)] = sum_i mu_t(i)
    Q(i)`` of the carre du champ matrices, exact on the half grid so every
    RK4 stage sees an exact coefficient.  Returns the covariances
    (n + 1, d, d) and the weights on the half grid (2 n + 1, d, d).
    """
    a, h, mu0 = model.rate.entries, model.obs.entries, model.prior.entries
    mu = prior_flow(a, mu0, 2 * n_steps, dt / 2.0)
    weight = np.einsum("ji,ikl->jkl", mu, q_matrices(model.rate).q_of)
    covs = rk4(lambda s, k, i: riccati_rhs(a, h, weight[2 * k + i], s),
               np.diag(mu0) - np.outer(mu0, mu0), n_steps, dt)
    return covs, weight


def _chain_kalman(model: HmmModel, increments: Array, dt: float) -> tuple[Array, Array]:
    covs, _ = chain_riccati(model, increments.shape[1], dt)
    _check_psd(covs)
    prior = np.broadcast_to(model.prior.entries, (increments.shape[0], model.dim))
    est = _kalman_means(cached_expm(model.rate.entries.T, dt).T, model.obs.entries, covs,
                        increments, prior, dt)
    return est, covs


def kf_markov_chain(model: HmmModel, obs) -> tuple[Array, Array]:
    """Sub-optimal Kalman-style filter for a finite chain.

    States are embedded as canonical basis vectors; the covariance solves
    the Riccati equation of :func:`chain_riccati`, and the estimate follows
    the mean update driven by ``dZ``.

    Returns ``(estimates, covariances)`` of shapes (n + 1, d) and
    (n + 1, d, d).
    """
    _check_hmm_inputs(model, obs)
    est, covs = _chain_kalman(model, obs.increments[None], obs.dt)
    return est[0], covs


def kf_markov_chain_batch(model: HmmModel, increments: Array, dt: float) -> Array:
    """Estimate paths of :func:`kf_markov_chain` over a batch of observation
    paths (shared covariance flow).  Returns shape (n_paths, n + 1, d)."""
    return _chain_kalman(model, increments, dt)[0]
