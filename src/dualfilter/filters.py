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

One kernel, :func:`_advance`, runs the scheme on a state-major batch: the
state axis first and the path axis last and contiguous, so each step is
``step^T x``, a multiply by the likelihoods broadcast along the path axis,
``ones @ x`` for the masses and one divide, every one of them along rows as
long as the batch.  It renormalizes every step and records the mass it
divides out, from K start columns that each take their path's
likelihoods.  A single record runs in about ``sqrt(n)`` chunks side by
side, one chunk per path (:func:`_scan`): a filter or smoother pass from
one column, the Zakai solution operator from the identity's d.  A batch
runs in one stream of ``BATCH_BLOCK``-step blocks (:func:`forward_blocks`):
the gramian's operators from the identity, or Wonham priors, so twin and
class-decomposition filters on the same records are one pass
(:func:`wonham_blocks`).  The gramian and the stability reductions reduce
the blocks as they come, formed time- and state-major from the increments.
The Wonham filters use raw likelihoods, so a mass underflow is reported at
its step (and, for a batch, the lowest failing path at that step); the
Zakai filter, its operator and the smoother factor each step's largest log
likelihood into the log normalizer instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._csv import csv_text, grid_rows
from ._linalg import PROPAGATOR_POWERS, affine_scan, expm, fractional_flow, rk4, symmetrize
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


@dataclass(frozen=True)
class ZakaiOperatorPath:
    """Solution operator of the Zakai equation on the grid.

    Columns are stored renormalized:
    ``Psi(t_k)[:, j] = exp(log_scale[k, j]) * psi[k][:, j]``, where each
    column of ``psi[k]`` sums to one and ``log_scale[k, j]`` is the log mass
    of column ``j``, the Zakai filter from ``e_j``: every step's largest log
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
        """Full operator at grid index ``k`` (scales folded back in); only
        within float range: a column whose log scale passes ~709 is inf."""
        return self.psi[k] * np.exp(self.log_scale[k])[None, :]

    def apply(self, measure) -> UnnormalizedPath:
        """``Psi_t mu`` along the grid, in the form :func:`zakai_filter`
        returns: rows ``Psi_t mu / |Psi_t mu|(1)`` and the log of that total
        mass (``log sigma_t(1)`` for a measure ``mu`` of d entries, any other
        length a ``ValueError``; a signed ``mu`` gives rows whose absolute
        values sum to one).  Each step's largest log weight ``log_scale +
        log |mu|`` is factored out first, so the masses stay finite where
        ``sigma_t(1)`` leaves float range."""
        mu = np.asarray(measure, dtype=float)
        if mu.shape != self.psi.shape[2:]:
            raise ValueError(f"measure has shape {mu.shape}, operator has {self.psi.shape[2]} states")
        with np.errstate(divide="ignore"):            # log 0 = -inf drops a column
            log_w = self.log_scale + np.log(np.abs(mu))
        shift = log_w.max(axis=1, keepdims=True)
        v = np.einsum("tij,tj->ti", self.psi, np.sign(mu) * np.exp(log_w - shift))
        total = np.abs(v).sum(axis=1, keepdims=True)
        return UnnormalizedPath(dt=self.dt, masses=v / total, log_normalizer=(shift + np.log(total))[:, 0])


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


def _advance(step: Array, like: Array, x: Array, rows: Array, mass: Array, first: int = 0) -> Array:
    """The forward kernel on a state-major batch: ``x <- like[i] (step^T x)``,
    renormalized, for each step ``i`` (step ``first + i`` of the record) of
    the likelihoods ``like`` (c, d, P).  ``x`` (d, K, P) holds K columns of
    each of P paths, and every column of path ``p`` takes ``like[i, :, p]``.
    Step ``i`` writes its x to ``rows[i]`` (d, K, P) and the mass it divides
    out to ``mass[i]`` (K, P), checked after the last step: the first bad
    step fails, naming its lowest bad path.  Returns x.
    """
    d, k_cols, _ = x.shape
    step_t, ones = step.T.copy(), np.ones(d)          # ones @ x sums columns faster than sum(axis=0)
    with np.errstate(all="ignore"):                   # steps after a failure are discarded
        for i in range(like.shape[0]):
            x = (step_t @ x.reshape(d, -1)).reshape(d, k_cols, -1)
            x *= like[i, :, None]
            s = mass[i] = (ones @ x.reshape(d, -1)).reshape(k_cols, -1)
            x = np.divide(x, s, out=rows[i])
    bad = ~((mass > MASS_FLOOR) & (mass < np.inf))
    hits = np.argwhere(bad.any(axis=1))               # in (step, path) order
    if hits.size:
        i, path = hits[0].tolist()
        kind = "overflow" if mass[i, bad[i, :, path], path][0] > MASS_FLOOR else "underflow"
        raise NumericalFailure(f"posterior mass {kind}", step=first + i, path=path)
    return x


def _scan(step: Array, log_like: Array, x0: Array, shift: bool) -> tuple[Array, Array]:
    """Rows (n + 1, d, K) and log masses (n + 1, K) of one record ``log_like``
    (n, d) through :func:`_advance` from the K columns of ``x0`` (d, K), in
    about ``3 sqrt(n)`` vector operations; ``shift`` factors each step's
    largest log likelihood out before ``exp``.

    Products of k chunks of ``c = isqrt(n)`` steps, built side by side, carry
    the columns from chunk start to chunk start (no factor is negative, so
    nothing cancels); then the kernel runs in all chunks at once, chunk
    ``j`` as its path ``j``.  If a column's chunk start leaves the range the
    scan trusts, or a mass fails, the record runs step by step, and a
    failure there names only its step.
    """
    (n, d), k_cols = log_like.shape, x0.shape[1]
    peak = log_like.max(axis=1) if shift else np.zeros(n)
    like = np.exp(log_like - peak[:, None])
    rows, logn = np.empty((n + 1, d, k_cols)), np.zeros((n + 1, k_cols))
    rows[0], mass = x0, logn[1:]                      # masses first, logs at the end
    c = max(1, math.isqrt(n))
    k = n // c
    chunks = like[:k * c].reshape(k, c, d)            # chunk j, its step i
    prod = np.tile(np.eye(d), (k, 1))                 # k stacked (d, d) chunk products
    with np.errstate(all="ignore"):                   # a broken product fails its mass check
        for i in range(c):
            prod = (prod @ step).reshape(k, d, d) * chunks[:, i, None, :]
            prod = (prod / prod.max(axis=(1, 2), keepdims=True)).reshape(k * d, d)
    starts = rows[:k * c + 1:c]                       # (k + 1, d, K)
    try:
        for j in range(k):
            v = prod[j * d:(j + 1) * d].T @ starts[j]
            s = v.sum(axis=0)                         # each column's mass
            if not SCAN_FLOOR < s.min() <= s.max() < np.inf:
                raise NumericalFailure("chunk product out of range")
            starts[j + 1] = v / s
        _advance(step, chunks.transpose(1, 2, 0), starts[:k].transpose(1, 2, 0),
                 rows[1:k * c + 1].reshape(k, c, d, k_cols).transpose(1, 2, 3, 0),
                 mass[:k * c].reshape(k, c, k_cols).transpose(1, 2, 0))
        _advance(step, like[k * c:, :, None], starts[k, :, :, None],
                 rows[k * c + 1:, :, :, None], mass[k * c:, :, None])
    except NumericalFailure:
        try:
            _advance(step, like[:, :, None], x0[:, :, None], rows[1:, :, :, None], mass[:, :, None])
        except NumericalFailure as exc:                 # one record: the step says it all
            raise NumericalFailure(exc.reason, exc.step) from None
    np.cumsum(np.log(mass) + peak[:, None], axis=0, out=mass)
    return rows, logn


def _record_scan(model: HmmModel, obs, x0: Array, shift: bool) -> tuple[Array, Array]:
    """:func:`_scan` of the observation record ``obs`` from the columns of ``x0``."""
    _check_hmm_inputs(model, obs)
    return _scan(expm(model.rate.entries.T * obs.dt).T,
                 _log_likelihoods(model.obs.entries, obs.increments, obs.dt), x0, shift)


def _prior_entries(model: HmmModel, prior) -> Array:
    p = as_simplex(prior).entries
    if p.shape[0] != model.dim:
        raise ValueError(f"prior has {p.shape[0]} states, model has {model.dim}")
    return p


def wonham_filter(model: HmmModel, prior, obs) -> BeliefPath:
    """Optimal nonlinear filter of a finite-state chain, renormalized each step."""
    beliefs, _ = _record_scan(model, obs, _prior_entries(model, prior)[:, None], shift=False)
    return BeliefPath(dt=obs.dt, beliefs=beliefs[:, :, 0])


def wonham_filter_batch(model: HmmModel, prior, increments: Array, dt: float,
                        keep_every: int = 1) -> Array:
    """Vectorized Wonham filter over a batch of observation paths.

    ``increments`` has shape (n_paths, n_steps, m); returns beliefs of shape
    (n_paths, n_steps // keep_every + 1, d) at grid points ``0, keep_every,
    ...`` (a leading K axis for a stack of K priors): the blocks of
    :func:`wonham_blocks`, joined path-major."""
    blocks = list(wonham_blocks(model, prior, increments, dt, keep_every))
    return np.concatenate(blocks, axis=-3).swapaxes(-3, -2)


def wonham_blocks(model: HmmModel, prior, increments: Array, dt: float, keep_every: int = 1):
    """:func:`wonham_filter_batch` a block of steps at a time: the prior,
    then each block's kept beliefs, time-major (kept points, n_paths, d), or
    (K, kept points, n_paths, d) for a stack of K priors, all of them
    columns of one :func:`forward_blocks` pass."""
    if keep_every < 1:
        raise ValueError("keep_every must be at least 1")
    one = np.ndim(prior) < 2                          # a prior, or a stack (K, d) of them
    starts = np.stack([_prior_entries(model, p) for p in ([prior] if one else prior)], axis=1)

    def kept(rows):                                   # copied: a view would pin its whole block
        out = rows.transpose(2, 0, 3, 1).copy()
        return out[0] if one else out

    yield kept(np.broadcast_to(starts[None, :, :, None], (1, *starts.shape, increments.shape[0])))
    b = 0
    for rows, _ in forward_blocks(model, starts, increments, dt):
        yield kept(rows[keep_every - b % keep_every::keep_every])    # rows[i] is grid point b + i
        b += rows.shape[0] - 1


def forward_blocks(model: HmmModel, starts: Array, increments: Array, dt: float,
                   shift: bool = False):
    """The forward kernel from the K columns of ``starts`` (d, K), shared by
    every record of a batch ``increments`` (n_paths, n_steps, m), a block of
    ``BATCH_BLOCK`` steps at a time: ``(rows, logs)``, shaped
    (c + 1, d, K, n_paths) and (c + 1, K, n_paths), hold column ``j`` of
    path ``p`` normalized in ``rows[k, :, j, p]`` at the block's grid
    points, the first of which ends the previous block.  ``shift`` factors
    each step's largest log likelihood into the log masses ``logs[k, j, p]``
    (the Monte-Carlo gramian, from ``I``).  Without it (the Wonham filters,
    raw likelihoods) ``logs[1:]`` holds the mass each step divides out, not
    its log, and ``logs[0]`` the previous block's last (1 at the start).
    A mass out of range raises a ``NumericalFailure`` naming its step and
    path.
    """
    (d, k_cols), n_paths = starts.shape, increments.shape[0]
    step = expm(model.rate.entries.T * dt).T
    x = starts[:, :, None]                            # one start for every path
    scale = np.zeros((k_cols, 1)) if shift else np.ones((k_cols, 1))
    for b, log_like in _likelihood_blocks(model.obs.entries, increments, dt):
        c = log_like.shape[0]
        rows, logs = np.empty((c + 1, d, k_cols, n_paths)), np.empty((c + 1, k_cols, n_paths))
        rows[0], logs[0] = x, scale                   # broadcast: K starts step as one prior does
        peak = log_like.max(axis=1, keepdims=True) if shift else 0.0
        log_like -= peak
        _advance(step, np.exp(log_like, out=log_like), rows[0], rows[1:], logs[1:], first=b)
        if shift:
            logs[1:] = np.log(logs[1:]) + peak
            np.cumsum(logs, axis=0, out=logs)
        x, scale = rows[c].copy(), logs[c].copy()     # copies: the block is freed once reduced
        yield rows, logs


def _likelihood_blocks(h: Array, increments: Array, dt: float):
    """``(b, log_like)`` per block of ``BATCH_BLOCK`` steps ``b, b + 1, ...``
    of ``increments`` (n_paths, n_steps, m): the :func:`_log_likelihoods`,
    formed time- and state-major (c, d, n_paths) channel by channel, so a
    path's factors do not depend on the batch it runs in."""
    quad = 0.5 * np.sum(h * h, axis=1)[:, None] * dt
    for b in range(0, increments.shape[1], BATCH_BLOCK):
        inc = increments[:, b:b + BATCH_BLOCK].T      # (m, c, n_paths)
        log_like = h[:, 0, None] * inc[0, :, None]
        for k in range(1, h.shape[1]):
            log_like += h[:, k, None] * inc[k, :, None]
        log_like -= quad
        yield b, log_like


def zakai_filter(model: HmmModel, prior, obs) -> UnnormalizedPath:
    """Unnormalized filter; same splitting as the Wonham filter, no renormalization.

    The total mass is accumulated in log domain, so the path is well defined
    for horizons where ``sigma_t(1)`` itself would under- or overflow.
    """
    masses, logn = _record_scan(model, obs, _prior_entries(model, prior)[:, None], shift=True)
    return UnnormalizedPath(dt=obs.dt, masses=masses[:, :, 0], log_normalizer=logn[:, 0])


def zakai_operator(model: HmmModel, obs) -> ZakaiOperatorPath:
    """Matrix solution operator ``Psi_t`` of the Zakai equation: the Zakai
    filter's scan (:func:`_scan` with ``shift``) from the d columns of the
    identity, so ``Psi_t`` applied to a prior reproduces the Zakai masses;
    a column's mass underflow fails as :class:`ZakaiOperatorPath` says."""
    psi, log_scale = _record_scan(model, obs, np.eye(model.dim), shift=True)
    return ZakaiOperatorPath(dt=obs.dt, psi=psi, log_scale=log_scale)


def innovation_path(model: HmmModel, beliefs: BeliefPath, obs) -> Array:
    """Innovation increments ``dI_k = dZ_k - pi_k(h) dt`` (left-point filter)."""
    if beliefs.n_steps != obs.n_steps:
        raise ValueError("belief path and observation path have different grids")
    predicted = beliefs.beliefs[:-1] @ model.obs.entries
    return obs.increments - predicted * obs.dt


# -- linear-Gaussian and chain Kalman filters ---------------------------------

ARE_RESIDUAL_TOL = 1e-8
SIGN_STEPS = 100    # Newton steps of the matrix sign iteration, at most
SIGN_TOL = 1e-8     # relative Newton step that ends it: the error is about its square


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


def _riccati_flow(model: LinearGaussianModel, sigma0: Array, n_steps: int, dt: float) -> Array:
    """Riccati solution at ``n_steps + 1`` grid points ``dt`` apart, exact up to roundoff.

    For constant coefficients ``Sigma_t = Y_t X_t^{-1}``, where ``[X; Y]``
    solves the linear system ``[X; Y]' = Ham [X; Y]`` with the Hamiltonian
    ``Ham = [[-A, H H^T], [Q, A^T]]`` (Davison & Maki 1973); the propagator of
    ``l`` steps is ``expm(Ham l dt)``, one ``expm`` per power, which
    :func:`~dualfilter._linalg.fractional_flow` runs chunk by chunk.
    """
    a, h = model.a_mat, model.h_mat
    ham = np.block([[-a, h @ h.T], [model.noise_cov, a.T]])
    steps = np.arange(1, PROPAGATOR_POWERS + 1)
    with np.errstate(all="ignore"):                   # the flow steps only with powers it trusts
        powers = expm(ham * (dt * steps)[:, None, None])
    return fractional_flow(powers, sigma0, n_steps)


def riccati_half_grid(model: LinearGaussianModel, sigma0: Array, n_steps: int, dt: float) -> Array:
    """Riccati solution sampled at half-step resolution, shape (2 n + 1, d, d)."""
    return _riccati_flow(model, sigma0, 2 * n_steps, dt / 2.0)


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
    """Kalman-Bucy filter: exact Riccati covariance (:func:`_riccati_flow`),
    mean by Euler in ``dZ``."""
    if obs.n_channels != model.n_channels:
        raise ValueError("observation channel count does not match the model")
    n, dt = obs.n_steps, obs.dt
    covs = _riccati_flow(model, model.cov0, n, dt)
    _check_psd(covs)
    means = _kalman_means(np.eye(model.dim) + model.a_mat * dt, model.h_mat, covs,
                          obs.increments, model.mean0, dt)
    return GaussianBeliefPath(dt=dt, means=means, covs=covs)


def _care(a: Array, h: Array, q: Array) -> Array:
    """Stabilizing solution of ``A^T S + S A + Q - S H H^T S = 0`` from the
    matrix sign function of its Hamiltonian (Byers 1987).

    ``W = sign(Ham)`` of ``Ham = [[A, -H H^T], [-Q, -A^T]]`` comes from
    Newton's iteration with determinant scaling.  ``W = -I`` on the stable
    invariant subspace of ``Ham``, which is the range of ``[I; S]`` for the
    stabilizing ``S``, so ``[W12; W22 + I] S = -[W11 + I; W21]``.  One Newton
    step on the residual (Kleinman 1968) then takes ``S`` to roundoff.
    Raises :class:`numpy.linalg.LinAlgError` when ``Ham`` is singular, when
    the iteration does not converge (eigenvalues on or near the imaginary
    axis), or when that system is rank-deficient (the stable subspace is not
    a graph).
    """
    d = a.shape[0]
    w = np.block([[a, -h @ h.T], [-q, -a.T]])
    for _ in range(SIGN_STEPS):
        sign, logdet = np.linalg.slogdet(w)
        if sign == 0:
            raise np.linalg.LinAlgError("singular Hamiltonian")
        c = math.exp(logdet / (2 * d))
        w, prev = 0.5 * (w / c + c * np.linalg.inv(w)), w
        if np.abs(w - prev).sum(axis=0).max() <= SIGN_TOL * np.abs(w).sum(axis=0).max():
            break
    else:
        raise np.linalg.LinAlgError("matrix sign iteration did not converge")
    eye = np.eye(d)
    s, _, rank, _ = np.linalg.lstsq(np.vstack([w[:d, d:], w[d:, d:] + eye]),
                                    -np.vstack([w[:d, :d] + eye, w[d:, :d]]), rcond=None)
    if rank < d:
        raise np.linalg.LinAlgError("stable subspace is not a graph")
    s = symmetrize(s)
    closed_t = (a - h @ h.T @ s).T
    lyapunov = np.kron(closed_t, eye) + np.kron(eye, closed_t)
    step = np.linalg.solve(lyapunov, -riccati_rhs(a, h, q, s).ravel())
    return symmetrize(s + step.reshape(d, d))


def solve_are(model: LinearGaussianModel) -> tuple[Array, bool]:
    """Stationary Riccati solution, the stabilizing solution of the
    continuous-time algebraic Riccati equation (CARE) from :func:`_care`.

    Solves ``A^T S + S A + sigma sigma^T - S H H^T S = 0`` and returns
    ``(sigma_inf, hurwitz)``, where the flag reports whether the closed-loop
    matrix ``A^T - sigma_inf H H^T`` has all eigenvalues in the open left
    half-plane.  Raises :class:`~dualfilter.models.NumericalFailure` when
    there is no finite stabilizing solution, which is the diagnostic for a
    model that is not stabilizable/detectable, or when the solution's
    residual exceeds ``ARE_RESIDUAL_TOL``.
    """
    a, h, q = model.a_mat, model.h_mat, model.noise_cov
    try:
        s = _care(a, h, q)
    except np.linalg.LinAlgError as exc:
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
    mu, _ = _scan(expm(rate.T * dt).T, np.zeros((n_steps, rate.shape[0])), mu0[:, None], shift=False)
    return mu[:, :, 0]


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
    est = _kalman_means(expm(model.rate.entries.T * dt).T, model.obs.entries, covs,
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
