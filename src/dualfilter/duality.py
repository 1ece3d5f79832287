"""Dual control system of a hidden Markov model and its controllability tests.

Observability of the model ``(A, h)`` is equivalent to controllability of a
backward stochastic control system driven by the observations.  Everything
here works on the function side of that duality:

* :func:`controllable_subspace` closes ``span{1}`` under ``f -> A f`` and the
  pointwise products ``f -> H^j . f``; its dimension decides observability,
  and its orthogonal complement consists of the unobservable zero-mass
  measure directions.
* :func:`gramian_mc` estimates the controllability gramian
  ``11^T + E int Psi^T H H^T Psi dt`` under the reference measure; its rank
  matches the closure dimension.  The Zakai operators ``Psi`` of all paths
  run through the filters' forward kernel and are summed as they go, never
  stored.
* :func:`duality_check_mc` verifies, by simulation, that the quadratic
  control cost of a deterministic input equals the mean-squared error of the
  estimator it induces.
* :func:`bsde_tree_oracle` replaces the Brownian increments by binary signs
  and solves the resulting finite dual system exactly, reproducing the
  enumerated conditional mean leaf by leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._linalg import affine_scan, drift_step, expm, numerical_rank, orth_basis, rk4, simpson
from .filters import chain_riccati, forward_blocks, prior_flow, riccati_half_grid, riccati_rhs
from .models import HmmModel, LinearGaussianModel, as_simplex
from .sim import batch_hmm_observations, n_steps_for

Array = NDArray[np.float64]

RANK_REL_TOL = 1e-9
CONTAINMENT_TOL = 1e-8


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis (columns) of a subspace of d-dimensional functions."""

    basis: Array
    tol: float = RANK_REL_TOL

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.shape[1] > 0:
            gram = b.T @ b
            if np.abs(gram - np.eye(b.shape[1])).max() > 1e-10:
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, f: Array) -> Array:
        return self.basis @ (self.basis.T @ f)

    def residual(self, f: Array) -> float:
        """Norm of the component of ``f`` outside the subspace."""
        return float(np.linalg.norm(f - self.project(f)))

    def complement(self) -> "Subspace":
        d, r = self.basis.shape
        if r == 0:
            return Subspace(np.eye(d), self.tol)
        u, s, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(u[:, r:], self.tol)


@dataclass(frozen=True)
class GramianEstimate:
    """Monte-Carlo estimate of the controllability gramian."""

    mean: Array
    stderr: Array
    n_paths: int

    def rank(self, threshold: float | None = None, rel_tol: float = RANK_REL_TOL) -> int:
        """Numerical rank of the mean.

        Counts singular values above the absolute ``threshold`` when one is
        given, and otherwise above ``rel_tol`` times the largest one.  The
        relative cutoff is exact up to roundoff: every path sample is ``11^T``
        plus a sum of positive semidefinite terms, so a direction annihilated
        by the sample mean is annihilated by every sample.  The mean's null
        space is the intersection of the samples' null spaces, which is the
        set of unobservable directions almost surely; a cutoff scaled by the
        Monte-Carlo standard error would instead discard small but real
        singular values.
        """
        return numerical_rank(self.mean, threshold, rel_tol)


@dataclass(frozen=True)
class DualTrajectory:
    """Grid path of the dual variables: function ``y``, martingale gains ``v``,
    control ``u``.  For deterministic controls ``v`` is identically zero."""

    dt: float
    y: Array  # (n + 1, d)
    v: Array  # (n + 1, d, m)
    u: Array  # (n, m)

    def __post_init__(self):
        if self.y.shape[0] != self.v.shape[0] or self.u.shape[0] != self.y.shape[0] - 1:
            raise ValueError("dual trajectory grids are not aligned")

    @property
    def terminal(self) -> Array:
        return self.y[-1]


def controllable_subspace(model: HmmModel, tol: float = RANK_REL_TOL) -> Subspace:
    """Smallest subspace containing the constants and closed under the
    generator and pointwise multiplication by each observation column.

    Breadth-first closure with an SVD re-orthonormalization after each pass;
    the singular-value cutoff is ``tol`` relative to the largest singular
    value.  Terminates in at most ``d`` passes since the dimension grows by
    at least one per pass until it stabilizes.
    """
    d = model.dim
    a = model.rate.entries
    h = model.obs.entries
    basis = orth_basis(np.ones((d, 1)), tol)
    for _ in range(d + 1):
        generated = [basis]
        generated.append(a @ basis)
        for j in range(h.shape[1]):
            generated.append(h[:, j][:, None] * basis)
        new_basis = orth_basis(np.hstack(generated), tol)
        if new_basis.shape[1] == basis.shape[1]:
            return Subspace(new_basis, tol)
        basis = new_basis
    return Subspace(basis, tol)


def is_observable(model: HmmModel, tol: float = RANK_REL_TOL) -> tuple[bool, Subspace]:
    """Observability test with certificate.

    Returns ``(flag, certificate)``: the model is observable iff the
    controllable subspace is full, and the certificate is the orthonormal
    basis of its orthogonal complement (the unobservable measure directions,
    all of zero total mass).  The certificate is empty when observable.
    """
    c = controllable_subspace(model, tol)
    complement = c.complement()
    return c.dim == model.dim, complement


def is_stabilizable(model: HmmModel, tol: float = RANK_REL_TOL) -> tuple[bool, dict]:
    """Stabilizability test: the null space of the generator must lie in the
    controllable subspace.

    The certificate reports the null-space basis and the projection residual
    of each null vector onto the controllable subspace.
    """
    c = controllable_subspace(model, tol)
    a = model.rate.entries
    u, s, vt = np.linalg.svd(a)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    null_basis = vt[s <= cutoff].T if np.any(s <= cutoff) else vt[a.shape[0]:].T
    if null_basis.size == 0:
        # rate matrices always annihilate constants; guard against cutoff misses
        null_basis = np.ones((model.dim, 1)) / np.sqrt(model.dim)
    residuals = np.array([c.residual(null_basis[:, k]) for k in range(null_basis.shape[1])])
    ok = bool(np.all(residuals <= CONTAINMENT_TOL))
    cert = {"null_basis": null_basis, "residuals": residuals, "subspace": c}
    return ok, cert


def lti_controllability(a_mat, h_mat, tol: float = RANK_REL_TOL) -> Subspace:
    """Krylov controllable subspace ``span{H, AH, ..., A^{d-1} H}`` of an LTI pair."""
    a = np.atleast_2d(np.asarray(a_mat, dtype=float))
    h = np.asarray(h_mat, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    d = a.shape[0]
    blocks = [h]
    for _ in range(d - 1):
        blocks.append(a @ blocks[-1])
    return Subspace(orth_basis(np.hstack(blocks), tol), tol)


def gramian_mc(model: HmmModel, horizon: float, dt: float, n_paths: int, seed) -> GramianEstimate:
    """Monte-Carlo controllability gramian.

    Observations are simulated under the reference measure (pure Brownian
    motion); each path accumulates
    ``11^T + sum_k Psi_k^T H H^T Psi_k dt`` with the Zakai solution operator
    from the shared splitting scheme.  The operators of all paths come from
    :func:`~dualfilter.filters.forward_blocks` from ``I``, and each 16-step
    block's terms are summed before the next one is formed, so memory is
    O(paths d^2) beside the increments and one block (17, d, d, paths),
    reduced with one ``H^T Psi`` product and sums along the path axis.
    Returns the sample mean and the entrywise standard error; a column whose
    mass underflows (see :class:`~dualfilter.filters.ZakaiOperatorPath`)
    raises :class:`~dualfilter.models.NumericalFailure` naming its step and
    path.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    h = model.obs.entries
    d, m = h.shape
    _, incs = batch_hmm_observations(model, horizon, dt, n_paths, seed, measure="P_tilde")
    samples = np.ones((d, d, n_paths))                # path axis last, as the stream's
    for rows, logs in forward_blocks(model, np.eye(d), incs, dt, shift=True):  # left points
        g = (h.T @ rows[:-1].reshape(-1, d, d * n_paths)).reshape(-1, m, d, n_paths)
        g *= np.exp(logs[:-1, None])                  # (H^T Psi_k)[:, j] of each path p
        samples += dt * np.einsum("kmip,kmjp->ijp", g, g)
        del rows, logs                                # free this block before the next is formed
    mean = samples.mean(axis=2)
    stderr = samples.std(axis=2, ddof=1) / np.sqrt(n_paths)
    return GramianEstimate(mean=mean, stderr=stderr, n_paths=n_paths)


# -- deterministic-control duality --------------------------------------------

def backward_dual_ode(model: HmmModel, f, u: Array, dt: float) -> Array:
    """Solve ``-dy/dt = A y + H u`` backward from ``y(T) = f``.

    ``u`` is piecewise constant on the grid (one row per step); each step is
    integrated exactly with the matrix exponential, so the only error in the
    dual trajectory is roundoff.  Returns ``y`` at all grid points.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    f_step, f_int = drift_step(model.rate.entries, dt)
    # step k's forcing f_int @ (h @ u[k]), one matrix-vector product per step as a stack
    forcing = (f_int @ (model.obs.entries @ u[:, :, None]))[:, :, 0]
    return affine_scan(f_step.T, forcing[::-1], np.asarray(f, dtype=float))[::-1]


def deterministic_dual_trajectory(model: HmmModel, f, u: Array, dt: float) -> DualTrajectory:
    """Dual trajectory of a deterministic control: ``y`` from the backward
    ODE, zero martingale gains, the control itself."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    y = backward_dual_ode(model, f, u, dt)
    v = np.zeros((y.shape[0], model.dim, u.shape[1]))
    traj = DualTrajectory(dt=dt, y=y, v=v, u=u)
    if np.abs(traj.terminal - np.asarray(f, dtype=float)).max() > 1e-12:
        raise ValueError("terminal condition mismatch")
    return traj


def dual_cost_deterministic(model: HmmModel, f, u: Array, dt: float, prior=None) -> float:
    """Quadratic dual cost of a deterministic control.

    ``J(u) = Var_mu(y_0(X_0)) + int mu_t(Gamma y_t) + |u_t|^2 dt`` with the
    exact marginal flow ``mu_t = expm(A^T t) mu`` and Simpson quadrature on
    each step (half-grid values of ``y`` and ``mu`` are exact up to the
    matrix exponential).
    """
    prior = as_simplex(model.prior if prior is None else prior)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n = u.shape[0]
    a = model.rate.entries
    y_half = backward_dual_ode(model, f, np.repeat(u, 2, axis=0), dt / 2.0)
    mu = prior_flow(a, prior.entries, 2 * n, dt / 2.0)
    y0 = y_half[0]
    cost = float(mu[0] @ (y0**2) - (mu[0] @ y0) ** 2)
    gamma = np.einsum("ij,kij->ki", a, (y_half[:, :, None] - y_half[:, None, :]) ** 2)
    vals = np.einsum("ki,ki->k", mu, gamma)
    return cost + simpson(vals[:-1:2], vals[1::2], vals[2::2], dt) + float(np.sum(u * u)) * dt


def duality_check_mc(
    model: HmmModel,
    u: Array,
    f,
    n_paths: int,
    seed,
    dt: float,
    horizon: float | None = None,
    constant: float | None = None,
    prior=None,
) -> tuple[float, float, float]:
    """Dual cost versus Monte-Carlo mean-squared error of the induced estimator.

    The estimator for a deterministic control is
    ``S_T = mu(y_0) - sum_k u_k^T dZ_k``; passing a different ``constant``
    replaces ``mu(y_0)`` and shifts the error by the squared bias.  Returns
    ``(j_value, mse_estimate, stderr)``.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n = u.shape[0]
    if horizon is None:
        horizon = n * dt
    if n_steps_for(horizon, dt) != n:
        raise ValueError("control path length does not match horizon/dt")
    prior_s = as_simplex(model.prior if prior is None else prior)
    work = model.with_prior(prior_s)
    f = np.asarray(f, dtype=float)
    traj = deterministic_dual_trajectory(model, f, u, dt)
    j_value = dual_cost_deterministic(model, f, u, dt, prior=prior_s)
    b = float(prior_s.entries @ traj.y[0]) if constant is None else float(constant)
    paths, incs = batch_hmm_observations(work, horizon, dt, n_paths, seed, measure="P")
    stoch = np.einsum("pkm,km->p", incs, u)
    err2 = (f[paths.terminal()] - (b - stoch)) ** 2
    mse = float(err2.mean())
    stderr = float(err2.std(ddof=1) / np.sqrt(n_paths))
    return j_value, mse, stderr


def _closed_loop_backward(a: Array, h: Array, weight: Array, sig_half: Array, f,
                          dt: float) -> tuple[float, Array, Array, Array]:
    """Backward half of a dual LQ problem, shared by the linear-Gaussian and
    the chain versions.

    ``sig_half`` is the forward Riccati flow on the half grid (2 n + 1
    points) and ``weight`` its running weight on the quarter grid.  The
    closed loop ``-dy/dt = (A - H H^T Sigma) y`` runs backward from
    ``y(T) = f`` as ``y_j = y_{j+1} M_j`` (row form): one RK4 half step back
    from every forward node at once, on ``[Sigma; I]``, gives all ``M_j``,
    so ``Sigma`` never runs backward, where its flow is unstable.
    Returns ``(cost, u, y, Sigma)`` on the step grid, with
    ``u = -H^T Sigma y`` and ``cost = y_0^T Sigma_0 y_0 + int |u|^2 + y^T Q y dt``
    by Simpson's rule on the half grid.
    """
    n2, d = sig_half.shape[0] - 1, a.shape[0]
    # stage s of the half step back from node j + 1 reads quarter node 2 j + 2 - s
    stage_weight = (weight[2::2], weight[1::2], weight[:-1:2])

    def rhs(v: Array, k: int, s: int) -> Array:
        sig, ys = v[:, :d], v[:, d:]
        return np.concatenate((riccati_rhs(a, h, stage_weight[s], sig),
                               ys @ sig @ h @ h.T - ys @ a.T), axis=1)

    maps = rk4(rhs, np.concatenate((sig_half[1:], np.broadcast_to(np.eye(d), (n2, d, d))), axis=1),
               1, -dt / 2.0)[1, ::-1, d:]
    y = affine_scan(maps, np.zeros((n2, d)), f)[::-1]
    u = -np.einsum("km,jkl,jl->jm", h, sig_half, y)
    integrand = np.einsum("jm,jm->j", u, u) + np.einsum("jk,jkl,jl->j", y, weight[::2], y)
    cost = float(y[0] @ sig_half[0] @ y[0])
    cost += simpson(integrand[:-1:2], integrand[1::2], integrand[2::2], dt)
    return cost, u[::2], y[::2], sig_half[::2]


def dual_lq_linear_gaussian(model: LinearGaussianModel, f, horizon: float, dt: float = 1e-3):
    """Minimum-variance dual LQ problem for the linear-Gaussian model.

    Integrates the Riccati flow forward, closes the loop with
    ``u_t = -H^T Sigma_t y_t`` and integrates ``-dy/dt = (A - H H^T Sigma) y``
    backward from ``y(T) = f``.  Returns ``(cost, u path, y path, sigma
    path)`` on the step grid, like :func:`dual_deterministic_markov`, where
    the cost is ``y_0^T Sigma_0 y_0 + int |u|^2 + y^T Q y dt`` by per-step
    Simpson quadrature; it reproduces ``f^T Sigma_T f`` up to integration
    error.
    """
    n = n_steps_for(horizon, dt)
    weight = np.broadcast_to(model.noise_cov, (4 * n + 1, model.dim, model.dim))
    return _closed_loop_backward(model.a_mat, model.h_mat, weight,
                                 riccati_half_grid(model, model.cov0, n, dt), f, dt)


def dual_deterministic_markov(model: HmmModel, f, horizon: float, dt: float = 1e-3):
    """Deterministic-control dual LQ problem for a finite chain.

    The running weight is the prior-flow average of the carre du champ
    matrices (:func:`~dualfilter.filters.chain_riccati`).  Returns ``(cost,
    u path, y path, sigma_bar path)`` with ``u_t = -H^T sigma_bar_t y_t``;
    the cost matches the Riccati bookkeeping value ``f^T sigma_bar_T f``.
    """
    n = n_steps_for(horizon, dt)
    sig_half, weight = chain_riccati(model, 2 * n, dt / 2.0)
    return _closed_loop_backward(model.rate.entries, model.obs.entries, weight, sig_half, f, dt)


# -- binary-tree oracle for the stochastic dual system ------------------------

MAX_TREE_OUTCOMES = 2_000_000


@dataclass(frozen=True)
class TreeOracleResult:
    optimal_cost: float
    estimator_residual: float
    filter_gap: float          # recursive vs enumerated posterior, max over leaves
    max_control: float         # largest |U| over tree nodes
    terminal_posteriors: Array # (2^n_steps, d); leaf bit 0 means the + sign


def bsde_tree_oracle(model: HmmModel, f, n_steps: int, dt: float = 0.1) -> TreeOracleResult:
    """Exact solve of the dual system on a binary-noise tree.

    Each Brownian increment is replaced by ``+-sqrt(dt)``; the observation
    channel of the induced discrete model emits sign ``s`` from state ``j``
    with probability ``exp(h_j s) / (2 cosh(h_j sqrt(dt)))``.  All
    ``(state path, sign path)`` outcomes are enumerated with exact
    probabilities, and the backward recursion for ``(Y, V, U)`` uses exact
    two-point conditional expectations with the covariance feedback law
    ``U = -(p(h Y) - p(h) c) - p(V)`` evaluated at the one-step predicted
    distribution.  Reports the largest gap ``|S_N - pi_N(f)|`` between the
    recursion's estimator and the enumerated conditional mean over all tree
    leaves; for a correct implementation this is roundoff.
    """
    if model.n_channels != 1:
        raise ValueError("the tree oracle is defined for a single observation channel")
    if n_steps < 1 or n_steps > 12:
        raise ValueError("n_steps must be between 1 and 12")
    d = model.dim
    if (d ** (n_steps + 1)) * (2**n_steps) > MAX_TREE_OUTCOMES:
        raise ValueError("tree too large to enumerate")
    f = np.asarray(f, dtype=float)
    a = model.rate.entries
    h = model.obs.entries[:, 0]
    mu = model.prior.entries
    trans = expm(a * dt)                  # row-stochastic one-step transition
    sq = np.sqrt(dt)
    beta = np.tanh(h * sq) / (2.0 * sq)   # sign channel: rho(s|j) = 1/2 + beta_j s
    h_eff = 2.0 * beta

    n_leaves = 2**n_steps
    sign_values = np.array([sq, -sq])

    # forward: posterior at every tree node; children of node i at level k
    # are (2i, 2i+1) at level k+1
    posteriors: list[Array] = [np.empty((2**k, d)) for k in range(n_steps + 1)]
    posteriors[0][0] = mu
    for k in range(n_steps):
        pred = posteriors[k] @ trans
        for i in range(2**k):
            for s_idx, s in enumerate(sign_values):
                post = (0.5 + beta * s) * pred[i]
                posteriors[k + 1][2 * i + s_idx] = post / post.sum()

    # backward: exact dual recursion
    y_level = np.broadcast_to(f, (n_leaves, d)).copy()
    controls: list[Array] = [np.empty(2**k) for k in range(n_steps)]
    node_values: list[Array] = [np.empty(2**k) for k in range(n_steps + 1)]
    node_values[n_steps] = posteriors[n_steps] @ f
    for k in range(n_steps - 1, -1, -1):
        y_next = np.empty((2**k, d))
        for i in range(2**k):
            y_plus, y_minus = y_level[2 * i], y_level[2 * i + 1]
            v = (y_plus - y_minus) / (2.0 * sq)
            y_bar = 0.5 * (y_plus + y_minus)
            pred = trans.T @ posteriors[k][i]
            beta_bar = beta @ pred
            n0 = 0.5 * (pred @ y_bar) + dt * ((beta * pred) @ v)
            n1 = (beta * pred) @ y_bar + 0.5 * (pred @ v)
            c = (n0 - 2.0 * dt * beta_bar * n1) / (0.5 - 2.0 * dt * beta_bar**2)
            u = -((h_eff * pred) @ y_bar - (h_eff @ pred) * c) - pred @ v
            y = y_bar + dt * (a @ y_bar + h * u + h * v)
            y += c - posteriors[k][i] @ y                 # constants carry no information
            y_next[i] = y
            controls[k][i] = u
            node_values[k][i] = c
        y_level = y_next

    filter_gap, residual, cost = _tree_enumeration(model, f, n_steps, trans, beta, posteriors,
                                                   controls, node_values, sign_values)
    max_u = max(float(np.abs(c).max()) for c in controls)
    return TreeOracleResult(optimal_cost=cost, estimator_residual=float(residual),
                            filter_gap=float(filter_gap), max_control=max_u,
                            terminal_posteriors=posteriors[n_steps])


def _tree_enumeration(model, f, n_steps, trans, beta, posteriors, controls, node_values,
                      sign_values):
    """Brute-force joint enumeration over (state path, sign path).

    One walk over the leaves forms the recursion's estimator ``S_N`` along
    each leaf's sign path.  Returns the largest gap between the enumerated
    and the recursive posterior (an independent check of the filter), the
    largest gap ``|S_N - pi_N(f)|`` (the estimator residual) and the exact
    optimal cost ``E (f(X_N) - S_N)^2``.
    """
    d = model.dim
    mu = model.prior.entries
    state_paths = np.array(list(np.ndindex(*((d,) * (n_steps + 1)))))
    base_w = mu[state_paths[:, 0]].copy()
    for k in range(1, n_steps + 1):
        base_w *= trans[state_paths[:, k - 1], state_paths[:, k]]
    filter_gap = residual = cost = 0.0
    for leaf in range(2**n_steps):
        w = base_w.copy()
        s_val = node_values[0][0]
        node = 0
        for k in range(n_steps):
            s_idx = (leaf >> (n_steps - 1 - k)) & 1
            s = sign_values[s_idx]
            w *= 0.5 + beta[state_paths[:, k + 1]] * s
            s_val -= controls[k][node] * s
            node = 2 * node + s_idx
        p_leaf = w.sum()
        post = np.zeros(d)
        np.add.at(post, state_paths[:, n_steps], w)
        post_n = post / p_leaf
        filter_gap = max(filter_gap, np.abs(post_n - posteriors[n_steps][node]).max())
        residual = max(residual, abs(s_val - node_values[n_steps][node]))
        fx = f[state_paths[:, n_steps]]
        cost += float(((fx - s_val) ** 2 * w).sum())
    return filter_gap, residual, cost
