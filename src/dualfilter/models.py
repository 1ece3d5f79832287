"""Model objects for continuous-time filtering problems.

Two families are supported:

* finite-state hidden Markov models :class:`HmmModel`, defined by a rate
  matrix ``A`` (generator of a continuous-time Markov chain on ``d`` states),
  an observation matrix ``H`` whose row ``i`` is the observation drift
  ``h(i)`` of state ``i``, and a prior on the probability simplex;
* linear-Gaussian state-space models :class:`LinearGaussianModel` with state
  drift ``A^T x``, diffusion ``sigma`` and observation drift ``H^T x``.

All containers are frozen dataclasses holding read-only numpy arrays, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

Array = NDArray[np.float64]

ROW_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-12
RATE_EPS = 1e-12          # edge threshold for the communication digraph
INVARIANT_TOL = 1e-10


class NumericalFailure(RuntimeError):
    """Raised when an iteration loses the invariants it needs to continue.

    Carries the step index at which the failure was detected, when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


def _readonly(a: np.ndarray) -> Array:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RateMatrix:
    """Generator of a continuous-time Markov chain on ``d`` states.

    Off-diagonal entries are jump rates (1/time) and must be nonnegative;
    every row sums to zero.
    """

    entries: Array

    def __post_init__(self):
        a = _readonly(np.atleast_2d(self.entries))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise ValueError(f"rate matrix must be square with d >= 2, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("rate matrix has non-finite entries")
        off = a - np.diag(np.diag(a))
        if off.min() < -ROW_SUM_TOL:
            i, j = np.unravel_index(np.argmin(off), off.shape)
            raise ValueError(f"negative off-diagonal rate at ({i},{j}): {a[i, j]}")
        rs = np.abs(a.sum(axis=1))
        if rs.max() > ROW_SUM_TOL:
            raise ValueError(f"row {int(np.argmax(rs))} sums to {a.sum(axis=1)[np.argmax(rs)]:g}, not 0")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ObservationMatrix:
    """d x m observation function; row ``i`` is the drift ``h(i)``."""

    entries: Array

    def __post_init__(self):
        h = np.asarray(self.entries, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.ndim != 2 or h.shape[1] < 1:
            raise ValueError(f"observation matrix must be d x m with m >= 1, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("observation matrix has non-finite entries")
        object.__setattr__(self, "entries", _readonly(h))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_channels(self) -> int:
        return self.entries.shape[1]

    def column(self, j: int) -> Array:
        return self.entries[:, j]


@dataclass(frozen=True)
class SimplexVector:
    """Probability vector on ``d`` states."""

    entries: Array

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float).ravel()
        if p.min() < -SIMPLEX_TOL:
            raise ValueError(f"entry {int(np.argmin(p))} is negative: {p.min():g}")
        if abs(p.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"entries sum to {p.sum():.17g}, not 1")
        object.__setattr__(self, "entries", _readonly(np.clip(p, 0.0, None)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class HmmModel:
    """Finite-state white-noise observation model ``(A, h)`` with a prior."""

    rate: RateMatrix
    obs: ObservationMatrix
    prior: SimplexVector

    def __post_init__(self):
        d = self.rate.dim
        if self.obs.dim != d or self.prior.dim != d:
            raise ValueError(
                f"dimension mismatch: rate d={d}, obs d={self.obs.dim}, prior d={self.prior.dim}"
            )

    @property
    def dim(self) -> int:
        return self.rate.dim

    @property
    def n_channels(self) -> int:
        return self.obs.n_channels

    def with_prior(self, prior) -> "HmmModel":
        return HmmModel(self.rate, self.obs, as_simplex(prior))

    def with_obs_scale(self, scale: float) -> "HmmModel":
        """Same chain with the observation drift multiplied by ``scale``."""
        return HmmModel(self.rate, ObservationMatrix(self.obs.entries * scale), self.prior)


@dataclass(frozen=True)
class LinearGaussianModel:
    """Linear SDE ``dX = A^T X dt + sigma dB`` observed via ``dZ = H^T X dt + dW``."""

    a_mat: Array
    h_mat: Array
    sigma: Array
    mean0: Array
    cov0: Array

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        d = a.shape[0]
        if a.shape != (d, d):
            raise ValueError(f"a_mat must be square, got {a.shape}")
        h = np.asarray(self.h_mat, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        s = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        m0 = np.asarray(self.mean0, dtype=float).ravel()
        c0 = np.atleast_2d(np.asarray(self.cov0, dtype=float))
        if h.shape[0] != d or s.shape[0] != d or m0.shape[0] != d or c0.shape != (d, d):
            raise ValueError("inconsistent dimensions across a_mat, h_mat, sigma, mean0, cov0")
        if np.abs(c0 - c0.T).max() > 1e-12:
            raise ValueError("cov0 is not symmetric")
        if np.linalg.eigvalsh((c0 + c0.T) / 2).min() < -1e-10:
            raise ValueError("cov0 is not positive semidefinite")
        for name, arr in (("a_mat", a), ("h_mat", h), ("sigma", s), ("mean0", m0), ("cov0", c0)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def dim(self) -> int:
        return self.a_mat.shape[0]

    @property
    def n_channels(self) -> int:
        return self.h_mat.shape[1]

    @property
    def noise_cov(self) -> Array:
        """Process noise covariance ``sigma sigma^T``."""
        return self.sigma @ self.sigma.T


@dataclass(frozen=True)
class CarreDuChamp:
    """State-indexed quadratic forms ``Q(i)`` of the carre du champ operator.

    ``(Gamma f)(i) = f^T Q(i) f`` for every function ``f``.
    """

    q_of: Array  # shape (d, d, d); q_of[i] is Q(i)

    @property
    def dim(self) -> int:
        return self.q_of.shape[0]

    def __call__(self, f) -> Array:
        f = np.asarray(f, dtype=float)
        return np.einsum("ijk,j,k->i", self.q_of, f, f)


def as_simplex(p) -> SimplexVector:
    return p if isinstance(p, SimplexVector) else SimplexVector(np.asarray(p, dtype=float))


def q_matrices(rate: RateMatrix) -> CarreDuChamp:
    """Matrices ``Q(i) = sum_j A(i,j)(e_i - e_j)(e_i - e_j)^T``."""
    a = rate.entries
    d = rate.dim
    q = np.zeros((d, d, d))
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            v = eye[i] - eye[j]
            q[i] += a[i, j] * np.outer(v, v)
    return CarreDuChamp(q_of=_readonly(q))


def carre_du_champ(model: HmmModel, f) -> Array:
    """Pointwise fluctuation energy ``(Gamma f)(i) = sum_j A(i,j)(f(i)-f(j))^2``."""
    f = np.asarray(f, dtype=float).ravel()
    a = model.rate.entries
    if f.shape[0] != model.dim:
        raise ValueError(f"f has length {f.shape[0]}, model has {model.dim} states")
    if not np.all(np.isfinite(f)):
        raise ValueError("f has non-finite entries")
    diff = f[:, None] - f[None, :]
    return np.einsum("ij,ij->i", a, diff**2)


def ergodic_classes(rate: RateMatrix) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Closed communicating classes of the chain and the transient states.

    A class is a strongly connected component of the digraph
    ``{(i, j): A(i, j) > 1e-12}``; it is closed (ergodic) when no state in it
    has positive rate out of it.  Returns ``(classes, transient)``; the
    classes and the transient set partition ``{0, .., d-1}``.
    """
    a = rate.entries
    d = rate.dim
    adj = csr_matrix((a > RATE_EPS).astype(np.int8))
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    members = [np.nonzero(labels == c)[0] for c in range(n_comp)]
    closed: list[frozenset[int]] = []
    transient: set[int] = set()
    for idx in members:
        outside = np.setdiff1d(np.arange(d), idx)
        leak = a[np.ix_(idx, outside)].max(initial=0.0)
        if leak > RATE_EPS:
            transient.update(int(i) for i in idx)
        else:
            closed.append(frozenset(int(i) for i in idx))
    closed.sort(key=min)
    return closed, frozenset(transient)


def invariant_measure(rate: RateMatrix, cls: Sequence[int] | frozenset[int] | None = None) -> SimplexVector:
    """Unique invariant measure supported on a closed communicating class.

    Solves ``mu^T A = 0`` restricted to the class by least squares with the
    normalization appended, which stays well conditioned for nearly
    reducible chains.  ``cls=None`` uses the whole state space (the chain
    must then be a single closed class).
    """
    d = rate.dim
    idx = np.arange(d) if cls is None else np.array(sorted(cls), dtype=int)
    classes, _ = ergodic_classes(rate)
    if frozenset(int(i) for i in idx) not in [frozenset(c) for c in classes]:
        raise ValueError(f"{sorted(int(i) for i in idx)} is not a closed communicating class")
    sub = rate.entries[np.ix_(idx, idx)]
    k = len(idx)
    system = np.vstack([sub.T, np.ones((1, k))])
    target = np.zeros(k + 1)
    target[-1] = 1.0
    bary, *_ = np.linalg.lstsq(system, target, rcond=None)
    mu = np.zeros(d)
    mu[idx] = np.clip(bary, 0.0, None)
    mu /= mu.sum()
    if np.abs(rate.entries.T @ mu).max() > INVARIANT_TOL:
        raise NumericalFailure("invariant measure residual exceeds 1e-10")
    return SimplexVector(mu)


# -- structured-text loading -------------------------------------------------

def _rect(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{name} must be a non-empty array of arrays")
    if all(isinstance(r, (int, float)) for r in rows):
        return np.asarray(rows, dtype=float)
    widths = {len(r) if isinstance(r, list) else -1 for r in rows}
    if -1 in widths or len(widths) != 1:
        raise ValueError(f"{name} is ragged or mixes scalars and rows")
    return np.asarray(rows, dtype=float)


def model_from_dict(doc: dict) -> HmmModel | LinearGaussianModel:
    """Build a model from a parsed JSON document.

    Finite-state models carry ``rate``, ``obs`` and ``prior``;
    linear-Gaussian models carry ``a_mat``, ``h_mat``, ``sigma``, ``mean0``
    and ``cov0``.  Ragged arrays are rejected.
    """
    if "rate" in doc:
        return HmmModel(
            rate=RateMatrix(_rect(doc["rate"], "rate")),
            obs=ObservationMatrix(_rect(doc["obs"], "obs")),
            prior=SimplexVector(_rect(doc["prior"], "prior")),
        )
    if "a_mat" in doc:
        return LinearGaussianModel(
            a_mat=_rect(doc["a_mat"], "a_mat"),
            h_mat=_rect(doc["h_mat"], "h_mat"),
            sigma=_rect(doc["sigma"], "sigma"),
            mean0=_rect(doc["mean0"], "mean0"),
            cov0=_rect(doc["cov0"], "cov0"),
        )
    raise ValueError("document defines neither 'rate' (finite-state) nor 'a_mat' (linear-Gaussian)")


def model_from_json(text: str) -> HmmModel | LinearGaussianModel:
    return model_from_dict(json.loads(text))
