"""Small linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_transition_cache: dict[tuple[bytes, tuple[int, ...], float], np.ndarray] = {}


def cached_expm(a: np.ndarray, t: float) -> np.ndarray:
    """``expm(a * t)``, memoized; the same matrix is reused every filter step."""
    key = (a.tobytes(), a.shape, float(t))
    out = _transition_cache.get(key)
    if out is None:
        out = expm(np.asarray(a, dtype=float) * t)
        _transition_cache[key] = out
    return out


def orth_basis(vectors: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given column vectors.

    Singular values below ``rel_tol`` times the largest one are treated as
    zero.
    """
    m = np.atleast_2d(np.asarray(vectors, dtype=float))
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    r = int(np.sum(s > rel_tol * s[0]))
    return u[:, :r]


def numerical_rank(m: np.ndarray, threshold: float | None = None, rel_tol: float = 1e-9) -> int:
    """Number of singular values above ``threshold``; when it is None, above
    ``rel_tol`` times the largest singular value."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if threshold is None:
        threshold = rel_tol * s[0]
    return int(np.sum(s > threshold))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def van_loan_discretization(a_t: np.ndarray, q: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition ``F = expm(a_t dt)`` and process-noise
    covariance ``Qd = int_0^dt expm(a_t s) q expm(a_t s)^T ds``."""
    d = a_t.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = a_t
    block[:d, d:] = q
    block[d:, d:] = -a_t.T
    e = expm(block * dt)
    f = e[:d, :d]
    qd = e[:d, d:] @ f.T
    return f, symmetrize(qd)


def drift_step(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair ``(expm(a dt), int_0^dt expm(a s) ds)`` for stepping linear ODEs
    with piecewise-constant forcing."""
    d = a.shape[0]
    e_big = np.zeros((2 * d, 2 * d))
    e_big[:d, :d] = a
    e_big[:d, d:] = np.eye(d)
    e = expm(e_big * dt)
    return e[:d, :d], e[:d, d:]


def rk4(rhs, y0, n: int, h: float) -> np.ndarray:
    """``n`` classical Runge-Kutta steps of size ``h`` from ``y0`` (a negative
    ``h`` runs backward); returns all ``n + 1`` states.

    Step ``k`` calls ``rhs(y, k, s)`` with ``s = 0, 1, 1, 2`` at its start,
    its midpoint (twice) and its end: a coefficient held constant over the
    step reads ``c[k]``, one sampled on the half grid of the steps reads
    ``c[2 k + s]``.
    """
    ys = np.empty((n + 1,) + np.shape(y0))
    ys[0] = y = np.asarray(y0, dtype=float)
    for k in range(n):
        k1 = rhs(y, k, 0)
        k2 = rhs(y + 0.5 * h * k1, k, 1)
        k3 = rhs(y + 0.5 * h * k2, k, 1)
        k4 = rhs(y + h * k3, k, 2)
        ys[k + 1] = y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ys


def affine_scan(m, b, x0) -> np.ndarray:
    """States of ``x_{k+1} = x_k @ m_k + b[k]`` from ``x0``, in row form.

    ``m`` is one (d, d) matrix for every step or a stack (n, d, d) of one
    per step; ``b`` has ``n`` rows of the shape of ``x0``, which may carry
    leading batch axes.  Returns all ``n + 1`` states, shape (n + 1,) + x0.shape.
    """
    b = np.asarray(b, dtype=float)
    m = np.broadcast_to(m, (b.shape[0],) + np.shape(m)[-2:])
    xs = np.empty((b.shape[0] + 1,) + np.shape(x0))
    xs[0] = x = np.asarray(x0, dtype=float)
    for k in range(b.shape[0]):
        xs[k + 1] = x = x @ m[k] + b[k]
    return xs


def simpson(start: np.ndarray, mid: np.ndarray, end: np.ndarray, h: float) -> float:
    """Composite Simpson rule from per-step values of the integrand at each
    step's start, midpoint and end; ``h`` is the step length."""
    return float(h / 6.0 * np.sum(start + 4.0 * mid + end))
