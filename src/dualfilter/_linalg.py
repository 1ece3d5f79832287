"""Small linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .models import NumericalFailure

PROPAGATOR_POWERS = 64    # steps of a linear-fractional flow between restarts, at most
PROPAGATOR_GROWTH = 1e2   # largest norm of a power the flow steps with

# The diagonal Pade approximant of exp of degree 13: the largest 1-norm it
# takes in double precision, and its numerator coefficients (Higham 2005,
# Table 2.3), divided by the first, so that expm(0) = I exactly
THETA_13 = 5.371920351148152e0
PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))


def _pade(a: np.ndarray) -> np.ndarray:
    """Diagonal Pade approximant ``(V - U)^{-1} (V + U)`` of degree 13 of the
    exponential of each matrix of the stack ``a``, with ``U`` its odd and
    ``V`` its even part."""
    b = PADE_13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each of a stack (..., d, d).

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005),
    accurate to unit roundoff for a 1-norm up to ``THETA_13``: each matrix
    is scaled by its own power of two, ``2^-s`` with the least ``s >= 0``
    that brings its 1-norm within that bound, and its approximant squared
    ``s`` times.  A result past the float range comes out as inf/nan,
    without a warning; a non-finite input gives nan.
    """
    a = np.asarray(a, dtype=float)
    stack = a.reshape((-1,) + a.shape[-2:])
    out = np.full_like(stack, np.nan)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    sel = np.flatnonzero(np.isfinite(norms))
    squarings = np.zeros(len(stack), dtype=int)
    squarings[sel] = np.ceil(np.log2(np.maximum(norms[sel], THETA_13) / THETA_13))
    out[sel] = _pade(np.ldexp(stack[sel], -squarings[sel, None, None]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(squarings.max(initial=0)):
            sel = np.flatnonzero(squarings > j)
            out[sel] = out[sel] @ out[sel]
    return out.reshape(a.shape)


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


def _van_loan(x: np.ndarray, y: np.ndarray, z: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Blocks ``(E11, E12)`` of ``expm([[X, Y], [0, Z]] dt)``, which hold
    ``expm(X dt)`` and ``int_0^dt expm(X (dt - s)) Y expm(Z s) ds``
    (Van Loan 1978)."""
    d = x.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = x
    block[:d, d:] = y
    block[d:, d:] = z
    e = expm(block * dt)
    return e[:d, :d], e[:d, d:]


def van_loan_discretization(a_t: np.ndarray, q: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition ``F = expm(a_t dt)`` and process-noise
    covariance ``Qd = int_0^dt expm(a_t s) q expm(a_t s)^T ds``."""
    f, e12 = _van_loan(a_t, q, -a_t.T, dt)
    return f, symmetrize(e12 @ f.T)


def drift_step(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair ``(expm(a dt), int_0^dt expm(a s) ds)`` for stepping linear ODEs
    with piecewise-constant forcing."""
    return _van_loan(a, np.eye(a.shape[0]), np.zeros_like(a), dt)


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


def fractional_flow(powers: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """``n`` steps of a linear-fractional (Riccati) flow from the symmetric
    ``start``: ``Sigma = Y X^{-1}`` with ``[X; Y] = Phi^l [I; Sigma_s]``.

    ``powers`` stacks ``Phi^1 ... Phi^L``, the (2d, 2d) propagator of l
    steps.  A chunk of steps is one batched product and one batched solve;
    the next chunk restarts from its last ``Sigma``, which keeps ``X`` well
    conditioned (Kenney & Leipnik 1985).  A chunk ends before the first power
    whose norm exceeds ``PROPAGATOR_GROWTH``, since ``cond(X)`` grows with
    ``|Phi^l| |Phi^{-l}|``.  Returns all ``n + 1`` states, symmetrized; a
    non-finite or singular ``X`` raises :class:`NumericalFailure` at its
    first step.
    """
    d = start.shape[-1]
    with np.errstate(all="ignore"):                   # a non-finite norm ends the chunk
        norms = np.linalg.norm(powers, axis=(1, 2))
    chunk = max(1, int(np.cumprod(norms <= PROPAGATOR_GROWTH).sum()))
    out = np.empty((n + 1, d, d))
    out[0] = symmetrize(start)
    for b in range(0, n, chunk):
        c = min(chunk, n - b)
        xy = powers[:c, :, :d] + powers[:c, :, d:] @ out[b]
        x = xy[:, :d]
        with np.errstate(all="ignore"):
            ok = np.isfinite(x).all(axis=(1, 2)) & (np.linalg.det(x) != 0.0)
            if ok.all():                              # Sigma^T = X^{-T} Y^T
                sig = np.linalg.solve(x.swapaxes(1, 2), xy[:, d:].swapaxes(1, 2))
                ok = np.isfinite(sig).all(axis=(1, 2))
        if not ok.all():
            raise NumericalFailure("Riccati propagator singular", step=b + 1 + int(np.argmin(ok)))
        out[b + 1:b + c + 1] = symmetrize(sig)
    return out


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
