"""Small linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .models import NumericalFailure

PROPAGATOR_POWERS = 64    # steps of a linear-fractional flow between restarts, at most
PROPAGATOR_GROWTH = 1e2   # largest norm of a power the flow steps with

# Diagonal Pade approximants of exp: degree m, the largest 1-norm it takes in
# double precision, and the numerator coefficients (Higham 2005, Table 2.3)
PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
                               56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                               1187353796428800.0, 129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                               960960.0, 16380.0, 182.0, 1.0)),
)


def _pade(a: np.ndarray, b: tuple) -> np.ndarray:
    """Diagonal Pade approximant ``(V - U)^{-1} (V + U)`` of the exponential
    of each matrix of the stack ``a``, of degree ``m = len(b) - 1``, with
    ``U`` its odd and ``V`` its even part."""
    m = len(b) - 1
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    else:
        even = [eye, a2]                  # A^0, A^2, ..., A^(m - 1)
        while len(even) < (m + 1) // 2:
            even.append(even[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
        v = sum(b[2 * k] * p for k, p in enumerate(even))
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each of a stack (..., d, d).

    Scaling and squaring (Higham 2005): the 1-norm of each matrix picks the
    lowest Pade degree of 3, 5, 7, 9 or 13 that is accurate to unit
    roundoff, and a matrix past degree 13's bound is scaled by its own power
    of two, ``2^-s``, so that it fits, and its approximant squared ``s``
    times.  A result past the float range comes out as inf/nan, without a
    warning; a non-finite input gives nan.
    """
    a = np.asarray(a, dtype=float)
    stack = a.reshape((-1,) + a.shape[-2:])
    out = np.full_like(stack, np.nan)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    degree = np.where(np.isfinite(norms), np.searchsorted([t for _, t, _ in PADE], norms), -1)
    squarings = np.zeros(len(stack), dtype=int)
    past = degree == len(PADE)
    squarings[past] = np.ceil(np.log2(norms[past] / PADE[-1][1]))
    degree[past] = len(PADE) - 1
    for i, (_, _, b) in enumerate(PADE):
        sel = np.flatnonzero(degree == i)
        if sel.size:
            out[sel] = _pade(np.ldexp(stack[sel], -squarings[sel, None, None]), b)
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
