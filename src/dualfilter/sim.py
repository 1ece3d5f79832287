"""Exact simulation of states and observations.

Markov-chain trajectories are sampled with the jump-chain construction
(exponential holding times, embedded transition probabilities), so state
paths carry no discretization error.  Each categorical draw (the initial
state, the state after a jump) is one uniform looked up in a cumulative
distribution that is built once per call: the uniform, the table and the
search are those of ``Generator.choice``, so the paths are the ones
``choice`` would draw.

Observation increments ``dZ = h(X_t) dt + dW`` on the grid ``t_k = k dt``
integrate the drift exactly: step ``k`` is its Brownian increment plus
``h(X_{t_k}) dt`` (the state at the step's start, right-continuous), plus,
in time order, ``(h(new) - h(old)) (t_{k+1} - tau)`` for each jump at
``tau`` in ``(t_k, t_{k+1}]``, which is exactly 0 for a jump on a grid
point.  Under the reference measure the increments are pure Brownian
noise, independent of the state path.

Path ``k`` draws from its own generator ``path_rng(seed, k)``: the chain
first, then the noise.  A Monte-Carlo batch keeps its chains in one
concatenated layout (:class:`PathBatch`); each increment's arithmetic
involves its own path alone, so path ``k`` is the same in any batch and,
under ``P``, in :func:`simulate_hmm`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from ._linalg import affine_scan
from ._rng import path_rng
from .models import HmmModel, LinearGaussianModel

Array = NDArray[np.float64]

ABSORBING_RATE = 1e-14    # below this total exit rate a state is absorbing
GRID_ALIGN_TOL = 1e-9
DRIFT_BLOCK = 1 << 18    # paths x steps per block of a batch's drift levels

Measure = Literal["P", "P_tilde"]


@dataclass(frozen=True)
class StatePath:
    """Cadlag jump path: state ``states[k]`` holds on ``[jump_times[k], jump_times[k+1])``.

    ``jump_times[0]`` is 0; the last state holds up to the horizon.
    """

    jump_times: Array
    states: NDArray[np.int64]
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        s = np.asarray(self.states, dtype=np.int64)
        if t.ndim != 1 or t.shape != s.shape or t.size == 0:
            raise ValueError("jump_times and states must be equal-length, non-empty")
        _check_paths(t, s, np.array([0, t.size]), self.horizon)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "states", s)

    def state_at(self, t) -> NDArray[np.int64]:
        """State at each query time (right-continuous)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        return self.states[np.clip(idx, 0, len(self.states) - 1)]

    def occupation_integral(self, values: Array, grid: Array) -> Array:
        """Exact ``int_0^{grid[k]} values[X_s] ds`` at every point of an increasing grid.

        ``values`` maps each state to a (possibly vector) integrand level;
        the integral is piecewise linear in t with kinks at the jumps: the
        areas of the segments before the one holding ``grid[k]``, plus that
        segment's level times the time since it started.
        """
        times = np.append(self.jump_times, self.horizon)
        levels = np.asarray(values, dtype=float)[self.states].T       # (..., segments)
        cum = np.cumsum(np.insert(np.diff(times) * levels, 0, 0.0, axis=-1), axis=-1)
        idx = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(self.states) - 1)
        return (cum[..., idx] + (np.asarray(grid, dtype=float) - times[idx]) * levels[..., idx]).T


@dataclass(frozen=True)
class PathBatch:
    """The state paths of a Monte-Carlo batch in one concatenated layout.

    Path ``k`` starts in ``x0[k]`` at time 0 and makes the jumps
    ``offsets[k]:offsets[k+1]`` of ``jump_times``, entering
    ``jump_states`` at each.  The :class:`StatePath` invariants are checked
    once for the whole batch; ``batch[k]`` builds path ``k`` as a
    :class:`StatePath`.
    """

    x0: NDArray[np.int64]
    jump_times: Array
    jump_states: NDArray[np.int64]
    offsets: NDArray[np.int64]
    horizon: float

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=np.int64)
        t = np.asarray(self.jump_times, dtype=float)
        s = np.asarray(self.jump_states, dtype=np.int64)
        off = np.asarray(self.offsets, dtype=np.int64)
        if (x0.ndim != 1 or t.ndim != 1 or t.shape != s.shape or off.shape != (x0.size + 1,)
                or off[0] != 0 or off[-1] != t.size or np.any(np.diff(off) < 0)):
            raise ValueError("offsets must split the jumps into one run per initial state")
        for name, value in (("x0", x0), ("jump_times", t), ("jump_states", s), ("offsets", off)):
            object.__setattr__(self, name, value)
        _check_paths(*self.segments(), self.horizon)

    def __len__(self) -> int:
        return self.x0.size

    def __getitem__(self, k: int) -> StatePath:
        k = range(len(self))[k]
        a, b = self.offsets[k], self.offsets[k + 1]
        return StatePath(np.append(0.0, self.jump_times[a:b]),
                         np.append(self.x0[k], self.jump_states[a:b]), self.horizon)

    def segments(self) -> tuple[Array, NDArray[np.int64], NDArray[np.int64]]:
        """``(times, states, offsets)`` of the holding segments: path ``k``'s
        :class:`StatePath` arrays are ``times[offsets[k]:offsets[k+1]]`` and
        the same slice of ``states``."""
        starts = self.offsets[:-1]
        return (np.insert(self.jump_times, starts, 0.0), np.insert(self.jump_states, starts, self.x0),
                self.offsets + np.arange(len(self) + 1))

    def terminal(self) -> NDArray[np.int64]:
        """Each path's state at the horizon."""
        _, states, offsets = self.segments()
        return states[offsets[1:] - 1]


def _check_paths(t: Array, s: NDArray[np.int64], offsets: NDArray[np.int64], horizon: float) -> None:
    """The :class:`StatePath` invariants for every path of a segment layout."""
    inner = np.ones(max(t.size - 1, 0), dtype=bool)      # neighbours within one path
    inner[offsets[1:-1] - 1] = False
    if np.any(t[offsets[:-1]] != 0.0) or np.any(np.diff(t)[inner] <= 0) or np.any(t > horizon):
        raise ValueError("jump times must start at 0, increase strictly, and stay within the horizon")
    if np.any((s[1:] == s[:-1])[inner]):
        raise ValueError("consecutive states must differ")


@dataclass(frozen=True)
class ObservationPath:
    """Per-step observation increments on a uniform grid with spacing ``dt``."""

    dt: float
    increments: Array  # (n_steps, m)

    def __post_init__(self):
        inc = np.atleast_2d(np.asarray(self.increments, dtype=float))
        if not np.all(np.isfinite(inc)):
            raise ValueError("observation increments must be finite")
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_channels(self) -> int:
        return self.increments.shape[1]

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def grid(self) -> Array:
        return np.arange(self.n_steps + 1) * self.dt


def n_steps_for(horizon: float, dt: float) -> int:
    if not (0.0 < dt < np.inf and 0.0 < horizon < np.inf):
        raise ValueError(f"dt and horizon must be positive and finite, got {dt:g} and {horizon:g}")
    n = round(horizon / dt)
    if n < 1 or abs(n * dt - horizon) > GRID_ALIGN_TOL * max(1.0, horizon):
        raise ValueError(f"dt {dt:g} does not divide horizon {horizon:g}")
    return int(n)


def simulate_hmm(model: HmmModel, horizon: float, dt: float, seed, measure: Measure = "P",
                 path_index: int = 0) -> tuple[StatePath, ObservationPath]:
    """One joint (state, observation) sample drawn from a single path stream.

    Under ``P`` this is path ``path_index`` of :func:`batch_hmm_observations`.
    Under ``P_tilde`` the chain is still drawn first, so the noise differs
    from the batch's, which skips the chain.
    """
    paths, incs = _simulate(model, horizon, dt, seed, [path_index], chain=True, drift=measure == "P")
    return paths[0], ObservationPath(dt=float(dt), increments=incs[0])


def simulate_linear_gaussian(
    model: LinearGaussianModel, horizon: float, dt: float, seed, path_index: int = 0
) -> tuple[Array, ObservationPath]:
    """Euler-Maruyama state path on the grid and its observation increments.

    Returns the state at every grid point, shape ``(n_steps + 1, d)``.
    """
    n = n_steps_for(horizon, dt)
    rng = path_rng(seed, path_index)
    d, m = model.dim, model.n_channels
    p = model.sigma.shape[1]
    c0 = (model.cov0 + model.cov0.T) / 2
    lam, vec = np.linalg.eigh(c0)
    x0 = model.mean0 + vec @ (np.sqrt(np.clip(lam, 0.0, None)) * rng.standard_normal(d))
    # one block: step k draws its m observation normals, then its p state normals
    noise = np.sqrt(dt) * rng.standard_normal((n, m + p))
    x = affine_scan(np.eye(d) + model.a_mat * dt, noise[:, m:] @ model.sigma.T, x0)
    dz = x[:-1] @ model.h_mat * dt + noise[:, :m]
    return x, ObservationPath(dt=float(dt), increments=dz)


# -- batched helpers for Monte-Carlo drivers ---------------------------------

def batch_hmm_observations(
    model: HmmModel, horizon: float, dt: float, n_paths: int, seed, measure: Measure = "P"
) -> tuple[PathBatch | None, Array]:
    """State paths and stacked increments ``(n_paths, n_steps, m)`` for a
    Monte-Carlo run; path ``k`` is reproducible from ``(seed, k)`` alone.

    Jump draws are one uniform per lookup in per-state cumulative tables,
    the draws ``Generator.choice`` makes, and the stream of path ``k`` is
    ``path_rng(seed, k)``: chain, then noise.  The chains come back in one
    :class:`PathBatch`.  Under ``P_tilde`` no chain is drawn and the paths
    are ``None``.
    """
    chain = measure == "P"
    return _simulate(model, horizon, dt, seed, range(n_paths), chain=chain, drift=chain)


def _simulate(model: HmmModel, horizon: float, dt: float, seed, indices, chain: bool,
              drift: bool) -> tuple[PathBatch | None, Array]:
    """Paths ``indices`` of the stream ``seed``: each draws its chain (if
    ``chain``) and then its noise; ``drift`` adds the chain's exact drift."""
    n = n_steps_for(horizon, dt)
    incs = np.empty((len(indices), n, model.n_channels))
    x0, times, states, offsets = [], [], [], [0]
    draw = _jump_sampler(model, horizon) if chain else None
    for row, k in enumerate(indices):
        rng = path_rng(seed, k)
        if chain:
            x0.append(draw(rng, times, states))
            offsets.append(len(times))
        rng.standard_normal(incs.shape[1:], out=incs[row])
    incs *= np.sqrt(dt)
    if not chain:
        return None, incs
    paths = PathBatch(x0, times, states, offsets, float(horizon))
    if drift:
        _add_drift(incs, paths, model.obs.entries, dt)
    return paths, incs


def _add_drift(incs: Array, paths: PathBatch, values: Array, dt: float) -> None:
    """Add ``int_{t_k}^{t_{k+1}} values[X_s] ds`` to step ``k`` of every path of
    ``incs`` (paths, n, m) by the module's drift rule: the levels at the step
    starts in blocks of ``DRIFT_BLOCK`` path steps, then each jump's term."""
    n = incs.shape[1]
    grid = np.arange(n + 1) * dt
    t, s, off = paths.segments()
    step = np.searchsorted(grid, t, side="left") - 1   # a jump's step; -1 at each path's start
    first = np.minimum(step + 1, n)                    # the first step a segment starts in
    held = np.diff(first, append=n)                    # steps that start in each segment
    held[off[1:] - 1] = n - first[off[1:] - 1]
    block = max(1, DRIFT_BLOCK // n)
    for a in range(0, len(paths), block):
        b = min(a + block, len(paths))
        lo, hi = off[a], off[b]
        incs[a:b] += (values[np.repeat(s[lo:hi], held[lo:hi])] * dt).reshape(b - a, n, -1)
    jump = np.flatnonzero((step >= 0) & (step < n))
    path_of = np.searchsorted(off, jump, side="right") - 1
    gain = (values[s[jump]] - values[s[jump - 1]]) * (grid[step[jump] + 1] - t[jump])[:, None]
    np.add.at(incs, (path_of, step[jump]), gain)       # in index order: jumps in time order


def _jump_sampler(model: HmmModel, horizon: float):
    """``draw(rng, times, states)``: one chain path on ``[0, horizon]``.

    Returns the initial state and appends each jump's time and new state.
    Holding times in state ``i`` are exponential with rate ``-A(i,i)``; the
    next state ``j`` has probability ``A(i,j)/(-A(i,i))``.  States with
    total exit rate below 1e-14 are absorbing.  Each table is
    ``p.cumsum() / its last entry`` and is searched with ``side="right"``,
    as ``Generator.choice(d, p=p)`` does after one ``rng.random()``.
    """
    a = model.rate.entries
    exit_rate = -np.diag(a)
    off_diag = a - np.diag(np.diag(a))

    def table(p: Array) -> list[float]:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    start = table(model.prior.entries)
    moves = [rate > ABSORBING_RATE for rate in exit_rate]
    scale = [1.0 / rate if go else None for rate, go in zip(exit_rate, moves)]
    jump = [table(row / rate) if go else None for row, rate, go in zip(off_diag, exit_rate, moves)]

    def draw(rng: np.random.Generator, times: list[float], states: list[int]) -> int:
        state = x0 = bisect_right(start, rng.random())
        t = 0.0
        while (mean_hold := scale[state]) is not None:
            t += rng.exponential(mean_hold)
            if t >= horizon:
                break
            state = bisect_right(jump[state], rng.random())
            times.append(t)
            states.append(state)
        return x0

    return draw
