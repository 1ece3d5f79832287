"""Exact simulation of states and observations.

Markov-chain trajectories are sampled with the jump-chain construction
(exponential holding times, embedded transition probabilities), so state
paths carry no discretization error.  Observation increments on a uniform
grid integrate the drift ``h(X_s)`` exactly across jumps inside each step
before adding the Brownian increment; under the reference measure the
increments are pure Brownian noise, independent of the state path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from ._csv import csv_text, grid_rows
from ._rng import path_rng
from .models import HmmModel, LinearGaussianModel

Array = NDArray[np.float64]

ABSORBING_RATE = 1e-14    # below this total exit rate a state is absorbing
GRID_ALIGN_TOL = 1e-9

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
        if t.shape != s.shape or t.size == 0:
            raise ValueError("jump_times and states must be equal-length, non-empty")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0) or t[-1] > self.horizon:
            raise ValueError("jump times must start at 0, increase strictly, and stay within the horizon")
        if np.any(s[1:] == s[:-1]):
            raise ValueError("consecutive states must differ")
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "states", s)

    def state_at(self, t) -> NDArray[np.int64]:
        """State at each query time (right-continuous)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        return self.states[np.clip(idx, 0, len(self.states) - 1)]

    def occupation_integral(self, values: Array, grid: Array) -> Array:
        """Exact ``int_0^{grid[k]} values[X_s] ds`` at every grid point.

        ``values`` maps each state to a (possibly vector) integrand level;
        the integral is piecewise linear in t with kinks at the jumps.
        """
        values = np.asarray(values, dtype=float)
        times = np.append(self.jump_times, self.horizon)
        levels = values[self.states]                      # (J, ...) level per segment
        seg = np.diff(times)
        cum = np.concatenate([np.zeros((1,) + levels.shape[1:]),
                              np.cumsum(seg.reshape(-1, *([1] * (levels.ndim - 1))) * levels, axis=0)])
        idx = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(seg) - 1)
        return cum[idx] + (grid - times[idx]).reshape(-1, *([1] * (levels.ndim - 1))) * levels[idx]


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
    n = round(horizon / dt)
    if n < 1 or abs(n * dt - horizon) > GRID_ALIGN_TOL * max(1.0, horizon):
        raise ValueError(f"dt {dt:g} does not divide horizon {horizon:g}")
    return int(n)


def simulate_ctmc(model: HmmModel, horizon: float, seed, path_index: int = 0) -> StatePath:
    """Exact jump-chain sample of the hidden chain on ``[0, horizon]``.

    Holding times in state ``i`` are exponential with rate ``-A(i,i)``; the
    next state ``j`` is drawn with probability ``A(i,j)/(-A(i,i))``.  States
    with total exit rate below 1e-14 are treated as absorbing.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return _ctmc_with_rng(model, horizon, path_rng(seed, path_index))


def simulate_observation(
    path: StatePath,
    obs,
    dt: float,
    seed,
    measure: Measure = "P",
    path_index: int = 0,
) -> ObservationPath:
    """Observation increments driven by a given state path.

    Under ``P`` each increment is the exact integral of the observation
    drift over the step plus ``sqrt(dt)`` Gaussian noise; under ``P_tilde``
    the increments are the noise alone, independent of the path.
    """
    h = obs.entries if hasattr(obs, "entries") else np.atleast_2d(np.asarray(obs, dtype=float))
    if h.ndim == 1:
        h = h[:, None]
    n = n_steps_for(path.horizon, dt)
    rng = path_rng(seed, path_index)
    noise = np.sqrt(dt) * rng.standard_normal((n, h.shape[1]))
    if measure == "P_tilde":
        return ObservationPath(dt=float(dt), increments=noise)
    grid = np.arange(n + 1) * dt
    cum = path.occupation_integral(h, grid)
    return ObservationPath(dt=float(dt), increments=np.diff(cum, axis=0) + noise)


def simulate_hmm(model: HmmModel, horizon: float, dt: float, seed, measure: Measure = "P",
                 path_index: int = 0) -> tuple[StatePath, ObservationPath]:
    """One joint (state, observation) sample drawn from a single path stream.

    Identical to path ``path_index`` of :func:`batch_hmm_observations`.
    """
    n = n_steps_for(horizon, dt)
    rng = path_rng(seed, path_index)
    sp = _ctmc_with_rng(model, horizon, rng)
    noise = np.sqrt(dt) * rng.standard_normal((n, model.n_channels))
    if measure == "P_tilde":
        return sp, ObservationPath(dt=float(dt), increments=noise)
    cum = sp.occupation_integral(model.obs.entries, np.arange(n + 1) * dt)
    return sp, ObservationPath(dt=float(dt), increments=np.diff(cum, axis=0) + noise)


def simulate_linear_gaussian(
    model: LinearGaussianModel, horizon: float, dt: float, seed, path_index: int = 0
) -> tuple[Array, ObservationPath]:
    """Euler-Maruyama state path on the grid and its observation increments.

    Returns the state at every grid point, shape ``(n_steps + 1, d)``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = n_steps_for(horizon, dt)
    rng = path_rng(seed, path_index)
    d, m = model.dim, model.n_channels
    p = model.sigma.shape[1]
    x = np.zeros((n + 1, d))
    c0 = (model.cov0 + model.cov0.T) / 2
    lam, vec = np.linalg.eigh(c0)
    x[0] = model.mean0 + vec @ (np.sqrt(np.clip(lam, 0.0, None)) * rng.standard_normal(d))
    dz = np.zeros((n, m))
    sq = np.sqrt(dt)
    for k in range(n):
        dz[k] = model.h_mat.T @ x[k] * dt + sq * rng.standard_normal(m)
        x[k + 1] = x[k] + model.a_mat.T @ x[k] * dt + model.sigma @ (sq * rng.standard_normal(p))
    return x, ObservationPath(dt=float(dt), increments=dz)


# -- batched helpers for Monte-Carlo drivers ---------------------------------

def batch_hmm_observations(
    model: HmmModel, horizon: float, dt: float, n_paths: int, seed, measure: Measure = "P"
) -> tuple[list[StatePath], Array]:
    """State paths and stacked increments ``(n_paths, n_steps, m)`` for a
    Monte-Carlo run; path ``k`` is reproducible from ``(seed, k)`` alone."""
    n = n_steps_for(horizon, dt)
    paths: list[StatePath] = []
    incs = np.empty((n_paths, n, model.n_channels))
    grid = np.arange(n + 1) * dt
    h = model.obs.entries
    for k in range(n_paths):
        rng = path_rng(seed, k)
        if measure == "P_tilde":
            # the state path is irrelevant under the reference measure
            incs[k] = np.sqrt(dt) * rng.standard_normal((n, model.n_channels))
            continue
        sp = _ctmc_with_rng(model, horizon, rng)
        paths.append(sp)
        noise = np.sqrt(dt) * rng.standard_normal((n, model.n_channels))
        cum = sp.occupation_integral(h, grid)
        incs[k] = np.diff(cum, axis=0) + noise
    return paths, incs


def _ctmc_with_rng(model: HmmModel, horizon: float, rng: np.random.Generator) -> StatePath:
    a = model.rate.entries
    exit_rate = -np.diag(a)
    state = int(rng.choice(model.dim, p=model.prior.entries))
    times = [0.0]
    states = [state]
    t = 0.0
    while True:
        rate = exit_rate[state]
        if rate <= ABSORBING_RATE:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        row = a[state].copy()
        row[state] = 0.0
        state = int(rng.choice(model.dim, p=row / rate))
        times.append(t)
        states.append(state)
    return StatePath(np.array(times), np.array(states, dtype=np.int64), float(horizon))


# -- CSV export ---------------------------------------------------------------

def state_path_csv(path: StatePath) -> str:
    """Jump representation, columns ``t,state``."""
    return csv_text("t,state", zip(path.jump_times.tolist(), path.states.tolist()))


def observation_csv(obs: ObservationPath) -> str:
    """Increment representation, columns ``t,dZ_1..dZ_m`` (t = step start)."""
    cols = ",".join(f"dZ_{j + 1}" for j in range(obs.n_channels))
    return csv_text(f"t,{cols}", grid_rows(obs.dt, obs.increments))
