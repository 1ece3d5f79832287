"""Linear-Gaussian means on the affine scan against their per-step loops.

Every mean recursion of the linear side (Kalman-Bucy, chain Kalman, the
discrete Kalman filter, RTS, the Fraser-Potter information pass, the
Euler-Maruyama simulator and the exact dual solve) runs through
``_linalg.affine_scan``; the loops it replaced live in ``loop_oracles``
(the RK4 re-integration is tested with ``rk4`` in ``test_ode``).  The scan reorders the arithmetic of each step, so means
agree to a relative 1e-12, while the data-free covariance recursions and the
random draws are unchanged bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hmm
from dualfilter.duality import backward_dual_ode
from dualfilter.filters import kalman_bucy, kf_markov_chain, kf_markov_chain_batch
from dualfilter.models import LinearGaussianModel, NumericalFailure
from dualfilter.sim import ObservationPath, batch_hmm_observations, simulate_linear_gaussian
from dualfilter.smoothing import _discrete_kalman, fraser_potter_smoother, rts_smoother
from loop_oracles import (backward_dual_loop, chain_kalman_loop, discrete_kalman_loop,
                          fraser_potter_loop, kalman_bucy_loop, rts_loop,
                          simulate_linear_gaussian_loop)

REL = 1e-12
HORIZON, DT = 0.2, 1e-3

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 4)
channels = st.integers(1, 2)


def close(ours, ref) -> bool:
    return np.abs(ours - ref).max() <= REL * np.abs(ref).max()


def lg_model(seed: int, d: int, m: int) -> LinearGaussianModel:
    rng = np.random.default_rng(seed)
    return LinearGaussianModel(
        rng.standard_normal((d, d)) - 1.5 * np.eye(d), rng.standard_normal((d, m)),
        0.5 * rng.standard_normal((d, d)) + 0.5 * np.eye(d),
        rng.standard_normal(d), np.eye(d) * rng.uniform(0.3, 1.0))


@settings(max_examples=15, deadline=None)
@given(seeds, dims, channels)
def test_simulation_matches_loop(seed, d, m):
    model = lg_model(seed, d, m)
    xs, obs = simulate_linear_gaussian(model, HORIZON, DT, seed)
    ref_xs, ref_obs = simulate_linear_gaussian_loop(model, HORIZON, DT, seed)
    assert close(xs, ref_xs) and close(obs.increments, ref_obs.increments)


@settings(max_examples=10, deadline=None)
@given(seeds, dims, channels)
def test_simulation_noise_is_the_per_step_draws(seed, d, m):
    # no drift and unit diffusion: states and increments are the draws
    # themselves, so the one normal block must be the per-step stream
    model = LinearGaussianModel(np.zeros((d, d)), np.zeros((d, m)), np.eye(d),
                                np.zeros(d), np.eye(d))
    xs, obs = simulate_linear_gaussian(model, HORIZON, DT, seed, path_index=3)
    ref_xs, ref_obs = simulate_linear_gaussian_loop(model, HORIZON, DT, seed, path_index=3)
    assert np.array_equal(xs, ref_xs) and np.array_equal(obs.increments, ref_obs.increments)


@settings(max_examples=10, deadline=None)
@given(seeds, dims, channels)
def test_kalman_bucy_matches_loop(seed, d, m):
    model = lg_model(seed, d, m)
    _, obs = simulate_linear_gaussian(model, HORIZON, DT, seed)
    ours, ref = kalman_bucy(model, obs), kalman_bucy_loop(model, obs)
    assert close(ours.means, ref.means)
    assert np.array_equal(ours.covs, ref.covs)


@settings(max_examples=10, deadline=None)
@given(seeds, st.integers(2, 4), channels, st.sampled_from([1, 5]))
def test_chain_kalman_matches_loop_with_and_without_batch(seed, d, m, n_paths):
    model = random_hmm(np.random.default_rng(seed), d=d, m=m)
    _, incs = batch_hmm_observations(model, HORIZON, 0.01, n_paths, seed)
    ref, ref_covs = chain_kalman_loop(model, incs, 0.01)
    assert close(kf_markov_chain_batch(model, incs, 0.01), ref)
    est, covs = kf_markov_chain(model, ObservationPath(dt=0.01, increments=incs[0]))
    assert close(est, ref[0]) and np.array_equal(covs, ref_covs)


@settings(max_examples=10, deadline=None)
@given(seeds, dims, channels)
def test_discrete_kalman_and_smoothers_match_loops(seed, d, m):
    model = lg_model(seed, d, m)
    _, obs = simulate_linear_gaussian(model, HORIZON, DT, seed)
    _, _, xf, pf, pp, _, _ = _discrete_kalman(model, obs)
    _, _, ref_xf, ref_pf, _, ref_pp, _, _ = discrete_kalman_loop(model, obs)
    assert close(xf, ref_xf)
    assert np.array_equal(pf, ref_pf) and np.array_equal(pp[1:], ref_pp[1:])
    rts, ref = rts_smoother(model, obs), rts_loop(model, obs)
    assert close(rts.smoothed_means, ref.smoothed_means)
    assert np.array_equal(rts.smoothed_covs, ref.smoothed_covs)
    fp, ref = fraser_potter_smoother(model, obs), fraser_potter_loop(model, obs)
    assert close(fp.smoothed_means, ref.smoothed_means)
    assert close(fp.smoothed_covs, ref.smoothed_covs)


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(2, 4), channels)
def test_backward_dual_ode_is_the_loop_bit_for_bit(seed, d, m):
    rng = np.random.default_rng(seed)
    model = random_hmm(rng, d=d, m=m)
    f, u = rng.standard_normal(d), rng.standard_normal((60, m))
    assert np.array_equal(backward_dual_ode(model, f, u, 0.01), backward_dual_loop(model, f, u, 0.01))


@pytest.mark.parametrize("smoother, oracle, step", [
    # every predicted covariance is zero; the backward sweep meets the last one first
    (rts_smoother, rts_loop, 19),
    # every filter covariance is zero; the combination fails at node 0
    (fraser_potter_smoother, fraser_potter_loop, 0),
])
def test_failures_name_the_loop_step(smoother, oracle, step):
    # no process noise and no prior uncertainty
    model = LinearGaussianModel([[-1.0, 0.3], [0.0, -0.5]], [[1.0], [0.0]], np.zeros((2, 2)),
                                [1.0, -1.0], np.zeros((2, 2)))
    obs = ObservationPath(dt=0.01, increments=np.full((20, 1), 0.01))
    for run in (smoother, oracle):
        with pytest.raises(NumericalFailure) as exc:
            run(model, obs)
        assert exc.value.step == step
