"""Linear-Gaussian means on the affine scan against their per-step loops.

Every mean recursion of the linear side (Kalman-Bucy, chain Kalman, the
discrete Kalman filter, RTS, the Fraser-Potter information pass, the
Euler-Maruyama simulator, the exact dual solve, and the dual-LQ and
minimum-energy backward passes) runs through ``_linalg.affine_scan``; the
loops it replaced live in ``loop_oracles`` (the RK4 re-integration is tested
with ``rk4`` in ``test_ode``).  The scan reorders the arithmetic of each
step, so means agree to a relative 1e-12, and so do the data-free
covariances, which the package runs as linear-fractional flows where the
loops step the Riccati recursion (by RK4 at a sixteenth of the step for
Kalman-Bucy, where a quarter step left RK4's own error at 1.5e-12); the
random draws are unchanged bit for bit, and so is the RTS covariance
sweep over one and the same filter pass.  The backward passes start every
step from the forward covariance node.  The dual-LQ oracle integrates the
covariance backward again beside the state; the minimum-energy oracle takes
one joint RK4 step at a time from nodes it integrates by RK4 at a finer
step, since a joint RK4 solve of the covariance at the half step differs
from the exact flow by RK4's own error (up to 4e-12 in this family).  Over
the short horizons used here each agrees to 1e-12 absolute.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_hmm
from dualfilter.catalog import counter_example, two_state
from dualfilter.duality import backward_dual_ode, dual_deterministic_markov, dual_lq_linear_gaussian
from dualfilter.filters import (chain_riccati, kalman_bucy, kf_markov_chain,
                                kf_markov_chain_batch, riccati_half_grid)
from dualfilter.models import LinearGaussianModel, NumericalFailure
from dualfilter.sim import ObservationPath, batch_hmm_observations, simulate_linear_gaussian
from dualfilter.smoothing import (discrete_kalman, fraser_potter_smoother, min_energy_cost,
                                  minimum_energy_trajectory, rts_smoother, rts_sweep)
from loop_oracles import (backward_dual_loop, chain_kalman_loop, closed_loop_backward_rk4,
                          discrete_kalman_loop, fraser_potter_loop, kalman_bucy_loop,
                          minimum_energy_rk4, rts_loop, simulate_linear_gaussian_loop)

REL = 1e-12
HORIZON, DT = 0.2, 1e-3
ABS = 1e-12             # backward passes against their joint-RK4 oracles
BACKWARD_HORIZON = 0.5
FAMILY = [(d, m) for d in range(1, 5) for m in (1, 2)]

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 4)
channels = st.integers(1, 2)


def close(ours, ref) -> bool:
    return np.abs(ours - ref).max() <= REL * np.abs(ref).max()


def lg_model(seed: int, d: int, m: int) -> LinearGaussianModel:
    """A model of C9's family."""
    rng = np.random.default_rng(seed)
    return LinearGaussianModel(
        rng.standard_normal((d, d)) - 1.5 * np.eye(d), rng.standard_normal((d, m)),
        0.5 * rng.standard_normal((d, d)) + 0.5 * np.eye(d),
        rng.standard_normal(d), np.eye(d) * rng.uniform(0.3, 1.0))


def c2_model(rng: np.random.Generator, d: int, m: int) -> LinearGaussianModel:
    """A model of C2's family."""
    return LinearGaussianModel(
        rng.standard_normal((d, d)) - 1.5 * np.eye(d), rng.standard_normal((d, m)),
        0.6 * rng.standard_normal((d, d)), rng.standard_normal(d),
        np.eye(d) * rng.uniform(0.2, 1.0))


def max_gap(pairs) -> float:
    return max(float(np.abs(np.asarray(ours) - ref).max()) for ours, ref in pairs)


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
@example(seed=3454, d=4, m=2)       # RK4 at a quarter step was 1.5e-12 from the exact flow here
def test_kalman_bucy_matches_loop(seed, d, m):
    model = lg_model(seed, d, m)
    _, obs = simulate_linear_gaussian(model, HORIZON, DT, seed)
    ours, ref = kalman_bucy(model, obs), kalman_bucy_loop(model, obs)
    assert close(ours.means, ref.means)
    assert close(ours.covs, ref.covs)


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
    kf = discrete_kalman(model, obs)
    _, _, ref_xf, ref_pf, _, ref_pp, _, _ = discrete_kalman_loop(model, obs)
    assert close(kf.means, ref_xf)
    assert close(kf.filter_covs, ref_pf) and close(kf.predicted_covs, ref_pp[1:])
    rts, ref = rts_smoother(model, obs), rts_loop(model, obs)
    assert close(rts.smoothed_means, ref.smoothed_means)
    assert close(rts.smoothed_covs, ref.smoothed_covs)
    # over the package's own filter pass the covariance sweep is the loop's
    xp = np.vstack((np.full((1, d), np.nan), kf.means[:-1] @ kf.f.T))
    pp = np.concatenate((np.full((1, d, d), np.nan), kf.predicted_covs))
    fed = rts_loop(model, obs, (kf.f, kf.qd, kf.means, kf.filter_covs, xp, pp, kf.y, None))
    assert np.array_equal(rts_sweep(kf).smoothed_covs, fed.smoothed_covs)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", [
    15.0,   # step 2's innovation covariance has cond 4e12 but solves
    20.0,   # step 2's is exactly singular to the solver
])
def test_innovation_failure_names_the_loop_step(rate):
    # a fast unstable mode read twice: one unit step inflates P_f(1) past what
    # one reading per channel can condition
    model = LinearGaussianModel([[rate]], [[1.0, 1.0]], [[1e-6]], [0.0], [[0.0]])
    obs = ObservationPath(dt=1.0, increments=np.zeros((6, 2)))
    for run in (discrete_kalman, discrete_kalman_loop):
        with pytest.raises(NumericalFailure, match="innovation") as exc:
            run(model, obs)
        assert exc.value.step == 2


@pytest.mark.parametrize("d, m", FAMILY)
def test_dual_lq_backward_matches_joint_rk4(d, m):
    rng = np.random.default_rng(700 + 10 * d + m)
    model, f = c2_model(rng, d, m), rng.standard_normal(d)
    n = round(BACKWARD_HORIZON / DT)
    cost, u, y, _ = dual_lq_linear_gaussian(model, f, BACKWARD_HORIZON, DT)
    weight = np.broadcast_to(model.noise_cov, (4 * n + 1, d, d))
    ref_cost, ref_u, ref_y = closed_loop_backward_rk4(
        model.a_mat, model.h_mat, weight, riccati_half_grid(model, model.cov0, n, DT), f, DT)
    assert max_gap([(cost, ref_cost), (u, ref_u[::2]), (y, ref_y[::2])]) <= ABS


# priors off the invariant law, so the running weight varies within each step
@pytest.mark.parametrize("model", [two_state().with_prior([0.9, 0.1]),
                                   counter_example().with_prior([0.7, 0.1, 0.1, 0.1])],
                         ids=["two_state", "counter_example"])
def test_chain_dual_lq_backward_matches_joint_rk4(model):
    f = np.random.default_rng(71).standard_normal(model.dim)
    n = round(BACKWARD_HORIZON / DT)
    cost, u, y, _ = dual_deterministic_markov(model, f, BACKWARD_HORIZON, DT)
    sig_half, weight = chain_riccati(model, 2 * n, DT / 2.0)
    ref_cost, ref_u, ref_y = closed_loop_backward_rk4(model.rate.entries, model.obs.entries,
                                                      weight, sig_half, f, DT)
    assert max_gap([(cost, ref_cost), (u, ref_u[::2]), (y, ref_y[::2])]) <= ABS


@pytest.mark.parametrize("d, m", FAMILY)
def test_minimum_energy_matches_joint_rk4(d, m):
    seed = 800 + 10 * d + m
    model = lg_model(seed, d, m)
    _, obs = simulate_linear_gaussian(model, BACKWARD_HORIZON, DT, seed)
    ours, ref = minimum_energy_trajectory(model, obs), minimum_energy_rk4(model, obs)
    assert max_gap([(ours.states, ref.states), (ours.controls, ref.controls),
                    (ours.filter_means, ref.filter_means),
                    (min_energy_cost(model, ours, obs), min_energy_cost(model, ref, obs))]) <= ABS
