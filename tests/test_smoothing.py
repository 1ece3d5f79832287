"""Smoothers: forward-backward for chains, RTS/two-filter/min-energy for LG."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import norm

from conftest import LG3, make_hmm, random_hmm
from dualfilter.catalog import counter_example, scalar_lg
from dualfilter.filters import riccati_half_grid, wonham_filter
from dualfilter.models import LinearGaussianModel, NumericalFailure
from dualfilter.sim import ObservationPath, simulate_hmm, simulate_linear_gaussian
from dualfilter.smoothing import (EnergyTrajectory, forward_backward_smoother,
                                  fraser_potter_smoother, min_energy_cost,
                                  minimum_energy_trajectory, prediction_error_integral,
                                  reintegrate, rts_smoother)
from loop_oracles import forward_backward_loop


def textbook_forward_backward(trans, emis, prior):
    """Classic scaled alpha/beta recursion for a discrete HMM.

    ``trans[i, j]`` is the transition probability i -> j, ``emis[k, j]`` the
    observation density of step k in state j (applied after the k-th
    transition).  Independent oracle for the log-domain smoother.
    """
    n, d = emis.shape
    alphas = np.empty((n + 1, d))
    alphas[0] = prior
    for k in range(n):
        alphas[k + 1] = emis[k] * (trans.T @ alphas[k])
        alphas[k + 1] /= alphas[k + 1].sum()
    betas = np.empty((n + 1, d))
    betas[n] = 1.0
    for k in range(n - 1, -1, -1):
        b = trans @ (emis[k] * betas[k + 1])
        betas[k] = b / b.sum()
    smoothed = alphas * betas
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def gaussian_emissions(model, obs):
    dens = np.empty((obs.n_steps, model.dim))
    for k in range(obs.n_steps):
        for i in range(model.dim):
            mean = model.obs.entries[i] * obs.dt
            dens[k, i] = np.prod(norm.pdf(obs.increments[k], loc=mean, scale=np.sqrt(obs.dt)))
    return dens


class TestForwardBackward:
    def test_matches_textbook_recursion(self, rng):
        for trial in range(20):
            d = int(rng.integers(2, 6))
            m = random_hmm(rng, d=d, m=int(rng.integers(1, 3)))
            _, obs = simulate_hmm(m, 1.0, 0.02, seed=700 + trial)
            ours = forward_backward_smoother(m, obs)
            trans = expm(m.rate.entries * obs.dt)
            oracle = textbook_forward_backward(trans, gaussian_emissions(m, obs), m.prior.entries)
            tv = 0.5 * np.abs(ours.smoothed - oracle).sum(axis=1).max()
            assert tv <= 1e-10

    def test_terminal_matches_filter(self, rng):
        m = random_hmm(rng, d=4)
        _, obs = simulate_hmm(m, 2.0, 0.01, seed=30)
        sm = forward_backward_smoother(m, obs)
        bel = wonham_filter(m, m.prior, obs)
        assert 0.5 * np.abs(sm.smoothed[-1] - bel.beliefs[-1]).sum() <= 1e-8

    def test_product_form_normalization(self, rng):
        m = random_hmm(rng, d=3)
        _, obs = simulate_hmm(m, 1.0, 0.01, seed=31)
        sm = forward_backward_smoother(m, obs)
        joint = np.exp(sm.log_forward + sm.log_backward
                       - (sm.log_forward + sm.log_backward).max(axis=1, keepdims=True))
        joint /= joint.sum(axis=1, keepdims=True)
        assert np.abs(joint - sm.smoothed).max() <= 1e-8
        assert np.abs(sm.smoothed.sum(axis=1) - 1.0).max() <= 1e-12

    def test_no_information_is_two_sided_bridge(self):
        m = counter_example()
        silent = make_hmm(m.rate.entries, np.zeros(4), [0.7, 0.1, 0.1, 0.1])
        obs = ObservationPath(dt=0.01, increments=np.zeros((100, 1)))
        sm = forward_backward_smoother(silent, obs)
        flow = expm(silent.rate.entries.T * 1.0) @ silent.prior.entries
        assert np.abs(sm.smoothed[-1] - flow).max() <= 1e-10
        # and the backward pass is identically one in log domain
        assert np.abs(sm.log_backward).max() <= 1e-12

    def test_backward_pass_ignores_states_the_forward_pass_never_reaches(self):
        # state 2 has no prior mass and no way in, but its likelihood would
        # dominate the backward message; the smoothed law is the terminal
        # posterior of a frozen chain on every row
        m = make_hmm(np.zeros((3, 3)), [0.0, 1 / 120, 17.0], prior=[0.5, 0.5, 0.0])
        obs = ObservationPath(dt=1.0, increments=np.full((4, 1), 30.0))
        sm = forward_backward_smoother(m, obs).smoothed
        p0 = 1.0 / (1.0 + np.exp(1.0 - 1.0 / 7200.0))
        assert np.abs(sm - [p0, 1.0 - p0, 0.0]).max() <= 1e-13   # step log likelihoods reach 365
        oracle = forward_backward_loop(m, obs).smoothed
        finite = np.isfinite(oracle)
        assert np.abs(sm[finite] - oracle[finite]).max() <= 1e-13

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_uninformative_record_follows_prior_flow(self, seed):
        # equal h: the smoother is the prior flow p_2(t) = 0.5 exp(-t / 64)
        # over 3,000 steps, where the scan's roundoff builds up
        m = make_hmm([[0.0, 0.0], [1 / 64, -1 / 64]], [2.0, 2.0], prior=[0.5, 0.5])
        inc = np.sqrt(0.1) * np.random.default_rng(seed).standard_normal((3000, 1))
        sm = forward_backward_smoother(m, ObservationPath(dt=0.1, increments=inc)).smoothed
        p2 = 0.5 * np.exp(-np.arange(3001) * 0.1 / 64)
        assert np.abs(sm - np.column_stack([1.0 - p2, p2])).max() <= 1e-13

    def test_long_horizon_stays_finite(self, rng):
        # log-domain storage must survive mass decay over thousands of steps
        m = random_hmm(rng, d=3)
        strong = make_hmm(m.rate.entries, 4.0 * np.ones((3, 1)), m.prior.entries)
        _, obs = simulate_hmm(strong, 40.0, 0.01, seed=32)
        sm = forward_backward_smoother(strong, obs)
        assert np.all(np.isfinite(sm.smoothed))

    def test_grid_refinement_order(self):
        m = random_hmm(np.random.default_rng(33), d=3)
        horizon, base_dt = 1.0, 0.02
        fine_dt = base_dt / 16.0
        mid_index_fine = int(0.5 / fine_dt)
        factors = [1, 2, 4, 8]
        errs = np.zeros(len(factors))
        n_rep = 8
        for rep in range(n_rep):
            _, fine_obs = simulate_hmm(m, horizon, fine_dt, seed=800 + rep)
            ref = forward_backward_smoother(m, fine_obs).smoothed[mid_index_fine]
            for i, k in enumerate(factors):
                dt = base_dt / k
                group = int(round(dt / fine_dt))
                inc = fine_obs.increments.reshape(-1, group, 1).sum(axis=1)
                sm = forward_backward_smoother(m, ObservationPath(dt=dt, increments=inc))
                errs[i] += 0.5 * np.abs(sm.smoothed[int(0.5 / dt)] - ref).sum() / n_rep
        slope = np.polyfit(np.log([base_dt / k for k in factors]), np.log(errs), 1)[0]
        assert slope >= 0.8


def random_stable_lg(rng, d):
    a = rng.standard_normal((d, d)) - 1.5 * np.eye(d)
    return LinearGaussianModel(
        a, rng.standard_normal((d, rng.integers(1, 3))),
        0.5 * rng.standard_normal((d, d)) + 0.5 * np.eye(d),
        rng.standard_normal(d), np.eye(d) * rng.uniform(0.3, 1.0))


class TestLinearGaussianSmoothers:
    def test_two_filter_matches_rts(self, rng):
        for trial in range(10):
            d = int(rng.integers(1, 4))
            model = random_stable_lg(rng, d)
            _, obs = simulate_linear_gaussian(model, 1.0, 1e-3, seed=900 + trial)
            r = rts_smoother(model, obs)
            f = fraser_potter_smoother(model, obs)
            assert np.abs(r.smoothed_means - f.smoothed_means).max() <= 1e-6

    def test_terminal_equals_filter(self, rng):
        model = random_stable_lg(rng, 2)
        _, obs = simulate_linear_gaussian(model, 1.0, 1e-3, seed=40)
        for sm in (rts_smoother(model, obs), fraser_potter_smoother(model, obs)):
            assert np.abs(sm.smoothed_means[-1] - sm.filter_means[-1]).max() <= 1e-10

    def test_no_information_keeps_prior_flow(self):
        model = LinearGaussianModel([[-0.5]], [[0.0]], [[0.8]], [1.0], [[0.4]])
        obs = ObservationPath(dt=1e-3, increments=np.zeros((1000, 1)))
        r = rts_smoother(model, obs)
        flow = np.exp(-0.5 * r.grid())
        assert np.abs(r.smoothed_means[:, 0] - flow).max() <= 1e-9
        assert np.abs(r.smoothed_means - r.filter_means).max() <= 1e-12
        # the backward information pass carries nothing, so the two-filter
        # smoother coincides with its forward filter as well
        fp = fraser_potter_smoother(model, obs)
        assert np.abs(fp.smoothed_means - fp.filter_means).max() <= 1e-12

    def test_smoothed_variance_never_exceeds_filtered(self):
        model = scalar_lg()
        _, obs = simulate_linear_gaussian(model, 2.0, 1e-3, seed=41)
        r = rts_smoother(model, obs)
        assert np.all(r.smoothed_covs[:, 0, 0] <= r.filter_covs[:, 0, 0] + 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMinimumEnergy:
    def test_long_horizon_cost_equals_prediction_error(self):
        # the benchmark model, ten times faster: re-tracing Sigma and the
        # filter mean backward made Sigma singular before t = 0
        model = LinearGaussianModel(10.0 * np.array(LG3["a_mat"]),
                                    np.sqrt(10.0) * np.array(LG3["h_mat"]),
                                    LG3["sigma"], LG3["mean0"], LG3["cov0"])
        _, obs = simulate_linear_gaussian(model, 3.0, 1e-3, seed=1)
        tr = minimum_energy_trajectory(model, obs)
        j = min_energy_cost(model, tr, obs=obs)
        target = prediction_error_integral(model, tr, obs)
        assert np.all(np.isfinite(tr.states)) and abs(j - target) <= 1e-6 * abs(target)

    def test_singular_covariance_names_its_half_grid_step(self):
        # no process noise: Sigma decays like exp(-10 t) and passes below
        # 1e-10 well inside the horizon
        model = LinearGaussianModel([[-5.0]], [[1.0]], [[0.0]], [0.0], [[1.0]])
        obs = ObservationPath(dt=0.01, increments=np.zeros((300, 1)))
        sig = riccati_half_grid(model, model.cov0, 300, 0.01)[:, 0, 0]
        first = next(j for j, s in enumerate(sig) if s < 1e-10)
        assert 0 < first < 600
        with pytest.raises(NumericalFailure, match="singular") as exc:
            minimum_energy_trajectory(model, obs)
        assert exc.value.step == first

    def test_optimal_cost_equals_prediction_error(self, rng):
        for trial in range(5):
            model = random_stable_lg(rng, int(rng.integers(1, 4)))
            _, obs = simulate_linear_gaussian(model, 1.0, 1e-3, seed=950 + trial)
            tr = minimum_energy_trajectory(model, obs)
            j = min_energy_cost(model, tr, obs=obs)
            target = prediction_error_integral(model, tr, obs)
            assert abs(j - target) <= 1e-6

    def test_perturbations_never_beat_optimum(self, rng):
        model = random_stable_lg(rng, 2)
        _, obs = simulate_linear_gaussian(model, 1.0, 1e-3, seed=42)
        tr = minimum_energy_trajectory(model, obs)
        j_opt = min_energy_cost(model, tr, obs=obs)
        for k in range(20):
            scale = 10.0 ** rng.uniform(-2, 0)
            du = scale * rng.standard_normal(tr.controls.shape)
            dx0 = scale * rng.standard_normal(model.dim)
            cand = EnergyTrajectory(
                dt=tr.dt,
                states=reintegrate(model, tr.states[0] + dx0, tr.controls + du, tr.dt),
                controls=tr.controls + du,
                filter_means=tr.filter_means)
            assert min_energy_cost(model, cand, obs=obs) >= j_opt - 1e-8

    def test_noise_free_consistent_record_costs_nothing(self):
        # x0 = m0, zero control, frozen state, observations exactly H^T x dt
        model = LinearGaussianModel([[0.0]], [[1.0]], [[1.0]], [0.7], [[0.5]])
        n, dt = 200, 5e-3
        controls = np.zeros((2 * n + 1, 1))
        states = reintegrate(model, model.mean0, controls, dt)
        obs = ObservationPath(dt=dt, increments=np.full((n, 1), 0.7 * dt))
        tr = EnergyTrajectory(dt=dt, states=states, controls=controls, filter_means=states)
        assert min_energy_cost(model, tr, obs=obs) <= 1e-12

    def test_inconsistent_trajectory_rejected(self, rng):
        model = random_stable_lg(rng, 2)
        _, obs = simulate_linear_gaussian(model, 0.5, 1e-3, seed=43)
        tr = minimum_energy_trajectory(model, obs)
        broken = EnergyTrajectory(dt=tr.dt, states=tr.states + 0.01, controls=tr.controls,
                                  filter_means=tr.filter_means)
        with pytest.raises(ValueError, match="inconsistent"):
            min_energy_cost(model, broken, obs=obs)

    def test_two_filter_tracks_minimum_energy_trajectory(self, rng):
        # same continuum object, different discretizations: O(dt) agreement
        model = random_stable_lg(rng, 2)
        _, obs = simulate_linear_gaussian(model, 1.0, 1e-3, seed=44)
        fp = fraser_potter_smoother(model, obs)
        tr = minimum_energy_trajectory(model, obs)
        assert np.abs(fp.smoothed_means - tr.on_grid()).max() <= 0.05
