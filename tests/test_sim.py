"""State and observation simulation: exactness, laws, reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import bounded_vectors, make_hmm, random_hmm, rate_matrices, simplex_vectors
from dualfilter.catalog import counter_example, scalar_lg, two_state
from dualfilter.cli import ExperimentConfig, run
from dualfilter.sim import (ObservationPath, PathBatch, StatePath, _add_drift, batch_hmm_observations,
                            simulate_hmm, simulate_linear_gaussian)
from loop_oracles import batch_hmm_loop, occupation_loop


def chain_path(model, horizon, seed, path_index=0):
    # the state path of simulate_hmm; dt = horizon draws a single noise step
    return simulate_hmm(model, horizon, horizon, seed=seed, path_index=path_index)[0]


class TestCtmc:
    def test_zero_generator_never_jumps(self):
        m = make_hmm(np.zeros((3, 3)), [1.0, 0.0, 0.0])
        path = chain_path(m, 10.0, seed=1)
        assert len(path.states) == 1

    def test_occupation_matches_invariant_law(self):
        # ergodic theorem: fraction of time in state 0 -> a2/(a1+a2)
        a1, a2 = 1.0, 2.0
        m = two_state(a1, a2)
        path = chain_path(m, 1e4, seed=7)
        grid = np.array([0.0, 1e4])
        occ = path.occupation_integral(np.array([1.0, 0.0]), grid)[-1] / 1e4
        target = a2 / (a1 + a2)
        n_jumps = len(path.jump_times)
        sigma = np.sqrt(target * (1 - target) / n_jumps)  # crude binomial scale
        assert abs(occ - target) <= 3 * sigma + 0.01

    def test_counter_example_unit_mean_holding_times(self):
        m = counter_example()
        holds = []
        k = 0
        while len(holds) < 10_000:
            p = chain_path(m, 200.0, seed=42, path_index=k)
            holds.extend(np.diff(p.jump_times))
            k += 1
        holds = np.array(holds[:10_000])
        se = holds.std(ddof=1) / np.sqrt(holds.size)
        assert abs(holds.mean() - 1.0) <= 3 * se

    def test_absorbing_state_ends_jumping(self):
        m = make_hmm([[-1.0, 1.0], [0.0, 0.0]], [1.0, 0.0], prior=[1.0, 0.0])
        path = chain_path(m, 200.0, seed=77)
        assert path.states[-1] == 1
        assert len(path.states) == 2  # one jump, then absorbed

    def test_reproducible(self):
        m = counter_example()
        p1 = chain_path(m, 50.0, seed=11, path_index=3)
        p2 = chain_path(m, 50.0, seed=11, path_index=3)
        assert np.array_equal(p1.jump_times, p2.jump_times)
        assert np.array_equal(p1.states, p2.states)
        p3 = chain_path(m, 50.0, seed=11, path_index=4)
        assert not np.array_equal(p1.jump_times, p3.jump_times)

    def test_joint_sampling_reproducible(self):
        m = counter_example()
        a = simulate_hmm(m, 2.0, 0.01, seed=6, path_index=2)
        b = simulate_hmm(m, 2.0, 0.01, seed=6, path_index=2)
        assert np.array_equal(a[1].increments, b[1].increments)
        lg = scalar_lg()
        xs1, o1 = simulate_linear_gaussian(lg, 1.0, 0.01, seed=6, path_index=2)
        xs2, o2 = simulate_linear_gaussian(lg, 1.0, 0.01, seed=6, path_index=2)
        assert np.array_equal(xs1, xs2) and np.array_equal(o1.increments, o2.increments)


class TestObservation:
    def test_zero_h_gives_pure_noise_law(self):
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
        _, obs = simulate_hmm(m, 100.0, 0.01, seed=5)
        z = obs.increments.ravel() / np.sqrt(0.01)
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_constant_state_mean_drift(self):
        # frozen chain: increment mean is h(state) * dt
        m = make_hmm(np.zeros((2, 2)), [2.0, 0.0], prior=[1.0, 0.0])
        _, obs = simulate_hmm(m, 1000.0, 0.01, seed=10)
        inc = obs.increments.ravel()
        se = inc.std(ddof=1) / np.sqrt(inc.size)
        assert abs(inc.mean() - 2.0 * 0.01) <= 3 * se

    def test_frozen_chain_drift_is_exactly_h_dt(self):
        # a step with no jump adds h(x) dt to its noise, with no other roundoff
        m = make_hmm(np.zeros((3, 3)), [[0.3, -1.7], [2.0, 0.1], [-0.7, 5.0]], prior=[0.2, 0.5, 0.3])
        path, obs = simulate_hmm(m, 1000.0, 0.01, seed=10)
        _, ref = simulate_hmm(m, 1000.0, 0.01, seed=10, measure="P_tilde")
        assert len(path.states) == 1
        assert np.array_equal(obs.increments, ref.increments + m.obs.entries[path.states[0]] * 0.01)

    def test_reference_measure_independent_of_state(self):
        m = counter_example()
        # chain and noise come from one stream: the chain's draws come first
        path, obs = simulate_hmm(m, 100.0, 0.01, seed=22, measure="P_tilde")
        ind = (path.state_at(np.arange(obs.n_steps) * 0.01) == 0).astype(float)
        z = obs.increments[:, 0]
        r = np.corrcoef(ind, z)[0, 1]
        assert abs(r) <= 3.0 / np.sqrt(z.size)
        # and the increments are exactly N(0, dt) samples
        assert stats.kstest(z / 0.1, "norm").pvalue > 0.01

    def test_reference_measure_ignores_observation_function(self):
        # the reference-measure record does not depend on h at all
        m = counter_example()
        other = make_hmm(m.rate.entries, 7.3 * np.arange(4.0), m.prior.entries)
        _, obs1 = simulate_hmm(m, 10.0, 0.01, seed=23, measure="P_tilde")
        _, obs2 = simulate_hmm(other, 10.0, 0.01, seed=23, measure="P_tilde")
        assert np.array_equal(obs1.increments, obs2.increments)

    def test_exact_integral_vs_breakpoint_riemann(self, rng):
        # independent oracle: refine a uniform partition with the jump times,
        # where a left-point Riemann sum is exact for a piecewise constant path
        for trial in range(5):
            m = random_hmm(rng, d=4, m=2)
            path = chain_path(m, 3.0, seed=100 + trial)
            grid = np.linspace(0.0, 3.0, 7)
            exact = path.occupation_integral(m.obs.entries, grid)
            for gi, t_end in enumerate(grid):
                pts = np.union1d(np.linspace(0.0, t_end, 2001), path.jump_times)
                pts = pts[pts <= t_end + 1e-15]
                vals = m.obs.entries[path.state_at(pts[:-1])]
                riemann = (vals * np.diff(pts)[:, None]).sum(axis=0)
                assert np.abs(riemann - exact[gi]).max() <= 1e-12 * max(1.0, t_end)

    def test_dt_must_divide_horizon(self):
        m = counter_example()
        with pytest.raises(ValueError, match="divide"):
            simulate_hmm(m, 1.0, 0.3, seed=1)
        # a grid that is not positive and finite names both values, for
        # every sampler (once ZeroDivisionError and OverflowError)
        for horizon, dt in [(1.0, 0.0), (np.inf, 0.1), (1.0, -0.1), (-1.0, 0.1), (1.0, np.nan)]:
            msg = f"dt and horizon must be positive and finite, got {dt:g} and {horizon:g}"
            with pytest.raises(ValueError, match=msg):
                simulate_hmm(m, horizon, dt, seed=1)
            with pytest.raises(ValueError, match=msg):
                batch_hmm_observations(m, horizon, dt, 2, seed=1)
            with pytest.raises(ValueError, match=msg):
                simulate_linear_gaussian(scalar_lg(), horizon, dt, seed=1)


class TestLinearGaussian:
    def test_frozen_state(self):
        m = scalar_lg()
        m2 = type(m)(a_mat=[[0.0]], h_mat=[[1.0]], sigma=[[0.0]], mean0=[1.5], cov0=[[0.0]])
        xs, _ = simulate_linear_gaussian(m2, 1.0, 0.01, seed=2)
        assert np.allclose(xs, 1.5)

    def test_brownian_variance(self):
        m = scalar_lg()
        finals = []
        for k in range(10_000):
            xs, _ = simulate_linear_gaussian(
                type(m)(a_mat=[[0.0]], h_mat=[[0.0]], sigma=[[1.0]], mean0=[0.0], cov0=[[0.0]]),
                1.0, 0.05, seed=77, path_index=k)
            finals.append(xs[-1, 0])
        finals = np.array(finals)
        se = np.sqrt(2.0 / finals.size)  # var of variance estimate for N(0,1)
        assert abs(finals.var(ddof=1) - 1.0) <= 3 * se

    def test_zero_h_observation_is_brownian(self):
        m = type(scalar_lg())(a_mat=[[0.0]], h_mat=[[0.0]], sigma=[[1.0]], mean0=[0.0], cov0=[[0.0]])
        zs = []
        for k in range(5000):
            _, obs = simulate_linear_gaussian(m, 1.0, 0.1, seed=5, path_index=k)
            zs.append(obs.increments.sum())
        zs = np.array(zs)
        se = np.sqrt(2.0 / zs.size)
        assert abs(zs.var(ddof=1) - 1.0) <= 3 * se


class TestBatchAndExport:
    def test_batch_matches_single_path(self):
        m = counter_example()
        paths, incs = batch_hmm_observations(m, 2.0, 0.01, 3, seed=13)
        sp, obs = simulate_hmm(m, 2.0, 0.01, seed=13, path_index=1)
        assert np.array_equal(paths[1].jump_times, sp.jump_times)
        assert np.array_equal(incs[1], obs.increments)

    def test_csv_headers(self, tmp_path):
        # the CLI's simulate experiment exports the path simulate_hmm draws
        sp, obs = simulate_hmm(counter_example(), 1.0, 0.1, seed=1)
        run(ExperimentConfig(experiment="simulate", model="counter_example", horizon=1.0, dt=0.1,
                             seed=1, out=str(tmp_path)))
        states = (tmp_path / "states.csv").read_text().splitlines()
        observations = (tmp_path / "observations.csv").read_text().splitlines()
        assert states[0] == "t,state"
        assert observations[0] == "t,dZ_1"
        assert len(states) - 1 == len(sp.jump_times)
        assert len(observations) - 1 == obs.n_steps

    def test_observation_path_grid(self):
        obs = ObservationPath(dt=0.5, increments=np.zeros((4, 1)))
        assert np.allclose(obs.grid(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert obs.horizon == 2.0


def assert_matches_loop_oracle(model, horizon, dt, n_paths, seed, measure="P"):
    paths, incs = batch_hmm_observations(model, horizon, dt, n_paths, seed, measure)
    want_paths, want_incs = batch_hmm_loop(model, horizon, dt, n_paths, seed, measure)
    assert np.array_equal(incs, want_incs)
    if measure == "P_tilde":
        assert paths is None and want_paths == []
        return
    assert len(paths) == n_paths
    for k, (jump_times, states) in enumerate(want_paths):
        assert np.array_equal(paths[k].jump_times, jump_times)
        assert np.array_equal(paths[k].states, states)


@st.composite
def sampler_cases(draw):
    d = draw(st.integers(2, 5))
    m = draw(st.integers(1, 2))
    h = np.column_stack([draw(bounded_vectors(d)) for _ in range(m)])
    model = make_hmm(draw(rate_matrices(d)), h, draw(simplex_vectors(d)))
    horizon = draw(st.sampled_from([0.05, 1.0, 4.0]))
    dt = horizon / draw(st.integers(1, 60))
    return model, horizon, dt, draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


class TestBatchSampler:
    @settings(max_examples=60, deadline=None)
    @given(sampler_cases(), st.sampled_from(["P", "P_tilde"]))
    def test_matches_loop_oracle(self, case, measure):
        assert_matches_loop_oracle(*case, measure=measure)

    def test_matches_loop_oracle_on_random_models(self, rng):
        for d in range(2, 6):
            m = random_hmm(rng, d=d, m=2)
            assert_matches_loop_oracle(m, 3.0, 0.01, 20, seed=d)

    @pytest.mark.parametrize("rate, prior", [
        ([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, -1.0]], [0.2, 0.3, 0.5]),  # absorbing state 1
        ([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]], [0.5, 0.0, 0.5]),  # zero prior entry
        ([[-2.0, 0.0, 2.0], [1.0, -1.0, 0.0], [0.0, 3.0, -3.0]], [1.0, 0.0, 0.0]),  # zero off-diagonal rates
    ])
    def test_matches_loop_oracle_on_edge_models(self, rate, prior):
        m = make_hmm(rate, [0.0, 1.0, -2.0], prior)
        assert_matches_loop_oracle(m, 5.0, 0.05, 40, seed=3)
        paths, _ = batch_hmm_observations(m, 5.0, 0.05, 40, seed=3)
        never = [j for j in range(3) if prior[j] == 0.0]
        assert not np.isin(paths.x0, never).any()

    def test_horizon_shorter_than_first_holding_time(self):
        m = two_state(1e-3, 1e-3)
        assert_matches_loop_oracle(m, 0.5, 0.1, 10, seed=4)
        paths, _ = batch_hmm_observations(m, 0.5, 0.1, 10, seed=4)
        assert paths.jump_times.size == 0
        assert np.array_equal(paths.terminal(), paths.x0)

    def test_single_path(self):
        assert_matches_loop_oracle(counter_example(), 2.0, 0.01, 1, seed=9)

    def test_occupation_matches_loop_when_jumps_hit_grid_points(self):
        h = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])
        path = StatePath(np.array([0.0, 0.25, 0.5, 0.625, 1.0]), np.array([0, 2, 1, 0, 2]), 1.0)
        grid = np.arange(5) * 0.25
        want = occupation_loop(path.jump_times, path.states, 1.0, h, grid)
        assert np.array_equal(path.occupation_integral(h, grid), want)

    def test_drift_matches_occupation_differences(self):
        # path 0: a jump on the grid point 0.5, two jumps inside step 2, one
        # in the last step; path 1 never jumps; path 2 jumps at the horizon
        h = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])
        dt, n = 0.25, 6
        paths = PathBatch([0, 1, 2], [0.5, 0.55, 0.7, 1.4, 1.5], [2, 1, 0, 1, 0], [0, 4, 4, 5], 1.5)
        incs = np.zeros((3, n, 2))
        _add_drift(incs, paths, h, dt)
        grid = np.arange(n + 1) * dt
        tol = 4 * np.finfo(float).eps * np.maximum(1.0, grid[1:])[:, None]
        for k in range(3):
            want = np.diff(occupation_loop(paths[k].jump_times, paths[k].states, 1.5, h, grid), axis=0)
            assert np.all(np.abs(incs[k] - want) <= tol)
        assert np.array_equal(incs[1], np.broadcast_to(h[1] * dt, (n, 2)))
        assert np.array_equal(incs[0, 1], h[0] * dt)             # the grid-point jump adds 0
        assert np.array_equal(incs[0, 3], h[0] * dt)             # no jump after two in step 2

    def test_path_does_not_depend_on_batch_size(self):
        m = counter_example()
        small, inc_small = batch_hmm_observations(m, 4.0, 0.01, 3, seed=21)
        large, inc_large = batch_hmm_observations(m, 4.0, 0.01, 50, seed=21)
        for k in range(3):
            assert np.array_equal(small[k].jump_times, large[k].jump_times)
            assert np.array_equal(small[k].states, large[k].states)
        assert np.array_equal(inc_small, inc_large[:3])

    def test_simulate_hmm_is_a_batch_path(self):
        m = random_hmm(np.random.default_rng(5), d=4, m=2)
        paths, incs = batch_hmm_observations(m, 2.0, 0.02, 6, seed=17)
        for k in range(6):
            sp, obs = simulate_hmm(m, 2.0, 0.02, seed=17, path_index=k)
            assert np.array_equal(sp.jump_times, paths[k].jump_times)
            assert np.array_equal(sp.states, paths[k].states)
            assert np.array_equal(obs.increments, incs[k])

    def test_initial_and_terminal_states(self):
        m = counter_example()
        paths, _ = batch_hmm_observations(m, 3.0, 0.01, 30, seed=2)
        assert np.array_equal(paths.x0, [paths[k].states[0] for k in range(30)])
        assert np.array_equal(paths.terminal(), [paths[k].state_at(3.0) for k in range(30)])

    @pytest.mark.parametrize("times, states, message", [
        ([0.5, 1.0], [1, 1], "consecutive states"),           # repeated state
        ([0.5, 0.5], [1, 0], "increase strictly"),            # non-increasing time
        ([0.5, 2.5], [1, 0], "within the horizon"),
    ])
    def test_validation_rejects_bad_paths(self, times, states, message):
        # path 0 is valid; path 1 starts in 0 and makes the given jumps
        with pytest.raises(ValueError, match=message):
            PathBatch([0, 0], [0.3] + times, [1] + states, [0, 1, 3], horizon=2.0)

    def test_validation_checks_offsets(self):
        PathBatch([0, 1], [0.3], [1], [0, 1, 1], horizon=2.0)
        with pytest.raises(ValueError, match="offsets"):
            PathBatch([0, 1], [0.3], [1], [0, 1, 2], horizon=2.0)
        with pytest.raises(ValueError, match="consecutive states"):
            PathBatch([0, 1], [0.3], [1], [0, 0, 1], horizon=2.0)
