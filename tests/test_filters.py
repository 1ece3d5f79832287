"""Filter recursions: Wonham, Zakai, solution operator, Kalman-Bucy, chain KF."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_are

from conftest import bounded_vectors, make_hmm, random_hmm, rate_matrices, simplex_vectors
from loop_oracles import (forward_backward_loop, rk4_riccati, wonham_batch_loop, wonham_loop,
                          zakai_loop, zakai_operator_loop)
from dualfilter.catalog import counter_example, scalar_lg, two_state
from dualfilter import filters
from dualfilter._linalg import fractional_flow
from dualfilter.filters import (ARE_RESIDUAL_TOL, ZakaiOperatorPath, _check_psd, innovation_path,
                                kalman_bucy, kf_markov_chain, forward_blocks, riccati_half_grid,
                                riccati_rhs, solve_are,
                                wonham_blocks, wonham_filter, wonham_filter_batch, zakai_filter,
                                zakai_operator)
from dualfilter.models import LinearGaussianModel, NumericalFailure
from dualfilter.sim import (ObservationPath, batch_hmm_observations, simulate_hmm,
                            simulate_linear_gaussian)
from dualfilter.smoothing import forward_backward_smoother


def zero_obs(n, dt, m=1):
    return ObservationPath(dt=dt, increments=np.zeros((n, m)))


def scalar_riccati(a, h, q, s0, t):
    """Closed form of ``Sigma' = 2 a Sigma + q - h^2 Sigma^2``, ``h != 0``,
    through its two equilibria ``s_plus > s_minus``."""
    root = np.sqrt(a * a + q * h * h)
    s_plus, s_minus = (a + root) / h ** 2, (a - root) / h ** 2
    decay = np.exp(-2.0 * root * t)
    return ((s_plus * (s0 - s_minus) - s_minus * (s0 - s_plus) * decay)
            / ((s0 - s_minus) - (s0 - s_plus) * decay))


class TestWonham:
    def test_no_information_reduces_to_kolmogorov_flow(self):
        m = counter_example()
        silent = make_hmm(m.rate.entries, np.zeros(4), m.prior.entries)
        rng = np.random.default_rng(0)
        obs = ObservationPath(dt=0.01, increments=0.1 * rng.standard_normal((500, 1)))
        bel = wonham_filter(silent, silent.prior, obs)
        for k in [0, 100, 250, 500]:
            flow = expm(m.rate.entries.T * (k * 0.01)) @ m.prior.entries
            assert np.abs(bel.beliefs[k] - flow).max() <= 1e-10

    def test_static_state_identified(self):
        # frozen chain with separating observation: the posterior concentrates
        m = make_hmm(np.zeros((2, 2)), [0.0, 1.0], prior=[0.5, 0.5])
        hits = []
        for k in range(100):
            sp, obs = simulate_hmm(m, 50.0, 0.05, seed=31, path_index=k)
            bel = wonham_filter(m, m.prior, obs)
            hits.append(bel.beliefs[-1, sp.states[0]])
        assert np.mean(hits) >= 0.99

    def test_counter_example_support_tracks_jump_parity(self):
        # high observation gain: the posterior support alternates between
        # {0,2} and {1,3} with the parity of the jump count, up to the short
        # detection lag after each jump
        m = counter_example().with_obs_scale(20.0)
        sp, obs = simulate_hmm(m, 20.0, 0.005, seed=5)
        bel = wonham_filter(m, m.prior, obs)
        times = bel.grid()
        odd_mass = bel.beliefs[:, 0] + bel.beliefs[:, 2]
        true_odd = np.isin(sp.state_at(times), [0, 2])
        agree = np.mean((odd_mass > 0.5) == true_odd)
        assert agree >= 0.95
        # within the dominant support the split stays at the prior ratio
        settled = (odd_mass > 0.999) & true_odd
        ratios = bel.beliefs[settled, 0] / odd_mass[settled]
        assert np.abs(ratios - 0.5).max() <= 0.05

    def test_simplex_preserved_exactly(self):
        m = random_hmm(np.random.default_rng(3), d=4, m=2)
        _, obs = simulate_hmm(m, 2.0, 0.01, seed=8)
        bel = wonham_filter(m, m.prior, obs)
        assert np.abs(bel.beliefs.sum(axis=1) - 1.0).max() <= 1e-12
        assert bel.beliefs.min() >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(rate_matrices(3), bounded_vectors(3, bound=2.0),
           st.lists(st.floats(-0.5, 0.5), min_size=20, max_size=20))
    def test_simplex_preserved_for_arbitrary_increments(self, a, h, inc):
        # positivity of the splitting does not depend on the increments being
        # plausible observations
        m = make_hmm(a, h)
        obs = ObservationPath(dt=0.05, increments=np.array(inc)[:, None])
        bel = wonham_filter(m, m.prior, obs)
        assert np.abs(bel.beliefs.sum(axis=1) - 1.0).max() <= 1e-12
        assert bel.beliefs.min() >= 0.0

    def test_batch_matches_loop(self):
        m = random_hmm(np.random.default_rng(4), d=3)
        _, obs = simulate_hmm(m, 1.0, 0.01, seed=9)
        single = wonham_filter(m, m.prior, obs)
        batch = wonham_filter_batch(m, m.prior, obs.increments[None], obs.dt)
        assert np.abs(batch[0] - single.beliefs).max() <= 1e-14

    def test_batch_keep_every_stores_the_subsampled_grid(self):
        m = random_hmm(np.random.default_rng(5), d=3)
        incs = 0.1 * np.random.default_rng(6).standard_normal((4, 103, 1))
        full = wonham_filter_batch(m, m.prior, incs, 0.01)
        for keep in (1, 5, 103, 200):
            kept = wonham_filter_batch(m, m.prior, incs, 0.01, keep_every=keep)
            assert np.array_equal(kept, full[:, ::keep])
        with pytest.raises(ValueError):
            wonham_filter_batch(m, m.prior, incs, 0.01, keep_every=0)

    def test_grid_refinement_first_order(self):
        # total variation at T against a 16x finer reference, averaged over
        # paths; the fitted order of the log-log line must be >= 0.8
        m = random_hmm(np.random.default_rng(12), d=3)
        horizon, base_dt = 1.0, 0.02
        fine_dt = base_dt / 16.0
        factors = [1, 2, 4, 8]
        errs = np.zeros(len(factors))
        n_rep = 8
        for rep in range(n_rep):
            _, fine_obs = simulate_hmm(m, horizon, fine_dt, seed=600 + rep)
            ref = wonham_filter(m, m.prior, fine_obs).beliefs[-1]
            for i, k in enumerate(factors):
                dt = base_dt / k
                group = int(round(dt / fine_dt))
                inc = fine_obs.increments.reshape(-1, group, 1).sum(axis=1)
                bel = wonham_filter(m, m.prior, ObservationPath(dt=dt, increments=inc))
                errs[i] += 0.5 * np.abs(bel.beliefs[-1] - ref).sum() / n_rep
        dts = np.array([base_dt / k for k in factors])
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 0.8

    def test_underflow_reported_with_step(self):
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [800.0, -800.0])
        obs = ObservationPath(dt=1.0, increments=np.array([[1.0], [1.0], [1.0]]))
        with pytest.raises(NumericalFailure, match="step"):
            wonham_filter(m, m.prior, obs)


@st.composite
def kernel_cases(draw, channels=st.just(1)):
    """A random chain, prior and record of ``channels`` observation channels;
    the record length hits the chunk boundaries of the scan (0, 1, 2,
    c^2 - 1, c^2, c^2 + 1) or is random."""
    d = draw(st.integers(2, 5))
    a = draw(rate_matrices(d))
    m = draw(channels)
    h = np.column_stack([draw(bounded_vectors(d, bound=2.0)) for _ in range(m)])
    prior = draw(simplex_vectors(d))
    c = draw(st.integers(2, 40))
    n = draw(st.one_of(st.integers(3, 3000),
                       st.sampled_from([c * c - 1, c * c, c * c + 1, 0, 1, 2])))
    dt = draw(st.sampled_from([0.005, 0.02, 0.1]))
    seed = draw(st.integers(0, 2**32 - 1))
    inc = np.sqrt(dt) * np.random.default_rng(seed).standard_normal((n, m))
    return make_hmm(a, h, prior), ObservationPath(dt=dt, increments=inc)


def assert_scan_matches_loop(m, obs):
    n = obs.n_steps
    bel = wonham_filter(m, m.prior, obs).beliefs
    assert np.abs(bel - wonham_loop(m, m.prior, obs).beliefs).max() <= 1e-13
    unn, ref = zakai_filter(m, m.prior, obs), zakai_loop(m, m.prior, obs)
    assert np.abs(unn.masses - ref.masses).max() <= 1e-13
    assert np.abs(unn.log_normalizer - ref.log_normalizer).max() <= 1e-12 * max(1, n)
    sm = forward_backward_smoother(m, obs).smoothed
    assert np.abs(sm - forward_backward_loop(m, obs).smoothed).max() <= 1e-13
    # the operator's columns are Zakai filters from the unit vectors: the
    # same bounds, on the oracle's columns renormalized (an entrywise log
    # comparison means nothing for entries in the subnormal range, which
    # rates such as 2e-309 reach)
    op, ref = zakai_operator(m, obs), zakai_operator_loop(m, obs)
    mass = ref.psi.sum(axis=1)
    assert np.abs(op.psi - ref.psi / mass[:, None]).max() <= 1e-13
    assert np.abs(op.log_scale - (ref.log_scale + np.log(mass))).max() <= 1e-12 * max(1, n)


class TestForwardKernel:
    """The chunked scan against the per-step loops it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_scan_matches_loop(self, case):
        assert_scan_matches_loop(*case)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 899, 900, 901, 2500, 10_000])
    def test_scan_matches_loop_at_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        for d in range(2, 6):
            m = random_hmm(rng, d=d, m=2)
            obs = ObservationPath(dt=0.01, increments=0.1 * rng.standard_normal((n, 2)))
            assert_scan_matches_loop(m, obs)

    @settings(max_examples=20, deadline=None)
    @given(kernel_cases(channels=st.integers(1, 2)), st.integers(1, 4),
           st.sampled_from([1, 3, 64, 200]))
    def test_batch_matches_loop_oracle(self, case, n_paths, keep):
        m, obs = case
        rng = np.random.default_rng(obs.n_steps)
        incs = np.sqrt(obs.dt) * rng.standard_normal((n_paths, obs.n_steps, m.n_channels))
        batch = wonham_filter_batch(m, m.prior, incs, obs.dt, keep_every=keep)
        assert np.abs(batch - wonham_batch_loop(m, m.prior, incs, obs.dt, keep)).max() <= 1e-13

    def test_wide_batch_matches_loop_oracle_across_blocks(self):
        # 700 paths x 3 states take 16-step blocks, and the blocks split
        # keep_every = 3 intervals: kept points 3..15 | 18..30 | 33..48 | none
        m = random_hmm(np.random.default_rng(8), d=3, m=2)
        incs = 0.1 * np.random.default_rng(9).standard_normal((700, 50, 2))
        assert [len(b) for b in wonham_blocks(m, m.prior, incs, 0.01, 3)] == [1, 5, 5, 6, 0]
        batch = wonham_filter_batch(m, m.prior, incs, 0.01, keep_every=3)
        assert np.abs(batch - wonham_batch_loop(m, m.prior, incs, 0.01, 3)).max() <= 1e-13

    def test_single_record_and_batch_form_the_same_likelihoods(self, monkeypatch):
        # two channels: the record's likelihoods as the kernel takes them,
        # alone (through the chunked scan) and as one path of a batch (through
        # the block stream), equal bit for bit
        m = random_hmm(np.random.default_rng(31), d=3, m=2)
        _, incs = batch_hmm_observations(m, 0.5, 0.01, 20, seed=32)
        def recording(fn, store):                         # both take the likelihoods second
            def call(*args, **kwargs):
                store.append(args[1].copy())
                return fn(*args, **kwargs)
            return call

        scanned, advanced = [], []
        monkeypatch.setattr(filters, "_scan", recording(filters._scan, scanned))
        for inc in incs:
            wonham_filter(m, m.prior, ObservationPath(dt=0.01, increments=inc))
        monkeypatch.setattr(filters, "_advance", recording(filters._advance, advanced))
        wonham_filter_batch(m, m.prior, incs, 0.01)
        batch = np.concatenate(advanced)                  # (n_steps, d, n_paths)
        for p, log_like in enumerate(scanned):
            assert np.array_equal(np.exp(log_like), batch[:, :, p]), p

    def test_failure_names_the_loop_step_without_warnings(self):
        # likelihoods [1, 0] at every step but step 37, where both underflow
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [800.0, -800.0])
        inc = np.full((100, 1), 400.0)
        inc[37] = 1.0
        obs = ObservationPath(dt=1.0, increments=inc)
        with pytest.raises(NumericalFailure) as loop:
            wonham_loop(m, m.prior, obs)
        assert loop.value.step == 37
        incs = np.repeat(obs.increments[None], 3, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="underflow") as scan:
                wonham_filter(m, m.prior, obs)
            assert scan.value.step == 37
            with pytest.raises(NumericalFailure) as batch:
                wonham_filter_batch(m, m.prior, incs, obs.dt)
            assert batch.value.step == 37
            # peak-subtracted likelihoods keep the unnormalized passes alive
            unn = zakai_filter(m, m.prior, obs)
            sm = forward_backward_smoother(m, obs)
        ref = zakai_loop(m, m.prior, obs)
        assert np.abs(unn.masses - ref.masses).max() <= 1e-13
        assert np.abs(unn.log_normalizer - ref.log_normalizer).max() <= 1e-12 * obs.n_steps
        assert np.abs(sm.smoothed - forward_backward_loop(m, obs).smoothed).max() <= 1e-13

    def test_denormal_chunk_start_runs_step_by_step(self):
        # frozen chain, state 3 unreachable: over a 2-step chunk the products
        # of states 1 and 2 fall to ~1e-318 of state 3's, where doubles keep
        # only a few digits; the scan must not trust that chunk start
        m = make_hmm(np.zeros((3, 3)), [[0.0], [1.0 / 120.0], [17.0]], prior=[0.5, 0.5, 0.0])
        obs = ObservationPath(dt=1.0, increments=np.full((4, 1), 30.0))
        bel = wonham_filter(m, m.prior, obs).beliefs
        assert np.abs(bel - wonham_loop(m, m.prior, obs).beliefs).max() <= 1e-13
        unn = zakai_filter(m, m.prior, obs).masses
        assert np.abs(unn - zakai_loop(m, m.prior, obs).masses).max() <= 1e-13

    def test_column_below_the_scan_floor_runs_step_by_step(self):
        # frozen chain: state 2's shifted likelihood is 1e-20 of state 1's
        # every step, so the identity's second column keeps a mass of 1e-20
        # per step but ends each 14-step chunk below SCAN_FLOOR
        m = make_hmm(np.zeros((2, 2)), [0.0, np.sqrt(40.0 * np.log(10.0))])
        obs = zero_obs(200, 1.0)
        assert 1e-20 ** math.isqrt(obs.n_steps) < filters.SCAN_FLOOR < 1e-20
        assert_scan_matches_loop(m, obs)

    def test_short_underflow_record_warns_nothing(self):
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [800.0, -800.0])
        obs = ObservationPath(dt=1.0, increments=np.ones((3, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure) as scan:
                wonham_filter(m, m.prior, obs)
        with pytest.raises(NumericalFailure) as loop:
            wonham_loop(m, m.prior, obs)
        assert scan.value.step == loop.value.step == 0

    def test_batch_failure_names_the_path(self):
        # likelihoods [1, 0] at every step but path 2's step 5, where both underflow
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [800.0, -800.0])
        incs = np.full((4, 10, 1), 400.0)
        incs[2, 5] = 1.0
        with pytest.raises(NumericalFailure, match=r"underflow \(step 5, path 2\)$") as batch:
            wonham_filter_batch(m, m.prior, incs, 1.0)
        assert (batch.value.step, batch.value.path) == (5, 2)
        # a single record names only the step
        with pytest.raises(NumericalFailure, match=r"underflow \(step 5\)$") as single:
            wonham_filter(m, m.prior, ObservationPath(dt=1.0, increments=incs[2]))
        assert (single.value.step, single.value.path) == (5, None)

    def test_batch_failure_names_the_first_step_then_the_lowest_path(self):
        # path 4 underflows at step 1, paths 0 and 2 only later: step 1, path 4;
        # then path 2 also at step 1: the lowest path of the first step
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [800.0, -800.0])
        incs = np.full((5, 10, 1), 400.0)
        incs[4, 1] = incs[0, 3] = incs[2, 6] = 1.0
        with pytest.raises(NumericalFailure, match=r"underflow \(step 1, path 4\)$"):
            wonham_filter_batch(m, m.prior, incs, 1.0)
        incs[2, 1] = 1.0
        with pytest.raises(NumericalFailure) as batch:
            wonham_filter_batch(m, m.prior, incs, 1.0)
        assert (batch.value.step, batch.value.path) == (1, 2)


    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_paths", [1, 3, 4, 40])
    def test_stacked_priors_match_one_prior_passes(self, d, n_paths):
        # K priors run as the K columns of one pass; column k must be prior
        # k's own pass, across the 16-step block edges and the keep_every
        # intervals they split: bit for bit on 4 paths or more, while on
        # fewer OpenBLAS may take another kernel for the narrow products
        rng = np.random.default_rng(10 * d + n_paths)
        m, n = random_hmm(rng, d=d, m=2), 300
        incs = 0.1 * rng.standard_normal((n_paths, n, 2))
        tol = 0.0 if n_paths >= 4 else 1e-15
        for k_cols in (2, 3):
            priors = rng.dirichlet(np.ones(d), size=k_cols)
            for keep in (1, 3, n):
                stacked = wonham_filter_batch(m, priors, incs, 0.01, keep_every=keep)
                assert stacked.shape == (k_cols, n_paths, n // keep + 1, d)
                for prior, bel in zip(priors, stacked):
                    one = wonham_filter_batch(m, prior, incs, 0.01, keep_every=keep)
                    assert np.abs(bel - one).max() <= tol

    def test_stacked_failure_names_the_first_step_then_the_lowest_path(self):
        # frozen chain, state j seen on channel j: a zero increment on channel
        # j underflows only the column started at state j
        m = make_hmm(np.zeros((2, 2)), [[40.0, 0.0], [0.0, 40.0]])
        incs = np.full((5, 10, 2), 20.0)
        incs[3, 2, 1] = incs[1, 4, 0] = 0.0       # column 1: path 3, step 2; column 0: path 1, step 4
        with pytest.raises(NumericalFailure, match=r"underflow \(step 2, path 3\)$"):
            wonham_filter_batch(m, np.eye(2), incs, 1.0)
        incs[4, 2, 0] = incs[2, 2, 1] = 0.0       # step 2 again: column 0 on path 4, column 1 on path 2
        with pytest.raises(NumericalFailure) as batch:
            wonham_filter_batch(m, np.eye(2), incs, 1.0)
        assert (batch.value.step, batch.value.path) == (2, 2)

    @pytest.mark.parametrize("run", [
        lambda m, p, obs: wonham_filter(m, p, obs),
        lambda m, p, obs: zakai_filter(m, p, obs),
        lambda m, p, obs: wonham_filter_batch(m, p, obs.increments[None], obs.dt),
        lambda m, p, obs: wonham_filter_batch(m, [p, p], obs.increments[None], obs.dt),
        lambda m, p, obs: forward_backward_smoother(m, obs, prior=p),
    ], ids=["wonham", "zakai", "batch", "batch-stack", "smoother"])
    def test_prior_of_the_wrong_length_is_rejected(self, run):
        m = random_hmm(np.random.default_rng(3), d=3)
        with pytest.raises(ValueError, match="prior has 2 states, model has 3"):
            run(m, [0.5, 0.5], zero_obs(4, 0.1))

class TestZakai:
    def test_no_information_keeps_unit_mass(self):
        m = counter_example()
        silent = make_hmm(m.rate.entries, np.zeros(4), m.prior.entries)
        rng = np.random.default_rng(1)
        obs = ObservationPath(dt=0.01, increments=0.1 * rng.standard_normal((300, 1)))
        unn = zakai_filter(silent, silent.prior, obs)
        assert np.abs(unn.log_normalizer).max() <= 1e-12

    def test_normalization_recovers_filter(self, rng):
        for trial in range(3):
            m = random_hmm(rng, d=4, m=2)
            _, obs = simulate_hmm(m, 2.0, 0.01, seed=200 + trial)
            bel = wonham_filter(m, m.prior, obs)
            unn = zakai_filter(m, m.prior, obs)
            assert np.abs(unn.masses - bel.beliefs).max() <= 1e-8
            # ratio identity for random functions
            for _ in range(10):
                f = rng.standard_normal(4)
                assert np.abs(unn.masses @ f - bel.beliefs @ f).max() <= 1e-8

    def test_survives_extreme_increments(self):
        # the correction factors underflow raw exp() here; the log-domain
        # normalizer must keep the path finite and normalized
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [900.0, -900.0])
        obs = ObservationPath(dt=1.0, increments=np.array([[1.0], [-1.0], [1.0]]))
        unn = zakai_filter(m, m.prior, obs)
        assert np.all(np.isfinite(unn.masses))
        assert np.all(np.isfinite(unn.log_normalizer))
        assert np.abs(unn.masses.sum(axis=1) - 1.0).max() <= 1e-12

    def test_log_mass_splits_across_restarts(self):
        # linearity: total mass over [0,T] factorizes through a renormalized
        # restart at any interior grid point
        m = random_hmm(np.random.default_rng(16), d=3)
        _, obs = simulate_hmm(m, 2.0, 0.01, seed=18)
        unn = zakai_filter(m, m.prior, obs)
        split = 77
        tail = ObservationPath(dt=obs.dt, increments=obs.increments[split:])
        restart = zakai_filter(m, unn.masses[split], tail)
        recomposed = unn.log_normalizer[split] + restart.log_normalizer[-1]
        assert abs(recomposed - unn.log_normalizer[-1]) <= 1e-10

    def test_total_mass_is_reference_martingale(self):
        m = two_state(1.0, 2.0)
        total = []
        for k in range(10_000):
            _, obs = simulate_hmm(m, 1.0, 0.05, seed=17, path_index=k, measure="P_tilde")
            total.append(np.exp(zakai_filter(m, m.prior, obs).log_normalizer[-1]))
        total = np.array(total)
        se = total.std(ddof=1) / np.sqrt(total.size)
        assert abs(total.mean() - 1.0) <= 3 * se


class TestZakaiOperator:
    def test_starts_at_identity(self):
        m = counter_example()
        _, obs = simulate_hmm(m, 0.5, 0.01, seed=2)
        op = zakai_operator(m, obs)
        assert np.array_equal(op.psi[0], np.eye(4))

    def test_reproduces_filter_masses(self):
        m = random_hmm(np.random.default_rng(6), d=3)
        _, obs = simulate_hmm(m, 2.0, 0.01, seed=3)
        op = zakai_operator(m, obs)
        unn = zakai_filter(m, m.prior, obs)
        applied = op.apply(m.prior.entries)
        assert np.abs(applied.log_normalizer - unn.log_normalizer).max() <= 1e-12
        assert (np.abs(applied.masses - unn.masses).max(axis=1)
                / unn.masses.max(axis=1)).max() <= 1e-12

    def test_apply_stays_finite_past_float_range(self):
        # log scale ~150 per step: after 8 steps sigma_t(1) ~ e^1200, where
        # folding the scales back in overflows
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [30.0, 0.0])
        obs = ObservationPath(dt=1.0, increments=np.full((8, 1), 20.0))
        op = zakai_operator(m, obs)
        assert op.log_scale[-1].max() > 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            applied = op.apply(m.prior.entries)
        assert np.all(np.isfinite(applied.masses)) and np.all(np.isfinite(applied.log_normalizer))
        unn = zakai_filter(m, m.prior, obs)
        assert np.abs(applied.log_normalizer - unn.log_normalizer).max() <= 1e-10
        assert np.abs(applied.masses - unn.masses).max() <= 1e-10

    def test_semigroup_property(self):
        m = random_hmm(np.random.default_rng(7), d=3)
        _, obs = simulate_hmm(m, 1.0, 0.01, seed=4)
        op_full = zakai_operator(m, obs)
        split = 40
        tail = ObservationPath(dt=obs.dt, increments=obs.increments[split:])
        op_tail = zakai_operator(m, tail)
        lhs = op_full.matrix(-1)
        rhs = op_tail.matrix(-1) @ op_full.matrix(split)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())

    def test_column_rescaling_under_growth(self):
        # exponent ~150 per step forces the column-wise rescale; the scaled
        # representation must still reproduce the log filter masses
        from scipy.special import logsumexp
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [30.0, 0.0])
        obs = ObservationPath(dt=1.0, increments=np.full((6, 1), 20.0))
        op = zakai_operator(m, obs)
        assert np.all(np.isfinite(op.psi))
        assert op.log_scale[-1].max() > 100.0
        unn = zakai_filter(m, m.prior, obs)
        with np.errstate(divide="ignore"):
            log_sigma_op = logsumexp(np.log(op.psi[-1]) + op.log_scale[-1][None, :]
                                     + np.log(m.prior.entries)[None, :], axis=1)
        log_sigma_filter = unn.log_normalizer[-1] + np.log(unn.masses[-1])
        assert np.abs(log_sigma_op - log_sigma_filter).max() <= 1e-8

    def test_linearity(self, rng):
        m = random_hmm(rng, d=4)
        _, obs = simulate_hmm(m, 1.0, 0.02, seed=6)
        op = zakai_operator(m, obs)
        mu, nu = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        a, b = 0.3, -1.2
        lhs, p_mu, p_nu = op.apply(a * mu + b * nu), op.apply(mu), op.apply(nu)
        # a Psi mu + b Psi nu, both sides divided by lhs's normalizer
        rhs = (a * np.exp(p_mu.log_normalizer - lhs.log_normalizer)[:, None] * p_mu.masses
               + b * np.exp(p_nu.log_normalizer - lhs.log_normalizer)[:, None] * p_nu.masses)
        assert np.abs(lhs.masses - rhs).max() <= 1e-10

    @pytest.mark.parametrize("measure", [[1.0], np.full(5, 0.2), np.eye(4)])
    def test_apply_rejects_a_measure_of_the_wrong_length(self, measure):
        m = random_hmm(np.random.default_rng(2), d=4)
        op = zakai_operator(m, zero_obs(3, 0.1))
        # once broadcast over the columns: apply([1.0]) returned a result
        msg = f"measure has shape {np.shape(measure)}, operator has 4 states"
        with pytest.raises(ValueError, match=re.escape(msg)):
            op.apply(measure)


def joined(blocks):
    """Rows and logs of a :func:`forward_blocks` stream, joined along time."""
    blocks = list(blocks)
    return (np.concatenate([blocks[0][0][:1]] + [r[1:] for r, _ in blocks]),
            np.concatenate([blocks[0][1][:1]] + [g[1:] for _, g in blocks]))


def assert_same_operator(op, ref):
    """``Psi(t_k)`` entrywise to 1e-12 relative, scales folded in; compared
    in the log domain, where the scaled entries cannot overflow."""
    with np.errstate(divide="ignore"):
        a, b = (np.log(p.psi) + p.log_scale[:, None, :] for p in (op, ref))
    live = np.isfinite(b)
    assert np.array_equal(np.isfinite(a), live)
    assert np.abs(a[live] - b[live]).max() <= 1e-12


class TestZakaiOperatorKernel:
    @pytest.mark.parametrize("seed, d", [(1, 2), (2, 3), (3, 4), (4, 5)])
    def test_matches_loop_oracle(self, seed, d):
        m = random_hmm(np.random.default_rng(seed), d=d, m=2)
        _, obs = simulate_hmm(m, 3.0, 0.01, seed=seed)
        op = zakai_operator(m, obs)
        assert np.all(np.abs(op.psi.sum(axis=1)[1:] - 1.0) <= 1e-14)   # columns renormalized
        assert_same_operator(op, zakai_operator_loop(m, obs))

    def test_matches_loop_oracle_under_column_growth(self):
        # exponent 150 per step: the oracle rescales its columns by 1e150
        # jumps, the kernel every step; both must give the same operator
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [30.0, 0.0])
        obs = ObservationPath(dt=1.0, increments=np.full((6, 1), 20.0))
        ref = zakai_operator_loop(m, obs)
        assert ref.log_scale[-1].max() > 100.0
        assert_same_operator(zakai_operator(m, obs), ref)

    @pytest.mark.parametrize("model, n_paths", [
        (counter_example(), 3), (random_hmm(np.random.default_rng(5), d=3, m=2), 5)])
    def test_block_stream_matches_each_record(self, model, n_paths):
        # the blocks chain and cover every step; path k of the batch must be
        # a one-path stream on path k's record, bit for bit, and the
        # single-record operator of that record
        n, dt = 1500, 0.01
        _, incs = batch_hmm_observations(model, n * dt, dt, n_paths, seed=7, measure="P_tilde")
        blocks = list(forward_blocks(model, np.eye(model.dim), incs, dt, shift=True))
        steps = [logs.shape[0] - 1 for _, logs in blocks]
        assert min(steps) >= 1 and sum(steps) == n
        for (rows, logs), (next_rows, next_logs) in zip(blocks, blocks[1:]):
            assert np.array_equal(next_rows[0], rows[-1])
            assert np.array_equal(next_logs[0], logs[-1])
        rows, logs = joined(blocks)
        for k in range(n_paths):
            one_rows, one_logs = joined(forward_blocks(model, np.eye(model.dim), incs[k:k + 1], dt,
                                                       shift=True))
            assert np.array_equal(rows[..., k], one_rows[..., 0])
            assert np.array_equal(logs[..., k], one_logs[..., 0])
            op = zakai_operator(model, ObservationPath(dt=dt, increments=incs[k]))
            assert_same_operator(op, ZakaiOperatorPath(dt=dt, psi=rows[..., k], log_scale=logs[..., k]))

    def test_column_underflow_fails_like_the_filter(self):
        # frozen chain: state 2's likelihood is exp(-800) of state 1's at
        # step 0, so its column's peak-shifted mass underflows there
        m = make_hmm(np.zeros((2, 2)), [0.0, 40.0])
        obs = zero_obs(5, 1.0)
        with pytest.raises(NumericalFailure, match=r"underflow \(step 0\)$") as op:
            zakai_operator(m, obs)
        with pytest.raises(NumericalFailure) as unn:
            zakai_filter(m, [0.0, 1.0], obs)
        assert op.value.step == unn.value.step == 0
        assert op.value.path is None
        assert np.all(zakai_operator_loop(m, obs).psi[1:, :, 1] == 0.0)    # the old rule: silently 0


class TestKalmanBucy:
    def test_lyapunov_flow_when_h_zero(self):
        # scalar: Sigma' = 2 a Sigma + q has the closed form below; the mean
        # update is Euler, so the fine grid keeps its error inside 1e-6
        a, q, s0 = -0.7, 0.3, 0.5
        m = LinearGaussianModel([[a]], [[0.0]], [[np.sqrt(q)]], [0.2], [[s0]])
        obs = zero_obs(100_000, 1e-5)
        gp = kalman_bucy(m, obs)
        t = 1.0
        closed = (s0 + q / (2 * a)) * np.exp(2 * a * t) - q / (2 * a)
        assert abs(gp.covs[-1, 0, 0] - closed) <= 1e-6
        mean_closed = 0.2 * np.exp(a * t)
        assert abs(gp.means[-1, 0] - mean_closed) <= 1e-6

    def test_scalar_converges_to_unit_variance(self):
        gp = kalman_bucy(scalar_lg(), zero_obs(20_000, 1e-3))
        assert abs(gp.covs[-1, 0, 0] - 1.0) < 1e-4

    def test_covariance_path_symmetric_psd(self, rng):
        d = 3
        m = LinearGaussianModel(rng.standard_normal((d, d)) - np.eye(d),
                                rng.standard_normal((d, 2)),
                                rng.standard_normal((d, d)), np.zeros(d), 0.3 * np.eye(d))
        _, obs = simulate_linear_gaussian(m, 1.0, 1e-3, seed=19)
        gp = kalman_bucy(m, obs)
        assert np.abs(gp.covs - np.transpose(gp.covs, (0, 2, 1))).max() <= 1e-10
        assert np.linalg.eigvalsh(gp.covs).min() >= -1e-8

    def test_stationary_start_stays_constant(self):
        sig_inf, _ = solve_are(scalar_lg())
        m = LinearGaussianModel([[0.0]], [[1.0]], [[1.0]], [0.0], sig_inf)
        gp = kalman_bucy(m, zero_obs(1000, 1e-3))
        assert np.abs(gp.covs - sig_inf).max() <= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_psd_failure_names_its_first_step(self):
        # dt = 1 is past RK4's stability limit for this flow: the oracle's
        # Sigma oscillates around its equilibrium with a growing swing, and
        # the PSD check names the first negative step; the exact flow has
        # no step-size limit and follows the closed form to 2 + sqrt(5)
        m = LinearGaussianModel([[2.0]], [[1.0]], [[1.0]], [0.0], [[0.1]])
        rk4_covs = rk4_riccati(m, m.cov0, 9, 1.0)
        covs = rk4_covs[:, 0, 0]
        first = next(k for k, c in enumerate(covs) if c < -1e-6)
        assert first == 8 and covs[first - 1] > 0
        with pytest.raises(NumericalFailure, match="step 8") as exc:
            _check_psd(rk4_covs)
        assert exc.value.step == first
        exact = kalman_bucy(m, zero_obs(9, 1.0)).covs[:, 0, 0]
        closed = scalar_riccati(2.0, 1.0, 1.0, 0.1, np.arange(10.0))
        assert np.abs(exact - closed).max() <= 1e-12
        assert abs(exact[-1] - (2.0 + np.sqrt(5.0))) <= 1e-12

    def test_dre_monotone_from_zero(self):
        rng = np.random.default_rng(8)
        m = LinearGaussianModel(rng.standard_normal((3, 3)), rng.standard_normal((3, 1)),
                                rng.standard_normal((3, 2)), np.zeros(3), np.zeros((3, 3)))
        gp = kalman_bucy(m, zero_obs(1000, 1e-3))
        f = rng.standard_normal(3)
        vals = np.einsum("k,tkl,l->t", f, gp.covs[::100], f)
        assert np.all(np.diff(vals) >= -1e-10)


LG3 = LinearGaussianModel([[-1.0, 0.3, 0.0], [-0.2, -0.8, 0.1], [0.0, -0.1, -1.2]],
                          [[1.0, 0.0], [0.0, 0.5], [0.3, 1.0]], np.diag([0.5, 0.4, 0.3]),
                          np.zeros(3), np.eye(3))


class TestRiccatiFlow:
    @pytest.mark.parametrize("a, h, q, s0, dt, n", [
        (-0.5, 1.0, 1.0, 2.0, 1e-3, 5000),     # from above the equilibrium
        (0.8, 2.0, 0.3, 0.0, 1e-2, 3000),      # unstable drift, from zero
        (-1.0, 0.5, 2.0, 0.1, 0.25, 80),       # steps far past RK4's
    ])
    def test_scalar_matches_closed_form(self, a, h, q, s0, dt, n):
        m = LinearGaussianModel([[a]], [[h]], [[np.sqrt(q)]], [0.0], [[s0]])
        covs = kalman_bucy(m, zero_obs(n, dt)).covs[:, 0, 0]
        assert np.abs(covs - scalar_riccati(a, h, q, s0, np.arange(n + 1) * dt)).max() <= 1e-12

    def test_matches_rk4_at_a_finer_step(self):
        n, dt = 1000, 1e-3                       # half grid: 2,000 steps of 5e-4
        sig = riccati_half_grid(LG3, LG3.cov0, n, dt)
        ref = rk4_riccati(LG3, LG3.cov0, 8 * n, dt / 8.0)[::4]
        assert np.abs(sig - ref).max() <= 1e-12

    @pytest.mark.parametrize("dt, n", [(0.2, 500), (1.0, 100)])
    def test_fast_flow_restarts_sooner_and_stays_exact(self, dt, n):
        # an unstable mode of rate 5: 64 steps of one chunk would grow X's
        # condition past 1e16 (at dt = 0.2 the error was 1e-6, at dt = 1 X
        # was singular at step 20); chunks that end where a power's norm
        # passes the bound keep the flow at roundoff from the ARE solution
        m = LinearGaussianModel([[5.0, 1.0], [0.0, -3.0]], [[1.0], [0.2]], np.eye(2),
                                np.zeros(2), np.eye(2))
        sig_inf, _ = solve_are(m)
        assert np.abs(kalman_bucy(m, zero_obs(n, dt)).covs[-1] - sig_inf).max() <= 1e-12

    def test_overflowed_propagator_fails_at_step_one(self):
        # expm(Ham dt) holds exp(800): X is not finite at the first step
        m = LinearGaussianModel([[800.0]], [[1.0]], [[1.0]], [0.0], [[1.0]])
        with pytest.raises(NumericalFailure, match="Riccati propagator") as exc:
            kalman_bucy(m, zero_obs(5, 1.0))
        assert exc.value.step == 1

    @pytest.mark.parametrize("powers", [64, 3])
    def test_singular_x_names_its_step(self, powers):
        # Sigma' = -Sigma^2 from Sigma_0 = -1 blows up at t = 1: X = 1 - t is
        # exactly 0 at step 4 of 1/4, inside the first chunk, or first in the
        # chunk that restarts from Sigma_3 = -4
        phi = np.array([[[1.0, 0.25 * l], [0.0, 1.0]] for l in range(1, powers + 1)])
        assert np.array_equal(fractional_flow(phi, np.array([[-1.0]]), 3)[:, 0, 0],
                              [-1.0, -4.0 / 3.0, -2.0, -4.0])
        with pytest.raises(NumericalFailure, match="singular") as exc:
            fractional_flow(phi, np.array([[-1.0]]), 8)
        assert exc.value.step == 4


class TestSolveAre:
    def test_scalar_closed_form(self):
        sig, hurwitz = solve_are(scalar_lg())
        assert abs(sig[0, 0] - 1.0) <= 1e-8
        assert hurwitz
        closed_loop = -sig[0, 0]
        assert closed_loop == pytest.approx(-1.0, abs=1e-8)

    def test_h_zero_reduces_to_lyapunov(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        m = LinearGaussianModel(a, np.zeros((3, 1)), rng.standard_normal((3, 3)),
                                np.zeros(3), np.eye(3))
        sig, _ = solve_are(m)
        residual = a.T @ sig + sig @ a + m.noise_cov
        assert np.abs(residual).max() <= 1e-8

    def test_divergence_reported(self):
        m = LinearGaussianModel([[0.0]], [[0.0]], [[1.0]], [0.0], [[1.0]])
        with pytest.raises(NumericalFailure, match="not stabilizable"):
            solve_are(m)

    @pytest.mark.parametrize("a, h, sigma", [
        # the unstable mode is neither observed nor forced: the stable
        # subspace of the Hamiltonian is not a graph
        (np.diag([1.0, -1.0]), [[0.0], [1.0]], np.diag([0.0, 1.0])),
        # ... nor when it is forced
        (np.diag([1.0, -1.0]), [[0.0], [1.0]], np.eye(2)),
        # a rotation, unobserved: the Hamiltonian's eigenvalues are +-i
        ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [0.0]], np.eye(2)),
        # a neutral mode, unobserved: the Hamiltonian is singular
        (np.diag([0.0, -1.0]), [[0.0], [1.0]], np.eye(2)),
    ])
    def test_rejects_a_model_without_stabilizing_solution(self, a, h, sigma):
        m = LinearGaussianModel(a, h, sigma, np.zeros(2), np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            solve_continuous_are(m.a_mat, m.h_mat, m.noise_cov, np.eye(1))
        with pytest.raises(NumericalFailure, match="not stabilizable"):
            solve_are(m)

    def test_matches_scipy_on_random_models(self):
        # random A, H (d <= 4, m <= 2) and full-rank sigma: stabilizable and
        # detectable.  A few draws are so ill-conditioned (|Sigma| up to 1e7)
        # that the oracle's own residual exceeds the package's tolerance;
        # there is nothing to compare at 1e-10, and solve_are rejects them
        # or returns a solution within its tolerance.  Seed 400 needs the
        # residual Newton step: the graph solution alone misses the
        # tolerance (1.2e-8) where the oracle meets it
        compared = 0
        for seed in range(500):
            rng = np.random.default_rng(seed)
            d, n_ch = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            m = LinearGaussianModel(rng.standard_normal((d, d)), rng.standard_normal((d, n_ch)),
                                    rng.standard_normal((d, d)), np.zeros(d), np.eye(d))
            ref = solve_continuous_are(m.a_mat, m.h_mat, m.noise_cov, np.eye(n_ch))
            if np.abs(riccati_rhs(m.a_mat, m.h_mat, m.noise_cov, ref)).max() > ARE_RESIDUAL_TOL:
                continue
            sig, hurwitz = solve_are(m)
            assert hurwitz
            assert np.abs(sig - ref).max() <= 1e-10 * np.abs(ref).max(), seed
            compared += 1
        assert compared >= 200

    @pytest.mark.parametrize("k", [1e5, 1e6])
    def test_verdict_does_not_depend_on_units(self, k):
        # LG3 with its state measured in units k times smaller: the residual
        # grows as k^2, the scale of the equation's terms with it
        m = LinearGaussianModel(LG3.a_mat, LG3.h_mat / k, LG3.sigma * k, LG3.mean0, LG3.cov0 * k * k)
        sig, hurwitz = solve_are(m)
        ref, _ = solve_are(LG3)
        assert hurwitz
        assert np.abs(sig / (k * k) - ref).max() <= 1e-10 * np.abs(ref).max()


class TestKfMarkovChain:
    def test_no_information_follows_prior_flow(self):
        m = counter_example()
        silent = make_hmm(m.rate.entries, np.zeros(4), [0.7, 0.1, 0.1, 0.1])
        est, _ = kf_markov_chain(silent, zero_obs(200, 0.01))
        flow = expm(silent.rate.entries.T * 2.0) @ silent.prior.entries
        assert np.abs(est[-1] - flow).max() <= 1e-10

    def test_batch_matches_single(self):
        from dualfilter.filters import kf_markov_chain_batch
        m = random_hmm(np.random.default_rng(22), d=3)
        _, obs = simulate_hmm(m, 1.0, 0.01, seed=23)
        est, _ = kf_markov_chain(m, obs)
        batch = kf_markov_chain_batch(m, obs.increments[None], obs.dt)
        assert np.abs(batch[0] - est).max() <= 1e-12

    def test_suboptimal_vs_wonham_and_dual_cost(self):
        from dualfilter.duality import dual_deterministic_markov
        from dualfilter.filters import kf_markov_chain_batch, wonham_filter_batch
        from dualfilter.sim import batch_hmm_observations
        m = random_hmm(np.random.default_rng(10), d=3)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(3)
        horizon, dt, n_paths = 2.0, 0.005, 4000
        paths, incs = batch_hmm_observations(m, horizon, dt, n_paths, seed=55)
        kf = kf_markov_chain_batch(m, incs, dt)
        wb = wonham_filter_batch(m, m.prior, incs, dt)
        x_term = paths.terminal()
        truth = f[x_term]
        err_kf = (truth - kf[:, -1] @ f) ** 2
        err_w = (truth - wb[:, -1] @ f) ** 2
        diff = err_kf - err_w
        se = diff.std(ddof=1) / np.sqrt(n_paths)
        assert diff.mean() >= -3 * se  # chain KF cannot beat the optimal filter
        cost, *_ = dual_deterministic_markov(m, f, horizon, dt)
        se_kf = err_kf.std(ddof=1) / np.sqrt(n_paths)
        assert abs(err_kf.mean() - cost) <= 3 * se_kf


class TestInnovation:
    def test_zero_h_innovation_is_observation(self):
        m = counter_example()
        silent = make_hmm(m.rate.entries, np.zeros(4), m.prior.entries)
        _, obs = simulate_hmm(silent, 1.0, 0.01, seed=14)
        bel = wonham_filter(silent, silent.prior, obs)
        assert np.array_equal(innovation_path(silent, bel, obs), obs.increments)

    def test_brownian_statistics(self):
        m = two_state(1.0, 2.0)
        dt, n = 0.002, 100_000
        _, obs = simulate_hmm(m, n * dt, dt, seed=15)
        bel = wonham_filter(m, m.prior, obs)
        inc = innovation_path(m, bel, obs).ravel()
        se_mean = inc.std(ddof=1) / np.sqrt(n)
        assert abs(inc.mean()) <= 3 * se_mean
        var_se = inc.var(ddof=1) * np.sqrt(2.0 / n)
        assert abs(inc.var(ddof=1) - dt) <= 3 * var_se + 0.01 * dt
        qv = float((inc**2).sum())
        assert abs(qv - n * dt) <= 3 * np.sqrt(2 * n) * dt + 5 * np.sqrt(dt)
