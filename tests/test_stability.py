"""Divergences, Poincare constants, twin-filter stability experiments."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_hmm, random_hmm, simplex_vectors
from dualfilter.catalog import counter_example, doeblin_demo, two_class_demo, two_state
from dualfilter.filters import wonham_filter_batch
from dualfilter.sim import batch_hmm_observations
from dualfilter.stability import (PriorPair, _mean_stderr, beta_process, chi2_bound_check,
                                  divergences, divergences_batch, ergodic_class_detection,
                                  kl_supermartingale_check, pi_constant, stability_index,
                                  twin_filter_experiment)
from dualfilter.models import invariant_measure


class TestDivergences:
    def test_equal_measures(self):
        assert divergences([0.2, 0.8], [0.2, 0.8]) == (0.0, 0.0, 0.0)

    def test_point_mass_versus_uniform(self):
        chi2, kl, tv = divergences([1.0, 0.0], [0.5, 0.5])
        assert chi2 == pytest.approx(1.0)
        assert kl == pytest.approx(np.log(2.0))
        assert tv == pytest.approx(0.5)

    def test_support_violation_returns_infinity(self):
        chi2, kl, tv = divergences([0.5, 0.5], [1.0, 0.0])
        assert np.isinf(chi2) and np.isinf(kl)
        assert tv == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(simplex_vectors(4), simplex_vectors(4))
    def test_pinsker_chain(self, p, q):
        chi2, kl, tv = divergences(p, q)
        assert 2.0 * tv**2 <= kl + 1e-10
        assert kl <= chi2 + 1e-10


class TestPriorPair:
    def test_density_bounds(self):
        pair = PriorPair.of([0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3])
        assert pair.a_lower == pytest.approx(0.6)
        assert pair.a_upper == pytest.approx(1.5)

    def test_absolute_continuity_required(self):
        with pytest.raises(ValueError, match="absolutely continuous"):
            PriorPair.of([0.5, 0.5], [1.0, 0.0])


class TestTwinFilter:
    def test_identical_priors_give_zero_traces(self):
        m = doeblin_demo()
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        trace = twin_filter_experiment(m, pair, 1.0, 0.01, 50, seed=1)
        assert trace.tv.max() <= 1e-10
        assert trace.chi2.max() <= 1e-10

    def test_counter_example_total_variation_floor(self):
        # mismatched priors on the states {0, 2}.  In the noiseless limit the
        # filter sees the jump times exactly; 0->1 and 2->3 both fire at rate
        # 1, so the twin beliefs keep the ratio p : 1 - p and the total
        # variation stays at |p - p2|.  At finite gain the model is
        # stabilizable and the twin filters merge, at a rate that falls as
        # the gain grows (log-slope about -0.22 at gain 10 and -0.09 at gain
        # 20); at gain 40 the gap is still above half of |p - p2| at T = 20
        m = counter_example().with_obs_scale(40.0)
        p, p2 = 0.9, 0.1
        pair = PriorPair.of([p, 0.0, 1 - p, 0.0], [p2, 0.0, 1 - p2, 0.0])
        trace = twin_filter_experiment(m, pair, 20.0, 5e-4, 100, seed=2, keep_every=2000)
        assert trace.tv[-1] >= 0.5 * abs(p - p2) - 0.05

    def test_doeblin_chi2_decays_at_poincare_rate(self):
        m = doeblin_demo()
        c = pi_constant(m, "doeblin").value
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        trace = twin_filter_experiment(m, pair, 6.0, 0.01, 4000, seed=3, keep_every=60)
        chi2_0 = pair.chi2()
        t = trace.grid()
        bound = np.exp(-c * t) * chi2_0 / pair.a_lower
        assert np.all(trace.chi2[1:] <= bound[1:] + 3 * trace.chi2_stderr[1:])

    def test_density_ratio_bound(self):
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        trace = twin_filter_experiment(m, pair, 3.0, 0.01, 200, seed=4)
        assert trace.gamma_max <= pair.a_upper / pair.a_lower + 1e-6

    def test_mean_traces_respect_divergence_chain(self):
        # Jensen carries the pointwise chain to the Monte-Carlo means
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        trace = twin_filter_experiment(m, pair, 2.0, 0.01, 500, seed=21)
        assert np.all(2.0 * trace.tv**2 <= trace.kl + 1e-10)
        assert np.all(trace.kl <= trace.chi2 + 1e-10)

    def test_l2_gaps_reported(self):
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        f = np.array([[1.0, 0.0, -1.0]])
        trace = twin_filter_experiment(m, pair, 2.0, 0.01, 100, seed=5, f_list=f)
        assert trace.l2_gaps.shape[0] == 1
        assert np.all(trace.l2_gaps >= 0.0)


class TestKlSupermartingale:
    def test_identical_priors_identically_zero(self):
        m = doeblin_demo()
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        rep = kl_supermartingale_check(m, pair, 1.0, 0.01, 50, seed=6)
        assert rep["kl_prior"] == 0.0
        assert rep["kl_mean"].max() <= 1e-10

    def test_random_three_state_bounds(self, rng):
        m = random_hmm(rng, d=3)
        pair = PriorPair.of(rng.dirichlet(np.ones(3) * 5), rng.dirichlet(np.ones(3) * 5))
        rep = kl_supermartingale_check(m, pair, 4.0, 0.01, 3000, seed=7)
        assert rep["bounded_by_prior"]
        assert rep["non_increasing"]
        assert rep["obs_energy_bounded"]


class TestPiConstant:
    def test_symmetric_two_state_value(self):
        assert pi_constant(two_state(1.0, 1.0), "closed-form-2state").value == pytest.approx(4.0)

    @pytest.mark.parametrize("a1,a2,expected", [(1.0, 1.0, 4.0), (4.0, 1.0, 9.0), (9.0, 4.0, 25.0)])
    def test_closed_form_matches_brute_force(self, a1, a2, expected):
        m = two_state(a1, a2)
        closed = pi_constant(m, "closed-form-2state")
        brute = pi_constant(m, "brute-force", resolution=1e-3)
        assert closed.value == pytest.approx(expected)
        assert abs(closed.value - brute.value) <= 1e-2
        assert brute.value >= closed.value - 1e-2
        rho, f = brute.certificate
        assert rho.min() > 0 and abs(rho.sum() - 1.0) <= 1e-9

    def test_doeblin_constant(self):
        assert pi_constant(doeblin_demo(), "doeblin").value == pytest.approx(3.0)

    def test_sqrt_constant_zero_with_one_way_edge(self):
        assert pi_constant(counter_example(), "sqrt").value == 0.0

    def test_sqrt_constant_symmetric_case(self):
        m = make_hmm([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], [1.0, 0.0, -1.0])
        assert pi_constant(m, "sqrt").value == pytest.approx(2.0)

    def test_brute_force_three_state_dominates_closed_lower_bounds(self):
        m = doeblin_demo()
        brute = pi_constant(m, "brute-force", n_samples=20_000, seed=3)
        assert brute.value >= pi_constant(m, "doeblin").value - 5e-2
        assert brute.value >= pi_constant(m, "sqrt").value - 5e-2

    def test_method_preconditions(self):
        with pytest.raises(ValueError, match="d = 2"):
            pi_constant(doeblin_demo(), "closed-form-2state")
        with pytest.raises(ValueError, match="irreducible"):
            pi_constant(make_hmm([[0.0, 0.0], [1.0, -1.0]], [1.0, 0.0]), "closed-form-2state")


class TestBetaProcess:
    def test_constant_invariant_belief(self):
        m = doeblin_demo()
        mubar = invariant_measure(m.rate).entries
        beliefs = np.tile(mubar, (101, 1))
        a = m.rate.entries
        row_min = np.array([min(a[i, j] for j in range(3) if j != i) for i in range(3)])
        beta, avg = beta_process(m, beliefs, 0.1)
        assert np.allclose(beta, mubar @ row_min)
        assert avg[-1] == pytest.approx(mubar @ row_min)

    def test_time_average_approaches_invariant_limit(self):
        from dualfilter.filters import wonham_filter_batch
        from dualfilter.sim import batch_hmm_observations
        m = doeblin_demo()
        mubar = invariant_measure(m.rate).entries
        a = m.rate.entries
        row_min = np.array([min(a[i, j] for j in range(3) if j != i) for i in range(3)])
        limit = mubar @ row_min
        _, incs = batch_hmm_observations(m, 100.0, 0.02, 20, seed=8)
        bels = wonham_filter_batch(m, m.prior, incs, 0.02)
        avgs = []
        for p in range(20):
            _, avg = beta_process(m, bels[p], 0.02)
            avgs.append(avg[-1])
        assert abs(np.mean(avgs) - limit) <= 0.05 * limit

    def test_row_min_domination_instance(self):
        # all rates equal: row minima all equal the Doeblin constant / d
        m = make_hmm([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], [1.0, 0.0, -1.0])
        c_doe = pi_constant(m, "doeblin").value
        beliefs = np.random.default_rng(0).dirichlet(np.ones(3), size=50)
        beta, _ = beta_process(m, beliefs, 0.1)
        assert np.all(beta >= c_doe / 3 - 1e-12)


class TestStabilityIndex:
    def test_counter_example_slope_is_flat(self):
        # small effective noise (high gain) approximates the noiseless limit,
        # whose total-variation slope is exactly zero
        m = counter_example().with_obs_scale(60.0)
        pair = PriorPair.of([0.9, 0.0, 0.1, 0.0], [0.1, 0.0, 0.9, 0.0])
        rep = stability_index(m, pair, 10.0, 4e-4, 100, seed=9)
        assert not rep.degenerate
        assert abs(rep.slope) <= 0.02
        assert rep.sqrt_bound == 0.0  # every edge of the cycle is one-way
        assert rep.row_min_bound == 0.0

    def test_mixing_three_state_beats_sqrt_bound(self):
        m = make_hmm([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], [1.0, 0.0, -1.0])
        pair = PriorPair.of([0.7, 0.2, 0.1], np.full(3, 1 / 3))
        rep = stability_index(m, pair, 5.0, 0.005, 2000, seed=10)
        assert not rep.degenerate
        assert rep.sqrt_bound == pytest.approx(-2.0)
        assert rep.slope <= rep.sqrt_bound + 3 * rep.slope_stderr + 0.2

    def test_equal_priors_flagged(self):
        m = doeblin_demo()
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        rep = stability_index(m, pair, 2.0, 0.01, 50, seed=11)
        assert rep.degenerate
        assert np.isnan(rep.slope)


class TestErgodicClassDetection:
    def test_informative_classes_detected(self):
        m = two_class_demo()
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        rep = ergodic_class_detection(m, pair, 30.0, 0.01, 400, seed=12)
        assert rep["decomposition_ok"]
        assert rep["detection_error"].max() <= 0.05

    def test_blind_variant_stuck_at_prior(self):
        m = two_class_demo(h_scale=0.0)
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        rep = ergodic_class_detection(m, pair, 30.0, 0.01, 400, seed=13)
        class_masses = np.array([0.5, 0.5])
        floor = class_masses.min() / 2.0
        assert rep["detection_error"].min() >= floor

    def test_single_class_trivial(self):
        m = doeblin_demo()
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        rep = ergodic_class_detection(m, pair, 2.0, 0.01, 50, seed=14)
        assert rep["detection_error"].max() <= 1e-12

    def test_class_mass_martingale_has_zero_drift(self):
        m = two_class_demo()
        nu = np.array([0.1, 0.2, 0.4, 0.3])
        pair = PriorPair.of(nu, nu)
        rep = ergodic_class_detection(m, pair, 5.0, 0.01, 2000, seed=15)
        drift = rep["class_mass_drift"]
        se = rep["class_mass_drift_stderr"]
        assert np.all(np.abs(drift) <= 3 * se)

    def test_class_without_nu_mass_is_left_out(self):
        # nu puts no mass on the second class, whose conditional prior would
        # be 0/0: it stays out of the pass, the first class alone recomposes
        # the filter, and the filter from nu knows every path's class
        m = two_class_demo()
        nu = np.array([0.5, 0.5, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ergodic_class_detection(m, PriorPair.of(nu, nu), 5.0, 0.01, 50, seed=17)
        assert rep["decomposition_gap"] == 0.0
        assert np.array_equal(rep["detection_error"], [0.0, 0.0])

    def test_transient_states_rejected(self):
        a = np.array([
            [-1.0, 0.5, 0.5],
            [0.0, -1.0, 1.0],
            [0.0, 1.0, -1.0],
        ])
        m = make_hmm(a, [1.0, 0.0, 0.0])
        pair = PriorPair.of(m.prior.entries, m.prior.entries)
        with pytest.raises(ValueError, match="transient"):
            ergodic_class_detection(m, pair, 1.0, 0.01, 10, seed=16)


class TestChi2Bound:
    def test_time_zero_trivial(self):
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        assert pair.a_lower * pair.chi2() <= pair.chi2()

    def test_doeblin_bound_holds_at_checkpoints(self):
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        c = pi_constant(m, "doeblin").value
        rep = chi2_bound_check(m, pair, 6.0, 0.01, 3000, seed=17, c=c)
        assert rep["all_hold"]
        assert rep["gamma_max"] <= rep["gamma_limit"] + 1e-6

    def test_zero_rate_reduces_to_supermartingale_bound(self):
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
        rep = chi2_bound_check(m, pair, 4.0, 0.01, 1500, seed=18, c=0.0)
        assert rep["all_hold"]

    def test_positive_lower_bound_required(self):
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.5, 0.0], np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="lower bound"):
            chi2_bound_check(m, pair, 1.0, 0.01, 10, seed=19, c=1.0)


class TestStreamedTwinReductions:
    """The twin reductions run a block of grid points at a time; they must
    give what the full (paths, times, d) belief arrays give."""

    @staticmethod
    def full_beliefs(model, pair, horizon, dt, n_paths, seed, keep=1):
        # the path-major arrays the reductions were written for
        _, incs = batch_hmm_observations(model.with_prior(pair.mu), horizon, dt, n_paths, seed,
                                         measure="P")
        return (np.ascontiguousarray(wonham_filter_batch(model, pair.mu, incs, dt, keep)),
                np.ascontiguousarray(wonham_filter_batch(model, pair.nu, incs, dt, keep)))

    # 103 steps is no multiple of the 16-step block; 5 and 7 do not divide it,
    # and 40 keeps at most one point per block
    @pytest.mark.parametrize("keep", [1, 5, 7, 40])
    def test_twin_experiment_matches_full_arrays(self, keep):
        m = random_hmm(np.random.default_rng(31), d=3, m=2)
        pair = PriorPair.of([0.6, 0.3, 0.1], [0.2, 0.3, 0.5])
        f = np.array([[1.0, 0.0, 0.0], [0.5, -1.0, 2.0]])
        trace = twin_filter_experiment(m, pair, 1.03, 0.01, 40, seed=12, f_list=f, keep_every=keep)
        pm, pn = self.full_beliefs(m, pair, 1.03, 0.01, 40, 12, keep)
        for name, div in zip(("chi2", "kl", "tv"), divergences_batch(pm, pn)):
            mean, se = _mean_stderr(div)
            assert np.array_equal(getattr(trace, name), mean)
            assert np.array_equal(getattr(trace, name + "_stderr"), se)
        gaps = (np.einsum("ptd,fd->fpt", pm, f) - np.einsum("ptd,fd->fpt", pn, f)) ** 2
        assert np.array_equal(trace.l2_gaps, gaps.mean(axis=1))
        assert np.array_equal(trace.l2_stderr, gaps.std(axis=1, ddof=1) / np.sqrt(40))
        ratio = np.where(pn > 1e-15, pm / np.where(pn > 1e-15, pn, 1.0), 0.0)
        assert trace.gamma_max == ratio.max()
        assert trace.dt == 0.01 * keep

    def test_kl_check_matches_full_arrays(self):
        m = doeblin_demo()
        pair = PriorPair.of([0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3])
        rep = kl_supermartingale_check(m, pair, 1.03, 0.01, 60, seed=8, n_checkpoints=7)
        pm, pn = self.full_beliefs(m, pair, 1.03, 0.01, 60, 8)
        _, kl, _ = divergences_batch(pm, pn)
        kl_mean, kl_se = _mean_stderr(kl)
        assert np.array_equal(rep["kl_mean"], kl_mean)
        assert np.array_equal(rep["kl_stderr"], kl_se)
        assert rep["kl_lower_max"] == np.max(kl_mean[1:] - 3.0 * kl_se[1:])
        idx = np.linspace(0, 103, 8).round().astype(int)[1:]
        diffs = kl[:, idx[1:]] - kl[:, idx[:-1]]
        rise = np.max(diffs.mean(axis=0) - 3.0 * diffs.std(axis=0, ddof=1) / np.sqrt(60))
        assert rep["rise_lower_max"] == rise
        h = m.obs.entries
        gap = pm[:, :-1] @ h - pn[:, :-1] @ h
        energy = 0.5 * np.einsum("ptm,ptm->p", gap, gap) * 0.01
        assert abs(rep["obs_energy"] - energy.mean()) <= 1e-14 * energy.mean()
        assert abs(rep["obs_energy_stderr"] - energy.std(ddof=1) / np.sqrt(60)) \
            <= 1e-14 * rep["obs_energy_stderr"]
