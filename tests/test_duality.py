"""Dual control system: controllable subspace, gramian, duality principle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm

from conftest import LG3, make_hmm, random_hmm, rate_matrices
from loop_oracles import backward_dual_half_grid_loop, zakai_operator_loop
from dualfilter.catalog import counter_example, doeblin_demo, two_class_demo, two_state
from dualfilter.duality import (Subspace, backward_dual_ode, bsde_tree_oracle,
                                controllable_subspace, dual_cost_deterministic,
                                dual_deterministic_markov,
                                dual_lq_linear_gaussian, duality_check_mc, gramian_mc,
                                is_observable, is_stabilizable, lti_controllability)
from dualfilter.filters import riccati_half_grid
from dualfilter.models import LinearGaussianModel, model_from_dict
from dualfilter.sim import ObservationPath, batch_hmm_observations


def exact_gramian(model, horizon: float, dt: float) -> np.ndarray:
    """Exact mean of the Monte-Carlo gramian's splitting scheme.

    One operator step is ``Psi_{k+1} = L_k T Psi_k`` with ``T = expm(A^T dt)``
    and ``L_k = diag(exp(H dZ_k - |h_i|^2 dt / 2))``.  Under the reference
    measure the increments are independent of ``Psi_k`` and
    ``E[L_ii L_jj] = exp((H H^T)_ij dt)``, so the second moment follows the
    linear recursion
    ``E[Psi_{k+1} (x) Psi_{k+1}] = diag(vec(exp(H H^T dt))) (T (x) T) E[Psi_k (x) Psi_k]``
    and the gramian is ``11^T + dt sum_{k<n} sum_ij (H H^T)_ij E[Psi_k (x) Psi_k]_{(i,j),.}``.
    """
    d = model.dim
    h = model.obs.entries
    q = h @ h.T
    trans = expm(model.rate.entries.T * dt)
    step = np.exp(q * dt).reshape(-1, 1) * np.kron(trans, trans)
    moment = np.eye(d * d)
    total = np.zeros((d * d, d * d))
    for _ in range(round(horizon / dt)):
        total += moment
        moment = step @ moment
    return np.ones((d, d)) + dt * (q.reshape(-1) @ total).reshape(d, d)


class TestControllableSubspace:
    def test_constant_observation_gives_dimension_one(self):
        m = make_hmm([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.2, 0.3, -0.5]], [2.0, 2.0, 2.0])
        assert controllable_subspace(m).dim == 1

    def test_counter_example_dimension(self):
        # hand closure from span{1}: the generators produce
        #   H = (1,0,1,0),  AH = (-1,1,-1,1),  H.AH = -H,  A(AH) = -2 AH,
        #   (AH).(AH) = 1,  H.H = H
        # and AH = 1 - 2H exactly, so the closure is span{1, H} with dim 2
        sub = controllable_subspace(counter_example())
        assert sub.dim == 2
        one = np.ones(4) / 2.0
        h = np.array([1.0, 0.0, 1.0, 0.0])
        assert sub.residual(one) <= 1e-12
        assert sub.residual(h) <= 1e-12

    def test_injective_observation_is_fully_observable(self):
        # frozen chain with pairwise distinct h levels: Vandermonde-type closure
        m = make_hmm(np.zeros((4, 4)), [0.3, -0.2, 1.1, 2.0])
        assert controllable_subspace(m).dim == 4

    @settings(max_examples=40, deadline=None)
    @given(rate_matrices(4))
    def test_closure_is_invariant(self, a):
        rng = np.random.default_rng(int(abs(a).sum() * 1e6) % 2**32)
        h = rng.standard_normal((4, 2))
        m = make_hmm(a, h)
        sub = controllable_subspace(m)
        for k in range(sub.dim):
            v = sub.basis[:, k]
            assert sub.residual(a @ v) <= 1e-8
            for j in range(2):
                assert sub.residual(h[:, j] * v) <= 1e-8
        assert sub.residual(np.ones(4) / 2.0) <= 1e-8

    def test_appending_observation_column_never_shrinks(self, rng):
        for _ in range(20):
            m = random_hmm(rng, d=4, m=1)
            base = controllable_subspace(m).dim
            extra = np.column_stack([m.obs.entries, rng.standard_normal(4)])
            bigger = controllable_subspace(make_hmm(m.rate.entries, extra, m.prior.entries)).dim
            assert bigger >= base


class TestObservability:
    def test_counter_example_not_observable_with_certificate(self):
        observable, certificate = is_observable(counter_example())
        assert not observable
        assert certificate.dim == 2
        # every unobservable direction has zero total mass, and the classic
        # direction (1,0,-1,0) lies inside the certificate space
        assert np.abs(certificate.basis.T @ np.ones(4)).max() <= 1e-10
        delta = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.abs(certificate.project(delta) - delta).max() <= 1e-10

    def test_injective_h_observable(self, rng):
        for _ in range(10):
            m = random_hmm(rng, d=3)
            h = rng.permutation(np.arange(1.0, 4.0))[:, None]
            observable, _ = is_observable(make_hmm(m.rate.entries, h, m.prior.entries))
            assert observable

    def test_constant_h_never_observable(self):
        m = make_hmm([[-1.0, 1.0], [2.0, -2.0]], [3.0, 3.0])
        observable, certificate = is_observable(m)
        assert not observable and certificate.dim == 1


class TestStabilizability:
    def test_single_class_always_stabilizable(self, rng):
        for _ in range(10):
            m = random_hmm(rng, d=4)
            ok, _ = is_stabilizable(m)
            assert ok

    def test_two_blind_classes_not_stabilizable(self):
        a = np.zeros((4, 4))
        a[:2, :2] = [[-1.0, 1.0], [2.0, -2.0]]
        a[2:, 2:] = [[-0.5, 0.5], [0.7, -0.7]]
        m = make_hmm(a, np.zeros(4))
        ok, cert = is_stabilizable(m)
        assert not ok
        assert cert["null_basis"].shape[1] == 2

    def test_class_indicator_observation_restores_stabilizability(self):
        a = np.zeros((4, 4))
        a[:2, :2] = [[-1.0, 1.0], [2.0, -2.0]]
        a[2:, 2:] = [[-0.5, 0.5], [0.7, -0.7]]
        m = make_hmm(a, [1.0, 1.0, 0.0, 0.0])
        ok, cert = is_stabilizable(m)
        assert ok
        assert cert["residuals"].max() <= 1e-8


class TestLtiControllability:
    def test_full_rank_direct(self):
        sub = lti_controllability(np.zeros((3, 3)), np.eye(3))
        assert sub.dim == 3

    def test_zero_input_matrix(self):
        assert lti_controllability(np.ones((3, 3)) * 0.1, np.zeros((3, 1))).dim == 0

    def test_companion_single_input_chain(self):
        d = 4
        a = np.zeros((d, d))
        a[1:, :-1] = np.eye(d - 1)
        a[0] = [-0.3, -0.2, -0.1, -0.5]
        e_d = np.zeros(d)
        e_d[0] = 1.0
        assert lti_controllability(a, e_d).dim == d


    @pytest.mark.parametrize("seed", range(12))
    def test_closure_matches_krylov_range(self, seed):
        # controllable pairs, and pairs with an uncontrollable part (A block
        # triangular, H in the first r coordinates) in a random basis
        rng = np.random.default_rng(seed)
        d, n_in = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        a, h = rng.standard_normal((d, d)), rng.standard_normal((d, n_in))
        r = int(rng.integers(0, d + 1)) if seed % 2 else d
        a[r:, :r] = 0.0
        h[r:] = 0.0
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a, h = basis @ a @ basis.T, basis @ h
        krylov = np.hstack([np.linalg.matrix_power(a, k) @ h for k in range(d)])
        u, sv, _ = np.linalg.svd(krylov)
        ref = u[:, :int(np.sum(sv > 1e-9 * sv[0]))] if sv[0] > 0 else np.zeros((d, 0))
        sub = lti_controllability(a, h)
        assert sub.dim == ref.shape[1] <= r
        assert np.abs(sub.basis @ sub.basis.T - ref @ ref.T).max() <= 1e-10


class TestLtiGramianTransfer:
    def test_gramian_control_achieves_transfer_with_minimal_energy(self, rng):
        # classic reachability identity: with u_t = H' exp(A' t) xi the system
        # -dy/dt = A y + H u driven backward from y_T = 0 reaches y_0 = W xi,
        # and the control energy is xi' W xi
        d, m = 3, 2
        a = rng.standard_normal((d, d))
        h = rng.standard_normal((d, m))
        horizon, n = 1.0, 4000
        dt = horizon / n
        ts = np.linspace(0.0, horizon, n + 1)
        e_at = np.stack([expm(a * t) for t in ts])
        integrand = np.einsum("tij,jk,tlk->til", e_at, h @ h.T, e_at)
        w = np.trapezoid(integrand, dx=dt, axis=0)
        xi = rng.standard_normal(d)
        u = np.einsum("jm,tjk,k->tm", h, np.transpose(e_at, (0, 2, 1)), xi)
        y = np.zeros(d)
        for k in range(n, 0, -1):
            um = 0.5 * (u[k] + u[k - 1])
            k1 = a @ y + h @ u[k]
            k2 = a @ (y + 0.5 * dt * k1) + h @ um
            k3 = a @ (y + 0.5 * dt * k2) + h @ um
            k4 = a @ (y + dt * k3) + h @ u[k - 1]
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(y - w @ xi).max() <= 1e-6 * max(1.0, np.abs(w @ xi).max())
        energy = np.trapezoid(np.einsum("tm,tm->t", u, u), dx=dt)
        assert abs(energy - xi @ w @ xi) <= 1e-6 * max(1.0, abs(xi @ w @ xi))


class TestGramian:
    def test_zero_h_is_exactly_ones(self):
        m = make_hmm(counter_example().rate.entries, np.zeros(4))
        est = gramian_mc(m, 1.0, 0.01, 10, seed=3)
        assert np.array_equal(est.mean, np.ones((4, 4)))
        assert np.array_equal(est.stderr, np.zeros((4, 4)))

    def test_counter_example_rank_matches_closure(self):
        m = counter_example()
        est = gramian_mc(m, 1.0, 0.01, 6000, seed=123)
        assert est.rank() == controllable_subspace(m).dim == 2
        assert np.abs(est.mean - est.mean.T).max() <= 3 * est.stderr.max()

    def test_observable_two_state_full_rank(self):
        m = make_hmm([[-1.0, 1.0], [2.0, -2.0]], [0.5, -0.5])
        est = gramian_mc(m, 2.0, 0.01, 4000, seed=11)
        assert est.rank() == 2 == controllable_subspace(m).dim

    @pytest.mark.parametrize("model, dim", [
        (counter_example(), 2),
        (two_class_demo(), 2),
        (doeblin_demo(), 3),
        (two_class_demo(h_scale=0.0), 1),
    ], ids=["counter_example", "two_class_demo", "doeblin_demo", "two_class_blind"])
    def test_default_rank_is_closure_dim(self, model, dim):
        # a cutoff of 10x the entry stderr gave 1, 0, 1 and 4 on these models;
        # with H = 0 the stderr is 0 and roundoff singular values were counted
        est = gramian_mc(model, 2.0, 0.01, 200, seed=7)
        assert controllable_subspace(model).dim == dim
        assert est.rank() == dim

    def test_explicit_threshold_is_absolute(self):
        est = gramian_mc(counter_example(), 1.0, 0.01, 100, seed=3)
        s = np.linalg.svd(est.mean, compute_uv=False)
        assert est.rank(threshold=0.5 * (s[0] + s[1])) == 1
        assert est.rank(threshold=2.0 * s[0]) == 0
        assert est.rank(rel_tol=0.5 * (s[0] + s[1]) / s[0]) == 1

    @pytest.mark.parametrize("model", [counter_example(), doeblin_demo(), two_state(1.0, 2.0)],
                             ids=["counter_example", "doeblin_demo", "two_state"])
    def test_mc_matches_exact_oracle(self, model):
        est = gramian_mc(model, 1.0, 0.01, 400, seed=17)
        exact = exact_gramian(model, 1.0, 0.01)
        assert (np.abs(est.mean - exact) / est.stderr).max() <= 4.0
        s = np.linalg.svd(exact, compute_uv=False)
        assert int(np.sum(s > 1e-9 * s[0])) == controllable_subspace(model).dim

    @pytest.mark.parametrize("model", [counter_example(), doeblin_demo(), two_state(1.0, 2.0),
                                       random_hmm(np.random.default_rng(3), d=3, m=2)],
                             ids=["counter_example", "doeblin_demo", "two_state", "random_d3_m2"])
    def test_matches_per_path_oracle_sum(self, model):
        # the same increments through the per-step operator loop, summed path by path
        horizon, dt, n_paths, seed = 1.0, 0.01, 50, 29
        _, incs = batch_hmm_observations(model, horizon, dt, n_paths, seed, measure="P_tilde")
        h = model.obs.entries
        samples = []
        for inc in incs:
            op = zakai_operator_loop(model, ObservationPath(dt=dt, increments=inc))
            g = np.einsum("im,kij->kmj", h, [op.matrix(k) for k in range(inc.shape[0])])
            samples.append(1.0 + dt * np.einsum("kmi,kmj->ij", g, g))
        samples = np.array(samples)
        est = gramian_mc(model, horizon, dt, n_paths, seed)
        assert np.all(np.abs(est.mean - samples.mean(axis=0)) <= 1e-12 * samples.mean(axis=0))
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_paths)
        assert np.all(np.abs(est.stderr - stderr) <= 1e-12 * stderr)

    def test_memory_does_not_hold_the_operator_paths(self):
        # the (paths, n + 1, d, d) operator tensor alone would be 64 MB here
        import tracemalloc
        tracemalloc.start()
        try:
            gramian_mc(counter_example(), 5.0, 5e-3, 500, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_column_underflow_names_its_step_and_path(self, monkeypatch):
        # frozen chain, state 2's likelihood exp(-800) of state 1's only on
        # path 3's step 2: its column (row 3 d + 1 = 7 of the stream) fails
        # there, and the failure names the path, not the row
        import dualfilter.duality as duality
        from dualfilter.models import NumericalFailure
        m = make_hmm(np.zeros((2, 2)), [0.0, 40.0])
        incs = np.full((5, 6, 1), 20.0)
        incs[3, 2] = 0.0
        monkeypatch.setattr(duality, "batch_hmm_observations", lambda *args, **kw: (None, incs))
        with pytest.raises(NumericalFailure, match=r"underflow \(step 2, path 3\)$") as exc:
            gramian_mc(m, 6.0, 1.0, 5, seed=0)
        assert (exc.value.step, exc.value.path) == (2, 3)

    def test_underflow_order_is_step_then_path_across_columns(self, monkeypatch):
        # the stream stores column j of path p at j n_paths + p; a failure
        # still names the first step, then the lowest path at that step
        import dualfilter.duality as duality
        from dualfilter.models import NumericalFailure
        m = make_hmm(np.zeros((2, 2)), [0.0, 40.0])
        incs = np.full((5, 6, 1), 20.0)
        monkeypatch.setattr(duality, "batch_hmm_observations", lambda *args, **kw: (None, incs))
        # step 2: column 0 of path 3 (state 2 ahead by e^800), column 1 of path 1
        incs[3, 2], incs[1, 2] = 40.0, 0.0
        with pytest.raises(NumericalFailure, match=r"underflow \(step 2, path 1\)$"):
            gramian_mc(m, 6.0, 1.0, 5, seed=0)
        # path 4 at step 1 comes before path 0 at step 3
        incs[4, 1], incs[0, 3] = 0.0, 40.0
        with pytest.raises(NumericalFailure) as exc:
            gramian_mc(m, 6.0, 1.0, 5, seed=0)
        assert (exc.value.step, exc.value.path) == (1, 4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDualLqLinearGaussian:
    def test_long_horizon_cost_is_the_riccati_value(self):
        # integrating Sigma backward again beside y drifted from the forward
        # flow and overflowed to NaN on this model by T = 20
        model = model_from_dict(LG3)
        f = np.random.default_rng(0).standard_normal(3)
        cost, _, _, sig = dual_lq_linear_gaussian(model, f, 20.0, 1e-3)
        assert np.isfinite(cost) and abs(cost - f @ sig[-1] @ f) <= 1e-6

    def test_cost_equals_riccati_value(self, rng):
        for trial in range(10):
            d = int(rng.integers(1, 5))
            m_dim = int(rng.integers(1, 3))
            model = LinearGaussianModel(
                rng.standard_normal((d, d)) - 1.5 * np.eye(d),
                rng.standard_normal((d, m_dim)),
                0.6 * rng.standard_normal((d, d)),
                rng.standard_normal(d),
                np.eye(d) * rng.uniform(0.2, 1.0),
            )
            f = rng.standard_normal(d)
            horizon, dt = 1.0, 1e-3
            cost, u, y, _ = dual_lq_linear_gaussian(model, f, horizon, dt)
            sig = riccati_half_grid(model, model.cov0, int(horizon / dt), dt)
            assert abs(cost - f @ sig[-1] @ f) <= 1e-6

    def test_zero_h_means_zero_control(self, rng):
        d = 3
        model = LinearGaussianModel(rng.standard_normal((d, d)) - np.eye(d), np.zeros((d, 1)),
                                    rng.standard_normal((d, 2)), np.zeros(d), np.eye(d))
        f = rng.standard_normal(d)
        cost, u, y, _ = dual_lq_linear_gaussian(model, f, 1.0, 1e-3)
        assert np.abs(u).max() == 0.0
        assert cost > 0

    def test_zero_terminal_function(self, rng):
        d = 2
        model = LinearGaussianModel(rng.standard_normal((d, d)) - np.eye(d),
                                    rng.standard_normal((d, 1)),
                                    rng.standard_normal((d, 1)), np.zeros(d), np.eye(d))
        cost, u, y, _ = dual_lq_linear_gaussian(model, np.zeros(d), 1.0, 1e-3)
        assert cost == 0.0
        assert np.abs(u).max() == 0.0


class TestDeterministicDuality:
    def test_cost_matches_mse_for_random_controls(self, rng):
        m = random_hmm(rng, d=3)
        f = rng.standard_normal(3)
        dt, horizon = 1e-3, 2.0
        n = int(horizon / dt)
        for trial in range(3):
            u = rng.standard_normal((8, 1)).repeat(n // 8, axis=0) * 0.4
            j, mse, se = duality_check_mc(m, u, f, 4000, seed=300 + trial, dt=dt)
            assert abs(j - mse) <= 3 * se

    def test_zero_control_cost_is_variance_plus_energy(self, rng):
        m = random_hmm(rng, d=3)
        f = rng.standard_normal(3)
        dt, n = 1e-3, 1000
        u = np.zeros((n, 1))
        j = dual_cost_deterministic(m, f, u, dt)
        # independent quadrature of the same quantity on a fine grid
        from dualfilter.models import carre_du_champ
        fine = 20_000
        y = f.copy()
        mu_t = [expm(m.rate.entries.T * (k * n * dt / fine)) @ m.prior.entries for k in range(fine + 1)]
        ys = [None] * (fine + 1)
        step = expm(m.rate.entries * (n * dt / fine))
        ys[fine] = f
        for k in range(fine - 1, -1, -1):
            ys[k] = step @ ys[k + 1]
        integrand = [mu_t[k] @ carre_du_champ(m, ys[k]) for k in range(fine + 1)]
        integral = np.trapezoid(integrand, dx=n * dt / fine)
        var0 = mu_t[0] @ ys[0] ** 2 - (mu_t[0] @ ys[0]) ** 2
        assert abs(j - (var0 + integral)) <= 1e-5

    def test_half_grid_is_the_backward_solve_on_halved_steps(self, rng):
        # each control value held for two half steps is the half-grid solve, bit for bit
        m = random_hmm(rng, d=3, m=2)
        f = rng.standard_normal(3)
        u = rng.standard_normal((40, 2))
        assert np.array_equal(backward_dual_ode(m, f, np.repeat(u, 2, axis=0), 0.005),
                              backward_dual_half_grid_loop(m, f, u, 0.01))

    def test_biased_constant_adds_squared_bias(self, rng):
        m = random_hmm(rng, d=3)
        f = rng.standard_normal(3)
        dt, n = 2e-3, 500
        u = 0.3 * rng.standard_normal((n, 1))
        j, mse, se = duality_check_mc(m, u, f, 6000, seed=41, dt=dt)
        from dualfilter.duality import backward_dual_ode
        y0 = backward_dual_ode(m, f, u, dt)[0]
        b = float(m.prior.entries @ y0) + 0.25
        j2, mse_b, se_b = duality_check_mc(m, u, f, 6000, seed=41, dt=dt, constant=b)
        assert abs(mse_b - (mse + 0.25**2)) <= 3 * np.hypot(se, se_b)

    def test_markov_dual_cost_bookkeeping_and_suboptimality(self, rng):
        m = random_hmm(rng, d=3)
        f = rng.standard_normal(3)
        horizon, dt = 2.0, 2e-3
        cost, u, y, sig = dual_deterministic_markov(m, f, horizon, dt)
        assert abs(cost - f @ sig[-1] @ f) <= 1e-6 * max(1.0, abs(cost))
        # the optimal deterministic cost dominates the optimal filter variance
        from dualfilter.filters import wonham_filter_batch
        from dualfilter.sim import batch_hmm_observations
        n_paths = 4000
        paths, incs = batch_hmm_observations(m, horizon, dt, n_paths, seed=52)
        bels = wonham_filter_batch(m, m.prior, incs, dt)
        x_term = paths.terminal()
        err = (f[x_term] - bels[:, -1] @ f) ** 2
        se = err.std(ddof=1) / np.sqrt(n_paths)
        assert cost >= err.mean() - 3 * se

    def test_zero_h_dual_cost(self, rng):
        m = random_hmm(rng, d=3)
        silent = make_hmm(m.rate.entries, np.zeros(3), m.prior.entries)
        f = rng.standard_normal(3)
        cost, u, y, sig = dual_deterministic_markov(silent, f, 1.0, 1e-3)
        assert np.abs(u).max() == 0.0
        direct = dual_cost_deterministic(silent, f, np.zeros((1000, 1)), 1e-3)
        assert abs(cost - direct) <= 1e-8 * max(1.0, abs(cost))


class TestTreeOracle:
    def test_two_state_residual_is_roundoff(self):
        m = make_hmm([[-1.2, 1.2], [0.7, -0.7]], [0.8, -0.5], prior=[0.35, 0.65])
        res = bsde_tree_oracle(m, np.array([1.0, -2.0]), n_steps=6, dt=0.15)
        assert res.estimator_residual <= 1e-10
        assert res.filter_gap <= 1e-12
        assert res.optimal_cost > 0

    def test_zero_h_gives_zero_control(self):
        m = make_hmm([[-1.0, 1.0], [0.5, -0.5]], [0.0, 0.0], prior=[0.4, 0.6])
        res = bsde_tree_oracle(m, np.array([2.0, -1.0]), n_steps=5, dt=0.2)
        assert res.max_control == 0.0
        assert res.estimator_residual <= 1e-12

    def test_single_step_posterior_by_hand(self):
        # one Bayes update of the sign channel rho(s|j) = e^{h_j s}/(2 cosh(h_j sqrt(dt)))
        dt = 0.25
        a = np.array([[-1.0, 1.0], [2.0, -2.0]])
        h = np.array([1.0, -0.5])
        mu = np.array([0.3, 0.7])
        m = make_hmm(a, h, prior=mu)
        pred = expm(a * dt).T @ mu
        s = np.sqrt(dt)
        rho_plus = np.exp(h * s) / (2.0 * np.cosh(h * s))
        post = rho_plus * pred
        post /= post.sum()
        f = np.array([1.0, 0.0])
        res = bsde_tree_oracle(m, f, n_steps=1, dt=dt)
        assert res.estimator_residual <= 1e-14
        assert res.filter_gap <= 1e-14
        assert np.abs(res.terminal_posteriors[0] - post).max() <= 1e-14

    def test_oversized_tree_rejected(self):
        m = make_hmm(np.zeros((5, 5)), np.arange(5.0))
        with pytest.raises(ValueError, match="between 1 and 12"):
            bsde_tree_oracle(m, np.zeros(5), n_steps=13)
        m2 = make_hmm(np.zeros((2, 2)), [1.0, 0.0])
        with pytest.raises(ValueError, match="single observation channel"):
            bsde_tree_oracle(make_hmm(np.zeros((2, 2)), [[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), 3)


class TestDualTrajectory:
    def test_deterministic_trajectory_assembled(self, rng):
        from dualfilter.duality import deterministic_dual_trajectory
        m = random_hmm(rng, d=3)
        f = rng.standard_normal(3)
        u = 0.2 * rng.standard_normal((50, 1))
        traj = deterministic_dual_trajectory(m, f, u, dt=0.01)
        assert np.array_equal(traj.terminal, f)
        assert np.abs(traj.v).max() == 0.0
        assert traj.y.shape == (51, 3)

    def test_misaligned_grids_rejected(self):
        from dualfilter.duality import DualTrajectory
        with pytest.raises(ValueError, match="aligned"):
            DualTrajectory(dt=0.1, y=np.zeros((5, 2)), v=np.zeros((5, 2, 1)), u=np.zeros((5, 1)))


class TestSubspaceType:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_complement_is_orthogonal(self):
        b = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
        sub = Subspace(b)
        comp = sub.complement()
        assert comp.dim == 2
        assert np.abs(sub.basis.T @ comp.basis).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_projection_idempotent_and_dims_add_up(self, d, r, data):
        vals = data.draw(st.lists(st.floats(-3, 3), min_size=d * r, max_size=d * r))
        raw = np.array(vals).reshape(d, r)
        from dualfilter._linalg import orth_basis
        sub = Subspace(orth_basis(raw))
        comp = sub.complement()
        assert sub.dim + comp.dim == d
        v = data.draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
        v = np.array(v)
        assert np.abs(sub.project(sub.project(v)) - sub.project(v)).max() <= 1e-10
