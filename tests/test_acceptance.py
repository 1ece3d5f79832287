"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Each test prints a PASS/FAIL line (run pytest with ``-s`` to see them all).

C3 and C4 concern the 4-state cycle observed through the indicator of states
{0, 2}.  The model is unobservable but stabilizable: ``AH = 1 - 2H`` and
``H.H = H`` make ``span{1, H}`` the whole controllable subspace (dimension
2), and the generator's null space lies inside it.  By the duality between
detectability and stabilizability, the filter is stable, so C4 checks that
the twin filters forget their priors at a rate that slows as the observation
gain grows towards the noiseless limit, where the total-variation gap stays
at ``|p - p2|``.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import make_hmm, random_hmm
from dualfilter.catalog import counter_example, doeblin_demo, scalar_lg, two_class_demo, two_state
from dualfilter.duality import (bsde_tree_oracle, controllable_subspace, dual_lq_linear_gaussian,
                                duality_check_mc, gramian_mc, is_observable, is_stabilizable)
from dualfilter.filters import (innovation_path, kalman_bucy, riccati_half_grid, solve_are,
                                wonham_filter, zakai_filter)
from dualfilter.models import LinearGaussianModel
from dualfilter.sim import ObservationPath, simulate_hmm, simulate_linear_gaussian
from dualfilter.smoothing import (EnergyTrajectory, discrete_kalman, forward_backward_smoother,
                                  fraser_potter_sweep, min_energy_cost,
                                  minimum_energy_trajectory, reintegrate, rts_sweep)
from dualfilter.stability import (PriorPair, chi2_bound_check, ergodic_class_detection,
                                  kl_supermartingale_check, log_slope, pi_constant,
                                  twin_filter_experiment)
from test_duality import exact_gramian
from test_smoothing import gaussian_emissions, textbook_forward_backward


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c01_duality_principle_random_controls():
    rng = np.random.default_rng(101)
    model = random_hmm(rng, d=3)
    f = rng.standard_normal(3)
    horizon, dt, n_paths = 2.0, 1e-3, 10_000
    n = int(horizon / dt)
    worst = 0.0
    for trial in range(5):
        u = 0.5 * rng.standard_normal((10, 1)).repeat(n // 10, axis=0)
        j, mse, se = duality_check_mc(model, u, f, n_paths, seed=1000 + trial, dt=dt)
        worst = max(worst, abs(j - mse) / se)
    ok = worst <= 3.0
    assert report("C1 duality principle", ok, f"max |J - MSE|/stderr = {worst:.2f} (<= 3)")


def test_c02_kalman_duality():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 5))
        model = LinearGaussianModel(
            rng.standard_normal((d, d)) - 1.5 * np.eye(d),
            rng.standard_normal((d, int(rng.integers(1, 3)))),
            0.6 * rng.standard_normal((d, d)),
            rng.standard_normal(d), np.eye(d) * rng.uniform(0.2, 1.0))
        f = rng.standard_normal(d)
        horizon, dt = 1.0, 1e-3
        cost, _, _, _ = dual_lq_linear_gaussian(model, f, horizon, dt)
        sig = riccati_half_grid(model, model.cov0, int(horizon / dt), dt)
        worst = max(worst, abs(cost - f @ sig[-1] @ f))
    ok = worst <= 1e-6
    assert report("C2 dual LQ equals Riccati value", ok, f"max gap = {worst:.2e} (<= 1e-6)")


def test_c03_counter_example_analysis():
    import time
    start = time.time()
    model = counter_example()
    a, h = model.rate.entries, model.obs.entries[:, 0]
    # span{1, H} is closed under A and under multiplication by H, so no
    # closure from the constants can exceed dimension 2
    closed = np.array_equal(a @ h, 1.0 - 2.0 * h) and np.array_equal(h * h, h)
    sub = controllable_subspace(model)
    observable, _ = is_observable(model)
    stabilizable, _ = is_stabilizable(model)
    horizon, dt = 5.0, 5e-3
    est = gramian_mc(model, horizon, dt, 2000, seed=103)
    rank = est.rank()
    exact = exact_gramian(model, horizon, dt)
    s_exact = np.linalg.svd(exact, compute_uv=False)
    exact_rank = int(np.sum(s_exact > 1e-9 * s_exact[0]))
    z = float((np.abs(est.mean - exact) / est.stderr).max())
    elapsed = time.time() - start
    parts = {
        "AH == 1 - 2H and H.H == H": closed,
        "dim C == 2": sub.dim == 2,
        "observable is False": observable is False,
        "stabilizable is True": stabilizable is True,
        "MC gramian rank == 2": rank == 2,
        "exact gramian rank == 2": exact_rank == 2,
        "MC vs exact max |z| <= 4": z <= 4.0,
        "runtime <= 60 s": elapsed <= 60.0,
    }
    ok = all(parts.values())
    report("C3 counter-example analysis", ok,
           f"dim C = {sub.dim}, observable = {observable}, stabilizable = {stabilizable}, "
           f"MC gramian rank = {rank}, exact rank = {exact_rank} "
           f"(singular values {np.array2string(s_exact, precision=3)}), "
           f"max |z| = {z:.2f}, runtime = {elapsed:.1f}s")
    assert ok, f"failed sub-claims: {[k for k, v in parts.items() if not v]}"


def test_c04_counter_example_instability_floor():
    # The model is stabilizable (C3), so the twin filters merge.  The gap
    # stays at |p - p2| only in the noiseless limit; raising the gain from
    # 10 to 20 (with gain^2 dt = 1 on both grids) must slow the merging.
    p, p2 = 0.9, 0.1
    pair = PriorPair.of([p, 0.0, 1 - p, 0.0], [p2, 0.0, 1 - p2, 0.0])
    fits = {}
    for gain, dt, keep in ((10.0, 0.01, 200), (20.0, 0.0025, 800)):
        model = counter_example().with_obs_scale(gain)
        trace = twin_filter_experiment(model, pair, 20.0, dt, 1000, seed=104, keep_every=keep)
        half = trace.tv.shape[0] // 2  # fit over t in [10, 20]
        fits[gain] = log_slope(trace.grid()[half:], trace.tv[half:], trace.tv_stderr[half:])
    (s10, se10), (s20, se20) = fits[10.0], fits[20.0]
    decays = s10 <= -3.0 * se10
    slower = s20 - s10 >= 3.0 * float(np.hypot(se10, se20))
    ok = decays and slower
    report("C4 counter-example merging towards the noiseless floor", ok,
           f"log E[TV] slope {s10:.3f} +- {se10:.3f} at gain 10, "
           f"{s20:.3f} +- {se20:.3f} at gain 20")
    assert decays, f"no significant decay at gain 10: slope {s10:.4f} +- {se10:.4f}"
    assert slower, f"gain 20 does not merge slower: slopes {s10:.4f} vs {s20:.4f}"


def test_c05_chi2_stability_bound():
    model = doeblin_demo()
    c = pi_constant(model, "doeblin").value
    pair = PriorPair.of([0.5, 0.3, 0.2], np.full(3, 1 / 3))
    rep = chi2_bound_check(model, pair, 10.0, 0.01, 10_000, seed=105, c=c)
    ok = rep["all_hold"]
    assert report("C5 chi-square stability bound", ok,
                  f"c = {c:.1f}, checkpoints holding: {int(np.sum(rep['holds']))}/10")


def test_c06_poincare_constants():
    results = []
    for a1, a2 in [(1.0, 1.0), (4.0, 1.0), (9.0, 4.0)]:
        m = two_state(a1, a2)
        closed = pi_constant(m, "closed-form-2state").value
        brute = pi_constant(m, "brute-force", resolution=1e-3).value
        results.append((a1, a2, closed, brute))
    gaps = [abs(c - b) for _, _, c, b in results]
    exact_ok = results[0][2] == pytest.approx(4.0, abs=1e-12)
    ok = max(gaps) <= 1e-2 and exact_ok
    assert report("C6 Poincare constants", ok,
                  f"closed vs brute-force gaps = {[f'{g:.2e}' for g in gaps]}, c(1,1) = {results[0][2]}")


def test_c07_ergodic_class_detection():
    model = two_class_demo()
    pair = PriorPair.of(model.prior.entries, model.prior.entries)
    rep = ergodic_class_detection(model, pair, 30.0, 0.01, 1000, seed=107)
    err = float(rep["detection_error"].max())
    blind = two_class_demo(h_scale=0.0)
    rep0 = ergodic_class_detection(blind, pair, 30.0, 0.01, 1000, seed=107)
    floor = 0.5 / 2.0  # equal class masses: min(a1, a2)/2
    err0 = float(rep0["detection_error"].min())
    ok = err <= 0.05 and err0 >= floor and rep["decomposition_ok"]
    assert report("C7 ergodic-class detection", ok,
                  f"informative error = {err:.4f} (<= 0.05), blind error = {err0:.3f} (>= {floor})")


def test_c08_smoother_oracle():
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 6))
        model = random_hmm(rng, d=d, m=int(rng.integers(1, 3)))
        _, obs = simulate_hmm(model, 1.0, 0.02, seed=2000 + trial)
        ours = forward_backward_smoother(model, obs)
        trans = expm(model.rate.entries * obs.dt)
        oracle = textbook_forward_backward(trans, gaussian_emissions(model, obs), model.prior.entries)
        worst = max(worst, 0.5 * np.abs(ours.smoothed - oracle).sum(axis=1).max())
    ok = worst <= 1e-10
    assert report("C8 smoother vs textbook oracle", ok, f"max TV = {worst:.2e} (<= 1e-10)")


def test_c09_fraser_potter_vs_rts_and_min_energy():
    rng = np.random.default_rng(109)
    worst_gap = 0.0
    worst_violation = 0.0
    for trial in range(10):
        d = int(rng.integers(1, 4))
        model = LinearGaussianModel(
            rng.standard_normal((d, d)) - 1.5 * np.eye(d),
            rng.standard_normal((d, int(rng.integers(1, 3)))),
            0.5 * rng.standard_normal((d, d)) + 0.5 * np.eye(d),
            rng.standard_normal(d), np.eye(d) * rng.uniform(0.3, 1.0))
        _, obs = simulate_linear_gaussian(model, 1.0, 1e-3, seed=3000 + trial)
        kf = discrete_kalman(model, obs)
        r, fp = rts_sweep(kf), fraser_potter_sweep(kf)
        worst_gap = max(worst_gap, float(np.abs(r.smoothed_means - fp.smoothed_means).max()))
        tr = minimum_energy_trajectory(model, obs)
        j_opt = min_energy_cost(model, tr, obs=obs)
        for _ in range(20):
            scale = 10.0 ** rng.uniform(-2, 0)
            u_pert = tr.controls + scale * rng.standard_normal(tr.controls.shape)
            x0_pert = tr.states[0] + scale * rng.standard_normal(d)
            cand = EnergyTrajectory(
                dt=tr.dt, states=reintegrate(model, x0_pert, u_pert, tr.dt),
                controls=u_pert, filter_means=tr.filter_means)
            j = min_energy_cost(model, cand, obs=obs)
            worst_violation = max(worst_violation, j_opt - j)
    ok = worst_gap <= 1e-6 and worst_violation <= 1e-8
    assert report("C9 two-filter vs RTS + min-energy inequality", ok,
                  f"max mean gap = {worst_gap:.2e} (<= 1e-6), "
                  f"max inequality violation = {worst_violation:.2e} (<= 1e-8)")


def test_c10_bsde_tree_oracle():
    rng = np.random.default_rng(110)
    worst = 0.0
    for trial in range(5):
        a1, a2 = rng.uniform(0.3, 2.0, 2)
        h = rng.standard_normal(2)
        prior = rng.dirichlet(np.ones(2))
        model = make_hmm([[-a1, a1], [a2, -a2]], h, prior=prior)
        res = bsde_tree_oracle(model, rng.standard_normal(2), n_steps=6, dt=0.15)
        worst = max(worst, res.estimator_residual)
    ok = worst <= 1e-10
    assert report("C10 binary-tree dual oracle", ok, f"max leaf residual = {worst:.2e} (<= 1e-10)")


def test_c11_kl_supermartingale():
    rng = np.random.default_rng(111)
    model = random_hmm(rng, d=3)
    pair = PriorPair.of(rng.dirichlet(np.ones(3) * 4), rng.dirichlet(np.ones(3) * 4))
    rep = kl_supermartingale_check(model, pair, 5.0, 0.01, 5000, seed=111, n_checkpoints=10)
    ok = rep["bounded_by_prior"] and rep["non_increasing"]
    assert report("C11 relative-entropy supermartingale", ok,
                  f"bounded = {rep['bounded_by_prior']}, non-increasing = {rep['non_increasing']}")


def test_c12_filter_cross_checks():
    rng = np.random.default_rng(112)
    worst = 0.0
    for trial in range(5):
        model = random_hmm(rng, d=int(rng.integers(2, 5)), m=int(rng.integers(1, 3)))
        _, obs = simulate_hmm(model, 2.0, 0.01, seed=4000 + trial)
        bel = wonham_filter(model, model.prior, obs)
        unn = zakai_filter(model, model.prior, obs)
        worst = max(worst, float(np.abs(unn.masses - bel.beliefs).max()))
    zakai_ok = worst <= 1e-8

    m = two_state(1.0, 2.0)
    dt, n = 0.002, 100_000
    _, obs = simulate_hmm(m, n * dt, dt, seed=112)
    bel = wonham_filter(m, m.prior, obs)
    inc = innovation_path(m, bel, obs).ravel()
    mean_ok = abs(inc.mean()) <= 3 * inc.std(ddof=1) / np.sqrt(n)
    var_ok = abs(inc.var(ddof=1) - dt) <= 3 * inc.var(ddof=1) * np.sqrt(2.0 / n) + 0.01 * dt
    qv = float((inc**2).sum())
    qv_ok = abs(qv - n * dt) <= 3 * np.sqrt(2 * n) * dt + 5 * np.sqrt(dt)
    ok = zakai_ok and mean_ok and var_ok and qv_ok
    assert report("C12 Zakai/Wonham + innovation statistics", ok,
                  f"max Zakai gap = {worst:.2e}, innovation mean/var/qv ok = "
                  f"{mean_ok}/{var_ok}/{qv_ok}")


def test_c13_are_dre_scalar():
    model = scalar_lg()
    gp = kalman_bucy(model, ObservationPath(dt=1e-3, increments=np.zeros((20_000, 1))))
    dre_ok = abs(gp.covs[-1, 0, 0] - 1.0) < 1e-4
    sig_inf, hurwitz = solve_are(model)
    eig = float(np.linalg.eigvals(model.a_mat.T - sig_inf @ model.h_mat @ model.h_mat.T).real.max())
    ok = dre_ok and hurwitz and eig < 0
    assert report("C13 ARE/DRE scalar model", ok,
                  f"|Sigma_20 - 1| = {abs(gp.covs[-1, 0, 0] - 1.0):.2e}, closed-loop eig = {eig:.2f}")
