"""Minimum-variance duality for a random linear-Gaussian model.

Shows that the dual LQ optimal cost reproduces the Riccati value f' Sigma_T f,
that the stationary Riccati solution closes the loop stably, and that the
two-filter smoother agrees with the RTS sweep on a simulated record.
"""

import argparse

import numpy as np

from dualfilter.duality import dual_lq_linear_gaussian
from dualfilter.filters import riccati_half_grid, solve_are
from dualfilter.models import LinearGaussianModel
from dualfilter.sim import n_steps_for, simulate_linear_gaussian
from dualfilter.smoothing import fraser_potter_smoother, rts_smoother


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dim", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    d = args.dim
    model = LinearGaussianModel(
        rng.standard_normal((d, d)) - 1.5 * np.eye(d),
        rng.standard_normal((d, 1)),
        0.5 * rng.standard_normal((d, d)) + 0.5 * np.eye(d),
        rng.standard_normal(d), 0.5 * np.eye(d))

    f = rng.standard_normal(d)
    horizon, dt = 1.0, 1e-3
    cost, u, y = dual_lq_linear_gaussian(model, f, horizon, dt)
    sig = riccati_half_grid(model, model.cov0, n_steps_for(horizon, dt), dt)
    value = f @ sig[-1] @ f
    print(f"dual LQ optimal cost:   {cost:.10f}")
    print(f"Riccati value f'Sf:     {value:.10f}")
    print(f"gap:                    {abs(cost - value):.2e}")

    sig_inf, hurwitz = solve_are(model)
    eigs = np.linalg.eigvals(model.a_mat.T - sig_inf @ model.h_mat @ model.h_mat.T)
    print(f"stationary covariance eigenvalues: {np.round(np.linalg.eigvalsh(sig_inf), 4)}")
    print(f"closed loop Hurwitz: {hurwitz} (eigenvalue real parts {np.round(eigs.real, 3)})")

    _, obs = simulate_linear_gaussian(model, horizon, dt, args.seed)
    r = rts_smoother(model, obs)
    fp = fraser_potter_smoother(model, obs)
    print(f"RTS vs two-filter max mean gap: {np.abs(r.smoothed_means - fp.smoothed_means).max():.2e}")


if __name__ == "__main__":
    main()
