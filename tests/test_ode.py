"""The shared ODE and quadrature layer: ``rk4``, ``affine_scan``, ``simpson``,
``riccati_rhs``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dualfilter._linalg import affine_scan, rk4, simpson
from dualfilter.filters import riccati_rhs
from dualfilter.models import LinearGaussianModel
from dualfilter.smoothing import reintegrate
from loop_oracles import reintegrate_rk4


@pytest.fixture
def m_mat():
    return np.array([[-0.4, 1.3, 0.2], [-1.1, -0.3, 0.5], [0.1, -0.6, -0.8]])


def linear(m):
    return lambda y, k, s: m @ y


class TestRk4:
    def test_fourth_order_against_expm(self, m_mat):
        y0 = np.array([1.0, -0.5, 2.0])
        exact = expm(2.0 * m_mat) @ y0
        errors = [np.abs(rk4(linear(m_mat), y0, n, 2.0 / n)[-1] - exact).max() for n in (20, 40, 80)]
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 14.0) & (ratios < 18.0)), ratios

    def test_returns_every_state(self, m_mat):
        y0 = np.array([1.0, 0.0, 0.0])
        ys = rk4(linear(m_mat), y0, 50, 0.01)
        assert ys.shape == (51, 3)
        assert np.array_equal(ys[0], y0)
        assert np.array_equal(ys[10], rk4(linear(m_mat), y0, 10, 0.01)[-1])

    def test_backward_run_returns_to_start(self, m_mat):
        y0 = np.array([0.3, -1.2, 0.7])
        n, h = 100, 0.02
        end = rk4(linear(m_mat), y0, n, h)[-1]
        back = rk4(linear(m_mat), end, n, -h)
        assert np.abs(back[-1] - y0).max() <= 1e-9

    def test_stages_see_start_mid_mid_end(self):
        calls = []
        rk4(lambda y, k, s: calls.append((k, s)) or np.zeros(1), np.zeros(1), 3, 0.1)
        assert calls == [(k, s) for k in range(3) for s in (0, 1, 1, 2)]

    def test_half_grid_forcing_is_integrated_by_simpson(self):
        # y' = 3 t^2 sampled at 2k + s; RK4 on a forcing term is Simpson's
        # rule, exact on cubics
        n, h = 7, 0.3
        t_half = np.arange(2 * n + 1) * h / 2.0
        forcing = 3.0 * t_half**2
        ys = rk4(lambda y, k, s: forcing[2 * k + s], 1.0, n, h)
        t = np.arange(n + 1) * h
        assert np.abs(ys - (1.0 + t**3)).max() <= 1e-13

    def test_step_constant_forcing_uses_the_step(self):
        u = np.array([2.0, -1.0, 0.5, 4.0])
        ys = rk4(lambda y, k, s: u[k], 0.0, 4, 0.25)
        assert np.abs(ys - np.concatenate([[0.0], np.cumsum(0.25 * u)])).max() <= 1e-15

    def test_backward_half_grid_forcing_reads_reversed(self):
        # backward from t = T, step k runs t_{n-k} -> t_{n-k-1}; the reversed
        # half grid puts its start, midpoint and end at 2k + s
        n, h = 5, 0.2
        t_half = np.arange(2 * n + 1) * h / 2.0
        forcing = (3.0 * t_half**2)[::-1]
        ys = rk4(lambda y, k, s: forcing[2 * k + s], 1.0, n, -h)[::-1]
        t = np.arange(n + 1) * h
        assert np.abs(ys - (1.0 + t**3 - t[-1] ** 3)).max() <= 1e-13


def hand_scan(m_of, b, x0):
    xs = [np.asarray(x0, dtype=float)]
    for k in range(len(b)):
        xs.append(xs[-1] @ m_of(k) + b[k])
    return np.array(xs)


class TestAffineScan:
    def test_constant_matrix(self, m_mat):
        rng = np.random.default_rng(1)
        b, x0 = rng.standard_normal((30, 3)), rng.standard_normal(3)
        assert np.array_equal(affine_scan(m_mat, b, x0), hand_scan(lambda k: m_mat, b, x0))

    def test_one_matrix_per_step(self):
        rng = np.random.default_rng(2)
        m, b, x0 = rng.standard_normal((25, 2, 2)), rng.standard_normal((25, 2)), rng.standard_normal(2)
        assert np.array_equal(affine_scan(m, b, x0), hand_scan(lambda k: m[k], b, x0))

    def test_batch_axes_run_side_by_side(self, m_mat):
        rng = np.random.default_rng(3)
        b, x0 = rng.standard_normal((12, 4, 5, 3)), rng.standard_normal((4, 5, 3))
        xs = affine_scan(m_mat, b, x0)
        assert xs.shape == (13, 4, 5, 3)
        for i in range(4):
            for j in range(5):
                ref = hand_scan(lambda k: m_mat, b[:, i, j], x0[i, j])
                assert np.abs(xs[:, i, j] - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_no_steps_returns_the_start(self, m_mat):
        xs = affine_scan(m_mat, np.zeros((0, 2, 3)), np.ones((2, 3)))
        assert xs.shape == (1, 2, 3) and np.array_equal(xs[0], np.ones((2, 3)))
        assert affine_scan(np.zeros((0, 3, 3)), np.zeros((0, 3)), np.ones(3)).shape == (1, 3)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_affine_reintegrate_is_rk4(seed, d, p):
    # RK4 on a linear ODE is an affine map; its coefficients reproduce the
    # stage-by-stage integration up to roundoff
    rng = np.random.default_rng(seed)
    model = LinearGaussianModel(rng.standard_normal((d, d)) - np.eye(d), np.ones((d, 1)),
                                rng.standard_normal((d, p)), np.zeros(d), np.eye(d))
    controls = rng.standard_normal((2 * 150 + 1, p))
    x0 = rng.standard_normal(d)
    ref = reintegrate_rk4(model, x0, controls, 1e-3)
    assert np.abs(reintegrate(model, x0, controls, 1e-3) - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSimpson:
    def test_exact_on_cubics(self):
        p = np.polynomial.Polynomial([0.7, -1.3, 2.1, 0.9])
        a, b, n = -0.4, 1.9, 9
        h = (b - a) / n
        t = a + h * np.arange(n)
        total = simpson(p(t), p(t + h / 2.0), p(t + h), h)
        exact = p.integ()(b) - p.integ()(a)
        assert total == pytest.approx(exact, rel=1e-14, abs=1e-14)

    def test_quartic_is_not_exact(self):
        t = np.arange(4) * 0.5
        assert simpson(t**4, (t + 0.25) ** 4, (t + 0.5) ** 4, 0.5) != pytest.approx(2.0**5 / 5.0, rel=1e-6)


class TestRiccatiRhs:
    def test_matches_the_riccati_expression_and_is_symmetric(self):
        rng = np.random.default_rng(4)
        a, h = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
        s0, q0 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        sigma, q = s0 @ s0.T, q0 @ q0.T
        out = riccati_rhs(a, h, q, sigma)
        assert np.array_equal(out, out.T)
        textbook = a.T @ sigma + sigma @ a + q - sigma @ h @ h.T @ sigma
        assert np.abs(out - textbook).max() <= 1e-12 * np.abs(textbook).max()
