"""The shared ODE and quadrature layer: ``rk4``, ``simpson``, ``riccati_rhs``."""

import numpy as np
import pytest
from scipy.linalg import expm

from dualfilter._linalg import rk4, simpson
from dualfilter.filters import riccati_rhs


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
