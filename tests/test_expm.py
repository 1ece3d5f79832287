"""The package's matrix exponential, ``_linalg.expm``, against scipy's."""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from conftest import LG3
from dualfilter._linalg import PROPAGATOR_POWERS, THETA_13, expm
from dualfilter.catalog import counter_example, doeblin_demo
from dualfilter.models import model_from_dict

U = 2.0 ** -53
ORACLE_SLACK = 2.0 ** 10


def fro(m):
    return np.linalg.norm(m, axis=(-2, -1))


def condition(a):
    """Relative condition number of exp at ``a`` in the Frobenius norm,
    ``|L(a)|_2 |a|_F / |exp(a)|_F``.  ``L(a)``, the Frechet derivative in
    vec form, is ``int_0^1 exp(t a^T) (x) exp((1 - t) a) dt``, the upper
    right block of the exponential of ``[[I (x) a, I], [0, a^T (x) I]]``
    (Van Loan 1978)."""
    d = a.shape[0]
    n = d * d
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = np.kron(np.eye(d), a)
    block[:n, n:] = np.eye(n)
    block[n:, n:] = np.kron(a.T, np.eye(d))
    frechet = scipy_expm(block)[:n, n:]
    return np.linalg.norm(frechet, 2) * fro(a) / fro(scipy_expm(a))


def oracle_bound(a):
    """Largest gap between two scaling-and-squaring exponentials of ``a``,
    relative to ``|exp(a)|_F``.

    Each method returns about ``exp(a + E)`` with ``|E| <= eps |a|``: the
    Pade degree is picked so that truncation contributes at most ``u``
    (Higham 2005), and rounding adds about ``d u`` in the approximant and
    in each of the ``s`` squarings, so ``eps ~ (s + 1) d u``.  To first
    order that moves ``exp(a)`` by ``cond(a) eps`` relative, and the result
    itself is rounded (the 1 in ``max``).  ``ORACLE_SLACK`` is the
    constant: the oracle is off by up to about 450 times this estimate on
    some 2 x 2 inputs (measured against a 40-digit reference, from which
    this ``expm`` stays within about 10 of it).
    """
    d = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm / THETA_13))))
    return ORACLE_SLACK * (s + 1) * d * U * max(1.0, condition(a))


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_matrices_every_degree_and_squaring(self, seed):
        # 1-norms from 1e-6 (no squaring) to 100 (five squarings)
        rng = np.random.default_rng(seed)
        for d in (1, 2, 3, 4, 6, 8):
            for norm in np.logspace(-6, 2, 7):
                a = rng.standard_normal((d, d))
                a *= norm / np.abs(a).sum(axis=0).max()
                ref = scipy_expm(a)
                gap = fro(expm(a) - ref) / fro(ref)
                assert gap <= oracle_bound(a), (d, norm, gap)

    def test_stack_scales_each_matrix_by_its_own_power(self):
        # the Riccati flow's 64 Hamiltonian powers at dt 0.1, 1-norms from
        # 0.32 to 20.4: 0 to 2 squarings
        model = model_from_dict(LG3)
        a, h = model.a_mat, model.h_mat
        ham = np.block([[-a, h @ h.T], [model.noise_cov, a.T]])
        stack = ham * (0.1 * np.arange(1, PROPAGATOR_POWERS + 1))[:, None, None]
        norms = np.abs(stack).sum(axis=1).max(axis=1)
        assert norms[-1] > 2 * THETA_13
        out = expm(stack)
        for m, e in zip(stack, out):
            ref = scipy_expm(m)
            assert fro(e - ref) / fro(ref) <= oracle_bound(m)
            assert np.array_equal(e, expm(m))            # as if it were alone

    def test_leading_axes_kept(self):
        stack = np.arange(24.0).reshape(2, 3, 2, 2) / 24.0
        out = expm(stack)
        assert out.shape == stack.shape
        assert np.array_equal(out[1, 2], expm(stack[1, 2]))


class TestExactCases:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("turn", [0.0, 0.5, 1.0])
    def test_closed_form_across_every_degree(self, sign, turn):
        # exp([[x, y], [-y, x]]) = e^x [[cos y, sin y], [-sin y, cos y]], with
        # 1-norm |x| + |y| from 1e-3 to 20.  The approximant of B = 2^-s A
        # sums terms up to e^|B| into a result as small as e^-|B| (in its
        # numerator or denominator), which costs about e^|B| u, and each
        # squaring doubles a relative error: at most 2^(s + 3) e^|B| u
        for norm in np.geomspace(1e-3, 20.0, 60):
            x, y = sign * norm * (1.0 - turn), norm * turn
            exact = np.exp(x) * np.array([[np.cos(y), np.sin(y)], [-np.sin(y), np.cos(y)]])
            s = max(0, int(np.ceil(np.log2(norm / THETA_13))))
            gap = np.abs(expm(np.array([[x, y], [-y, x]])) - exact).max() / np.abs(exact).max()
            assert gap <= 2.0 ** (s + 3) * np.exp(norm / 2.0 ** s) * U, norm

    @pytest.mark.parametrize("model", [counter_example, doeblin_demo])
    def test_rate_matrix_rows_sum_to_one(self, model):
        trans = expm(model().rate.entries * 0.01)
        assert np.all(trans >= 0.0)
        assert np.abs(trans.sum(axis=1) - 1.0).max() <= 1e-15

    def test_zero_gives_identity_exactly(self):
        assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))
        assert np.array_equal(expm(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_not_finite_without_a_warning(self):
        big = np.array([[[800.0, 1.0], [1.0, -800.0]], [[0.5, 0.0], [0.0, 0.5]]])
        out = expm(big)
        assert not np.isfinite(out[0]).all()
        assert np.array_equal(out[1], expm(big[1]))
        assert np.abs(out[1] - np.exp(0.5) * np.eye(2)).max() <= 4 * U * np.exp(0.5)
        assert np.isnan(expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))).all()
