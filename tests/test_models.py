"""Model containers, carre du champ, ergodic structure."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import bounded_vectors, make_hmm, rate_matrices
from dualfilter.catalog import counter_example
from dualfilter.models import (HmmModel, LinearGaussianModel, ObservationMatrix, RateMatrix,
                               SimplexVector, carre_du_champ, ergodic_classes, invariant_measure,
                               model_from_json, q_matrices)


class TestContainers:
    def test_rate_matrix_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="row 0"):
            RateMatrix([[-0.9, 1.0], [1.0, -1.0]])

    def test_rate_matrix_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="negative off-diagonal"):
            RateMatrix([[0.5, -0.5], [1.0, -1.0]])

    def test_simplex_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            SimplexVector([1.2, -0.2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            HmmModel(RateMatrix([[-1.0, 1.0], [1.0, -1.0]]),
                     ObservationMatrix([1.0, 0.0, 0.0]),
                     SimplexVector([0.5, 0.5]))

    def test_arrays_are_readonly(self):
        m = counter_example()
        with pytest.raises(ValueError):
            m.rate.entries[0, 0] = 5.0

    def test_cov0_must_be_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            LinearGaussianModel(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2),
                                np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestCarreDuChamp:
    def test_two_state_by_hand(self):
        # A = [[-1,1],[1,-1]], f = (0,1): Gamma f = (1, 1)
        m = make_hmm([[-1.0, 1.0], [1.0, -1.0]], [1.0, 0.0])
        assert np.allclose(carre_du_champ(m, [0.0, 1.0]), [1.0, 1.0])

    def test_constant_function_has_zero_energy(self):
        m = counter_example()
        assert np.allclose(carre_du_champ(m, np.full(4, 3.7)), 0.0)

    def test_zero_rates_give_zero_energy(self):
        m = make_hmm(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        assert np.allclose(carre_du_champ(m, [5.0, -1.0, 2.0]), 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            carre_du_champ(counter_example(), [1.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(rate_matrices(3), bounded_vectors(3))
    def test_quadratic_form_matches_and_is_nonnegative(self, a, f):
        m = make_hmm(a, [1.0, 0.0, 0.0])
        gamma = carre_du_champ(m, f)
        assert np.all(gamma >= -1e-12)
        q = q_matrices(m.rate)
        assert np.allclose(gamma, q(f), atol=1e-10)


class TestErgodicClasses:
    def test_block_diagonal_two_classes(self):
        a = np.zeros((4, 4))
        a[:2, :2] = [[-1.0, 1.0], [2.0, -2.0]]
        a[2:, 2:] = [[-0.5, 0.5], [0.7, -0.7]]
        classes, transient = ergodic_classes(RateMatrix(a))
        assert classes == [frozenset({0, 1}), frozenset({2, 3})]
        assert transient == frozenset()

    def test_counter_example_single_class(self):
        classes, transient = ergodic_classes(counter_example().rate)
        assert classes == [frozenset({0, 1, 2, 3})]
        assert not transient

    def test_zero_generator_gives_singletons(self):
        classes, transient = ergodic_classes(RateMatrix(np.zeros((3, 3))))
        assert classes == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert not transient

    def test_transient_state_detected(self):
        a = np.array([
            [-1.0, 0.5, 0.5],
            [0.0, -1.0, 1.0],
            [0.0, 1.0, -1.0],
        ])
        classes, transient = ergodic_classes(RateMatrix(a))
        assert classes == [frozenset({1, 2})]
        assert transient == frozenset({0})

    def test_partition_property(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            mask = rng.random((d, d)) < 0.4
            off = np.where(mask, rng.uniform(0.1, 2.0, (d, d)), 0.0)
            np.fill_diagonal(off, 0.0)
            a = RateMatrix(off - np.diag(off.sum(axis=1)))
            classes, transient = ergodic_classes(a)
            union = set(transient)
            for cls in classes:
                assert union.isdisjoint(cls)
                union |= cls
            assert union == set(range(d))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda d: st.lists(
        st.sampled_from([0.0, 0.0, 0.0, 0.0, 1e-13, 0.3, 2.0]), min_size=d * d, max_size=d * d)))
    def test_matches_scipy_strong_components(self, entries):
        # sparse random graphs: several classes, transient states and
        # sub-threshold rates (1e-13 is no edge)
        d = int(round(len(entries) ** 0.5))
        off = np.array(entries).reshape(d, d)
        np.fill_diagonal(off, 0.0)
        a = off - np.diag(off.sum(axis=1))
        n_comp, labels = connected_components(csr_matrix(a > 1e-12), directed=True,
                                              connection="strong")
        closed, transient = [], set()
        for c in range(n_comp):
            idx = np.flatnonzero(labels == c)
            outside = np.setdiff1d(np.arange(d), idx)
            if a[np.ix_(idx, outside)].max(initial=0.0) > 1e-12:
                transient.update(idx.tolist())
            else:
                closed.append(frozenset(idx.tolist()))
        assert ergodic_classes(RateMatrix(a)) == (sorted(closed, key=min), frozenset(transient))


class TestInvariantMeasure:
    def test_counter_example_uniform(self):
        mu = invariant_measure(counter_example().rate)
        assert np.allclose(mu.entries, 0.25, atol=1e-12)

    def test_two_state_closed_form(self):
        # stationary law of [[-a1,a1],[a2,-a2]] is (a2, a1)/(a1+a2)
        a1, a2 = 3.0, 0.5
        mu = invariant_measure(RateMatrix([[-a1, a1], [a2, -a2]]))
        assert np.allclose(mu.entries, [a2 / (a1 + a2), a1 / (a1 + a2)], atol=1e-12)

    def test_singleton_class(self):
        rate = RateMatrix(np.zeros((3, 3)))
        mu = invariant_measure(rate, {1})
        assert np.allclose(mu.entries, [0.0, 1.0, 0.0])

    def test_residual_bound(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            off = rng.uniform(0.05, 2.0, (d, d))
            np.fill_diagonal(off, 0.0)
            rate = RateMatrix(off - np.diag(off.sum(axis=1)))
            mu = invariant_measure(rate)
            assert np.abs(rate.entries.T @ mu.entries).max() <= 1e-10

    def test_open_class_rejected(self):
        a = np.array([
            [-1.0, 0.5, 0.5],
            [0.0, -1.0, 1.0],
            [0.0, 1.0, -1.0],
        ])
        with pytest.raises(ValueError, match="closed communicating class"):
            invariant_measure(RateMatrix(a), {0, 1})


class TestModelIO:
    def test_round_trip_hmm(self):
        doc = {
            "rate": [[-1.0, 1.0], [2.0, -2.0]],
            "obs": [[1.0], [0.0]],
            "prior": [0.3, 0.7],
        }
        m = model_from_json(json.dumps(doc))
        assert isinstance(m, HmmModel)
        assert m.dim == 2

    def test_linear_gaussian_document(self):
        doc = {
            "a_mat": [[0.0]], "h_mat": [[1.0]], "sigma": [[1.0]],
            "mean0": [0.0], "cov0": [[1.0]],
        }
        m = model_from_json(json.dumps(doc))
        assert isinstance(m, LinearGaussianModel)

    def test_ragged_rejected(self):
        doc = {"rate": [[-1.0, 1.0], [2.0]], "obs": [[1.0], [0.0]], "prior": [0.5, 0.5]}
        with pytest.raises(ValueError, match="ragged"):
            model_from_json(json.dumps(doc))

    def test_unknown_document_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            model_from_json(json.dumps({"foo": 1}))
