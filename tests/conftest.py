import numpy as np
import pytest
from hypothesis import strategies as st

from dualfilter.models import HmmModel, ObservationMatrix, RateMatrix, SimplexVector


def make_hmm(rate_rows, h, prior=None) -> HmmModel:
    rate = RateMatrix(np.asarray(rate_rows, dtype=float))
    if prior is None:
        prior = np.full(rate.dim, 1.0 / rate.dim)
    return HmmModel(rate, ObservationMatrix(np.asarray(h, dtype=float)), SimplexVector(prior))


def random_hmm(rng: np.random.Generator, d: int, m: int = 1, rate_scale: float = 1.0) -> HmmModel:
    off = rng.uniform(0.2, 1.2, (d, d)) * rate_scale
    np.fill_diagonal(off, 0.0)
    a = off - np.diag(off.sum(axis=1))
    h = rng.standard_normal((d, m))
    prior = rng.dirichlet(np.ones(d))
    return make_hmm(a, h, prior)


# the stable d=3, m=2 linear-Gaussian model of the benchmark's dual_ode workload
LG3 = {
    "a_mat": [[-1.0, 0.3, 0.0], [-0.2, -0.8, 0.1], [0.0, -0.1, -1.2]],
    "h_mat": [[1.0, 0.0], [0.0, 0.5], [0.3, 1.0]],
    "sigma": [[0.5, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.3]],
    "mean0": [0.0, 0.0, 0.0],
    "cov0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# hypothesis strategies shared across test modules

def simplex_vectors(d: int):
    return st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d).map(
        lambda w: np.array(w) / np.sum(w))


def rate_matrices(d: int, max_rate: float = 3.0):
    def build(entries):
        a = np.array(entries, dtype=float).reshape(d, d)
        a = np.abs(a)
        np.fill_diagonal(a, 0.0)
        return a - np.diag(a.sum(axis=1))
    return st.lists(st.floats(0.0, max_rate), min_size=d * d, max_size=d * d).map(build)


def bounded_vectors(d: int, bound: float = 5.0):
    return st.lists(st.floats(-bound, bound), min_size=d, max_size=d).map(np.array)
