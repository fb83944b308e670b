import math

import numpy as np
import pytest

from plrank import (
    Dataset,
    MixtureParams,
    ValidationError,
    mixture_loglik,
    mixture_logliks_per_unit,
    pl_prob,
    sample_mixture,
)
from oracles import (
    all_complete_orderings,
    mixture_loglik_direct,
    ordering_row_loglik,
    random_partial_matrix,
)


def test_pl_prob_hand_values():
    p = np.array([0.3, 0.5, 0.2])
    # stagewise: 0.5 * (0.3 / 0.5) * 1
    assert pl_prob(np.array([2, 1, 3]), p) == pytest.approx(0.3, abs=1e-12)
    assert pl_prob(np.array([2, 0, 0]), p) == pytest.approx(0.5, abs=1e-12)
    uni = np.ones(3)
    assert pl_prob(np.array([3, 1, 2]), uni) == pytest.approx(1 / 6, abs=1e-12)
    # late stages at extreme supports: the remaining mass is a sum of
    # tiny supports that a running difference from the total cancels
    ext = np.array([1.0, 1e-17, 1e-17])
    assert pl_prob(np.array([1, 2, 3]), ext) == pytest.approx(0.5, rel=1e-12)
    ext = np.array([1.0, 1e-17, 1e-17, 1e-17])
    assert pl_prob(np.array([1, 2, 0, 0]), ext) == pytest.approx(1 / 3, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValidationError):
        MixtureParams(np.array([[0.5, 0.0]]), np.array([1.0]))
    with pytest.raises(ValidationError):
        MixtureParams(np.array([[0.5, 0.5]]), np.array([0.7]))
    with pytest.raises(ValidationError):
        MixtureParams(np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([0.5, 0.4]))
    params = MixtureParams.uniform(2, 4)
    norm = params.normalized()
    assert np.allclose(norm.supports.sum(axis=1), 1.0)
    assert np.allclose(norm.marginal, np.full(4, 0.25))


def test_scale_invariance():
    rng = np.random.default_rng(2)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    sup = rng.uniform(0.1, 2.0, size=(2, 4))
    w = np.array([0.3, 0.7])
    a = mixture_logliks_per_unit(MixtureParams(sup, w), data)
    b = mixture_logliks_per_unit(MixtureParams(sup * 7.3, w), data)
    assert np.allclose(a, b, atol=1e-12)


def test_enumeration_sums_to_one():
    rng = np.random.default_rng(4)
    for K in (3, 4):
        sup = rng.uniform(0.05, 1.5, size=(3, K))
        w = rng.dirichlet(np.ones(3))
        params = MixtureParams(sup, w)
        total = 0.0
        for perm in all_complete_orderings(K):
            data = Dataset.from_orderings(np.array([perm]))
            total += math.exp(mixture_loglik(params, data))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_degenerate_mixture_matches_single():
    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 25, 5)
    data = Dataset.from_orderings(mat)
    p = rng.uniform(0.1, 1.0, size=5)
    single = mixture_loglik(MixtureParams(p[None, :], np.array([1.0])), data)
    double = mixture_loglik(
        MixtureParams(np.vstack([p, p]), np.array([0.4, 0.6])), data
    )
    assert double == pytest.approx(single, abs=1e-10)


def test_uniform_complete_loglik():
    rng = np.random.default_rng(8)
    K, N = 5, 40
    perms = np.array([rng.permutation(K) + 1 for _ in range(N)])
    data = Dataset.from_orderings(perms)
    ll = mixture_loglik(MixtureParams.uniform(1, K), data)
    assert ll == pytest.approx(-N * math.log(math.factorial(K)), abs=1e-10)


def test_against_direct_oracle():
    rng = np.random.default_rng(10)
    for _ in range(5):
        K = int(rng.integers(3, 7))
        G = int(rng.integers(1, 4))
        mat, depths = random_partial_matrix(rng, 35, K)
        data = Dataset.from_orderings(mat)
        sup = rng.uniform(0.05, 2.0, size=(G, K))
        w = rng.dirichlet(np.ones(G))
        params = MixtureParams(sup, w)
        want = mixture_loglik_direct(sup, w, mat, depths)
        assert mixture_loglik(params, data) == pytest.approx(want, abs=1e-10)
        per_unit = mixture_logliks_per_unit(params, data)
        assert per_unit.shape == (35,)
        assert per_unit.sum() == pytest.approx(want, abs=1e-10)


def test_sample_shapes_and_determinism():
    params = MixtureParams(
        np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]), np.array([0.5, 0.5])
    )
    lab1, data1 = sample_mixture(200, 3, 2, params, np.random.default_rng(42))
    lab2, data2 = sample_mixture(200, 3, 2, params, np.random.default_rng(42))
    assert np.array_equal(lab1, lab2)
    assert np.array_equal(data1.orderings, data2.orderings)
    assert data1.is_complete and data1.n_units == 200
    assert set(np.unique(lab1)) <= {1, 2}


def test_sample_distribution_gof():
    # single component: compare sampled ordering frequencies against the
    # exact stagewise probabilities with a chi-squared test
    from scipy.stats import chi2

    p = np.array([0.5, 0.3, 0.2])
    params = MixtureParams(p[None, :], np.array([1.0]))
    n = 6000
    _, data = sample_mixture(n, 3, 1, params, np.random.default_rng(123))
    perms = all_complete_orderings(3)
    probs = np.array([math.exp(ordering_row_loglik(pm, p)) for pm in perms])
    counts = np.zeros(len(perms))
    seen = {tuple(pm): i for i, pm in enumerate(perms)}
    for row in data.orderings:
        counts[seen[tuple(row.tolist())]] += 1
    stat = ((counts - n * probs) ** 2 / (n * probs)).sum()
    assert stat < chi2.ppf(0.999, df=len(perms) - 1)


def test_sample_label_frequencies():
    from scipy.stats import chi2

    params = MixtureParams(np.ones((3, 4)), np.array([0.2, 0.3, 0.5]))
    labels, _ = sample_mixture(5000, 4, 3, params, np.random.default_rng(77))
    counts = np.bincount(labels, minlength=4)[1:]
    expected = 5000 * np.array([0.2, 0.3, 0.5])
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(0.999, df=2)
