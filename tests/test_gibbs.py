import numpy as np
import pytest

from plrank import (
    Dataset,
    Hyperparams,
    MixtureParams,
    ValidationError,
    fit_map,
    gibbs_run,
    init_from_map,
    mixture_loglik,
    sample_mixture,
)
from plrank.gibbs import _support_conditional, stage_rates
from oracles import random_partial_matrix, support_conditional_direct


def test_stage_rates_hand():
    rates = stage_rates(np.array([2, 3, 1]), np.array([0.3, 0.5, 0.2]))
    assert np.allclose(rates, [1.0, 0.5, 0.3], atol=1e-15)
    rates = stage_rates(np.array([2, 0, 0]), np.array([0.3, 0.5, 0.2]))
    assert np.allclose(rates, [1.0], atol=1e-15)
    rates = stage_rates((1, 2, 3), np.array([1.0, 1e-17, 1e-17]))
    assert np.allclose(rates, [1.0, 2e-17, 1e-17], rtol=1e-12, atol=0)
    rates = stage_rates((1, 2, 0, 0), np.array([1.0, 1e-17, 1e-17, 1e-17]))
    assert np.allclose(rates, [1.0, 3e-17], rtol=1e-12, atol=0)


def test_chain_shapes_and_determinism():
    rng = np.random.default_rng(0)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    a = gibbs_run(data, 2, n_iter=80, n_burn=20, rng=123)
    b = gibbs_run(data, 2, n_iter=80, n_burn=20, rng=123)
    assert a.P.shape == (60, 8) and a.W.shape == (60, 2)
    assert a.log_lik.shape == (60,) and a.n_kept == 60
    assert a.seed == 123
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.log_lik, b.log_lik)
    assert np.allclose(a.deviance, -2.0 * a.log_lik, atol=0)
    # stored support rows are normalized per component
    assert np.allclose(a.supports_3d().sum(axis=2), 1.0, atol=1e-12)
    assert np.allclose(a.W.sum(axis=1), 1.0, atol=1e-12)


def test_generator_rng_accepted():
    rng = np.random.default_rng(1)
    mat, _ = random_partial_matrix(rng, 20, 3)
    data = Dataset.from_orderings(mat)
    chain = gibbs_run(data, 1, n_iter=30, n_burn=5, rng=np.random.default_rng(7))
    assert chain.seed is None
    assert chain.n_kept == 25


def test_support_conditional_matches_loop_oracle():
    rng = np.random.default_rng(2)
    mat, depths = random_partial_matrix(rng, 25, 5)
    data = Dataset.from_orderings(mat)
    G = 3
    z = np.eye(G, dtype=np.int64)[rng.integers(G, size=25)]
    y = np.zeros((25, 5))
    for s in range(25):
        y[s, : depths[s]] = rng.exponential(size=depths[s])
    hyper = Hyperparams.expand(1.7, 0.4, 1.0, G, 5)
    # unit cells: column s of the stage-major times holds unit s's
    g = np.argmax(z, axis=1)
    a, b = _support_conditional(data, g, np.ones(25), y.T.copy(), hyper)
    a2, b2 = support_conditional_direct(mat, depths, z, y, hyper.shape, hyper.rate)
    assert np.allclose(a, a2, atol=1e-12)
    assert np.allclose(b, b2, atol=1e-10)


def test_single_component_tracks_mle():
    rng = np.random.default_rng(3)
    p = np.array([0.45, 0.3, 0.15, 0.1])
    params = MixtureParams(p[None, :], np.array([1.0]))
    _, data = sample_mixture(800, 4, 1, params, rng)
    fit = fit_map(data, 1, rng=rng)
    chain = gibbs_run(data, 1, n_iter=600, n_burn=100, rng=11)
    # posterior mass sits near the MLE and never beats it in likelihood
    assert chain.log_lik.max() <= fit.log_lik + 1e-6
    post_mean = chain.supports_3d().mean(axis=0)[0]
    assert np.abs(post_mean - fit.supports[0]).max() < 0.03


def test_init_from_map_and_explicit_init():
    rng = np.random.default_rng(4)
    mat, _ = random_partial_matrix(rng, 40, 4)
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 2, rng=rng)
    init = init_from_map(fit)
    assert np.array_equal(init["p"], fit.supports)
    onehot = np.eye(2, dtype=np.int64)[fit.labels - 1]
    assert np.array_equal(init["z"], onehot)
    chain = gibbs_run(data, 2, init=init, n_iter=40, n_burn=10, rng=5)
    assert chain.n_kept == 30
    # labels may come in 1-based vector form too
    chain2 = gibbs_run(
        data, 2, init={"p": fit.supports, "z": fit.labels},
        n_iter=40, n_burn=10, rng=5,
    )
    assert np.array_equal(chain.P, chain2.P)


def test_init_validation():
    rng = np.random.default_rng(5)
    mat, _ = random_partial_matrix(rng, 10, 3)
    data = Dataset.from_orderings(mat)
    with pytest.raises(ValidationError):
        gibbs_run(data, 2, init={"p": np.ones((3, 3))}, n_iter=10, n_burn=0, rng=1)
    with pytest.raises(ValidationError):
        gibbs_run(
            data, 2,
            init={"p": np.ones((2, 3)), "z": np.array([3] * 10)},
            n_iter=10, n_burn=0, rng=1,
        )
    with pytest.raises(ValidationError):
        gibbs_run(
            data, 2,
            init={"p": np.ones((2, 3)), "z": np.array([1.5, 2.0, 1.0, 2.9] + [1] * 6)},
            n_iter=10, n_burn=0, rng=1,
        )
    with pytest.raises(ValidationError):
        gibbs_run(data, 1, n_iter=5, n_burn=5, rng=1)  # nothing kept


def test_empty_component_under_flat_prior_is_sampled():
    # an empty component's normalized supports are drawn from their
    # Dirichlet(c) prior, which a zero rate leaves proper
    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 12, 3)
    data = Dataset.from_orderings(mat)
    init = {"p": np.ones((2, 3)), "z": np.ones(12, dtype=np.int64)}
    for hyper in (None, Hyperparams.expand(1.0, 0.5, 1.0, 2, 3)):
        chain = gibbs_run(data, 2, hyper=hyper, init=init, n_iter=10, n_burn=0, rng=2)
        assert chain.n_kept == 10
        assert np.isfinite(chain.P).all() and (chain.P > 0).all()


def test_loglik_column_is_observed_data_loglik():
    # recompute the likelihood of the last kept draw from its stored
    # normalized parameters; scale invariance makes the check exact
    rng = np.random.default_rng(7)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    chain = gibbs_run(data, 2, n_iter=50, n_burn=10, rng=9)
    last = chain.n_kept - 1
    params = MixtureParams(chain.supports_3d()[last], chain.W[last])
    assert chain.log_lik[last] == pytest.approx(
        mixture_loglik(params, data), abs=1e-8
    )


def test_two_item_posterior_shape():
    # one top-1 observation of item 1 out of 2, independent Gamma(1, 1)
    # priors: the posterior of the normalized first support has density
    # 2x on (0,1); check the first two moments against 20000 kept draws
    data = Dataset.from_orderings(np.array([[1, 0]]))
    hyper = Hyperparams.expand(1.0, 1.0, 1.0, 1, 2)
    chain = gibbs_run(data, 1, hyper=hyper, n_iter=21000, n_burn=1000, rng=31)
    phi = chain.supports_3d()[:, 0, 0]
    assert abs(phi.mean() - 2 / 3) < 0.01
    assert abs((phi**2).mean() - 0.5) < 0.01


def test_flat_prior_samples_the_zero_rate_limit():
    # the normalized supports have the same posterior at every positive
    # rate, so the flat prior must reproduce test_two_item_posterior_shape
    data = Dataset.from_orderings(np.array([[1, 0]]))
    chain = gibbs_run(data, 1, n_iter=21000, n_burn=1000, rng=31)
    phi = chain.supports_3d()[:, 0, 0]
    assert abs(phi.mean() - 2 / 3) < 0.01
    assert abs((phi**2).mean() - 0.5) < 0.01
