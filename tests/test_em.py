import math
import warnings

import numpy as np
import pytest

from plrank import (
    Dataset,
    Hyperparams,
    MixtureParams,
    ValidationError,
    bic,
    em_step,
    fit_map,
    fit_map_multistart,
    mixture_loglik,
    sample_mixture,
)
from oracles import (
    em_update_single,
    random_partial_matrix,
    responsibilities_direct,
)


def test_hyperparams_expand_and_flags():
    h = Hyperparams.expand(2.0, 0.5, 1.5, 3, 4)
    assert h.shape.shape == (3, 4) and np.all(h.shape == 2.0)
    assert h.rate.tolist() == [0.5] * 3
    assert h.alpha.tolist() == [1.5] * 3
    assert not h.is_flat
    assert Hyperparams.flat(2, 5).is_flat
    with pytest.raises(ValidationError):
        Hyperparams.expand(-1.0, 0.0, 1.0, 2, 3)


def test_single_component_update_matches_loop_oracle():
    mat = np.array([[2, 1, 3], [3, 0, 0], [1, 3, 2]])
    depths = np.array([3, 1, 3])
    data = Dataset.from_orderings(mat)
    p0 = np.array([0.4, 0.9, 0.7])
    params = MixtureParams(p0[None, :], np.array([1.0]))
    new, resp = em_step(params, data, Hyperparams.flat(1, 3))
    want = em_update_single(p0, mat, depths)
    assert np.allclose(new.supports[0], want, atol=1e-12)
    assert np.allclose(resp, 1.0)


def test_update_exact_at_extreme_supports():
    # the remaining mass at late stages is 1e-17 scale; a running
    # difference from the total rounds it to 0 and the update divides by it
    data = Dataset.from_orderings(np.array([[1, 2, 3], [1, 3, 2]]))
    params = MixtureParams(np.array([[1.0, 1e-17, 1e-17]]), np.array([1.0]))
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="invalid value")
        warnings.filterwarnings("ignore", message="support estimate hit")
        new, _ = em_step(params, data, Hyperparams.flat(1, 3))
    assert new.supports[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_single_component_update_with_prior():
    rng = np.random.default_rng(0)
    mat, depths = random_partial_matrix(rng, 20, 4)
    data = Dataset.from_orderings(mat)
    p0 = rng.uniform(0.2, 1.0, size=4)
    shape = np.full((1, 4), 2.5)
    hyper = Hyperparams(shape=shape, rate=np.array([1.2]), alpha=np.array([1.0]))
    params = MixtureParams(p0[None, :], np.array([1.0]))
    new, _ = em_step(params, data, hyper)
    want = em_update_single(p0, mat, depths, shape=shape[0], rate=1.2)
    assert np.allclose(new.supports[0], want, atol=1e-12)


def test_responsibilities_match_direct():
    rng = np.random.default_rng(1)
    mat, depths = random_partial_matrix(rng, 25, 4)
    data = Dataset.from_orderings(mat)
    sup = rng.uniform(0.1, 1.5, size=(3, 4))
    w = rng.dirichlet(np.ones(3))
    params = MixtureParams(sup, w)
    _, resp = em_step(params, data, Hyperparams.flat(3, 4))
    want = responsibilities_direct(sup, w, mat, depths)
    assert np.allclose(resp, want, atol=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_monotone_log_posterior():
    rng = np.random.default_rng(2)
    for _ in range(30):
        K = int(rng.integers(3, 6))
        G = int(rng.integers(1, 4))
        N = int(rng.integers(8, 40))
        mat, _ = random_partial_matrix(rng, N, K)
        data = Dataset.from_orderings(mat)
        if rng.uniform() < 0.5:
            hyper = Hyperparams.flat(G, K)
        else:
            hyper = Hyperparams.expand(
                rng.uniform(1.0, 3.0), rng.uniform(0.0, 1.0),
                rng.uniform(1.0, 2.0), G, K,
            )
        fit = fit_map(data, G, hyper=hyper, max_iter=60, rng=rng)
        steps = np.diff(fit.log_post_trace)
        assert steps.min() > -1e-9


def test_flat_fit_matches_direct_optimizer():
    from scipy.optimize import minimize

    rng = np.random.default_rng(3)
    mat, depths = random_partial_matrix(rng, 15, 3)
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 1, max_iter=4000, tol=1e-13, rng=rng)

    def neg_ll(theta):
        p = np.exp(np.concatenate([theta, [0.0]]))
        return -mixture_loglik(MixtureParams(p[None, :], np.array([1.0])), data)

    best = None
    for s in range(4):
        res = minimize(
            neg_ll,
            np.random.default_rng(s).normal(size=2),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000},
        )
        if best is None or res.fun < best.fun:
            best = res
    p_opt = np.exp(np.concatenate([best.x, [0.0]]))
    p_opt /= p_opt.sum()
    assert np.abs(fit.supports[0] - p_opt).max() < 1e-5
    assert fit.log_lik == pytest.approx(-best.fun, abs=1e-8)


def test_flat_fit_reports_mle_quantities():
    rng = np.random.default_rng(4)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 2, rng=rng)
    assert fit.bic == pytest.approx(bic(fit.log_lik, 4, 2, 30), abs=1e-12)
    assert np.allclose(fit.supports.sum(axis=1), 1.0)
    assert fit.weights.shape == (2,)
    assert np.isclose(fit.weights.sum(), 1.0)
    assert fit.labels.shape == (30,)
    assert fit.labels.min() >= 1 and fit.labels.max() <= 2
    assert np.array_equal(fit.labels, np.argmax(fit.responsibilities, 1) + 1)
    assert fit.log_post == fit.log_post_trace[-1]
    # flat prior: log posterior kernel equals the log likelihood
    assert fit.log_post == pytest.approx(fit.log_lik, abs=1e-9)


def test_bic_arithmetic():
    val = bic(-10.0, 3, 2, 50)
    assert val == pytest.approx(20.0 + 5 * math.log(50), abs=1e-12)
    # one component, K items: K-1 free support parameters, no free weight
    assert bic(-1.0, 4, 1, 10) == pytest.approx(2.0 + 3 * math.log(10), abs=1e-12)


def test_informative_prior_has_no_bic():
    rng = np.random.default_rng(5)
    mat, _ = random_partial_matrix(rng, 20, 3)
    data = Dataset.from_orderings(mat)
    hyper = Hyperparams.expand(2.0, 1.0, 2.0, 1, 3)
    fit = fit_map(data, 1, hyper=hyper, rng=rng)
    assert fit.bic is None
    assert fit.log_post != pytest.approx(fit.log_lik)


def test_multistart_deterministic_and_parallel_equivalent():
    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 40, 4)
    data = Dataset.from_orderings(mat)
    a = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9))
    b = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9))
    c = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9), n_jobs=2)
    for other in (b, c):
        assert np.array_equal(a.supports, other.supports)
        assert np.array_equal(a.weights, other.weights)
        assert np.array_equal(a.final_log_posts, other.final_log_posts)
        assert a.best_start == other.best_start
    assert a.final_log_posts.shape == (3,)
    assert a.log_post == pytest.approx(a.final_log_posts.max(), abs=0)


def test_centered_start_runs():
    rng = np.random.default_rng(7)
    params = MixtureParams(
        np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]), np.array([0.5, 0.5])
    )
    _, data = sample_mixture(300, 3, 2, params, rng)
    fit = fit_map_multistart(
        data, 2, 4, centered_start=True, rng=np.random.default_rng(8)
    )
    assert fit.converged
    assert np.isfinite(fit.log_post)


def test_degenerate_data_warns_and_floors():
    # every unit reports only item 1 first: the MLE pushes the other
    # supports to zero, which the floor catches with a warning
    mat = np.zeros((12, 3), dtype=np.int64)
    mat[:, 0] = 1
    data = Dataset.from_orderings(mat)
    with pytest.warns(RuntimeWarning):
        fit = fit_map(data, 1, max_iter=2000, rng=np.random.default_rng(0))
    assert np.isfinite(fit.log_post_trace).all()
    assert fit.supports[0, 0] > 0.999


def test_classification_scale_invariance_flat():
    rng = np.random.default_rng(10)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    sup = rng.uniform(0.1, 1.0, size=(2, 4))
    w = np.array([0.45, 0.55])
    h = Hyperparams.flat(2, 4)
    _, r1 = em_step(MixtureParams(sup, w), data, h)
    _, r2 = em_step(MixtureParams(sup * np.array([[3.0], [0.2]]), w), data, h)
    assert np.allclose(r1, r2, atol=1e-10)


def test_convergence_flag():
    rng = np.random.default_rng(11)
    mat, _ = random_partial_matrix(rng, 25, 3)
    data = Dataset.from_orderings(mat)
    done = fit_map(data, 1, rng=np.random.default_rng(1))
    assert done.converged and done.n_iter_used < 400
    capped = fit_map(data, 1, max_iter=1, rng=np.random.default_rng(1))
    assert not capped.converged and capped.n_iter_used == 1


def test_explicit_init_used():
    rng = np.random.default_rng(12)
    mat, _ = random_partial_matrix(rng, 20, 3)
    data = Dataset.from_orderings(mat)
    init = MixtureParams(np.array([[0.2, 0.3, 0.5]]), np.array([1.0]))
    fit = fit_map(data, 1, init=init, max_iter=0)
    assert np.allclose(
        fit.supports_raw[0], init.supports[0], atol=0
    )
    assert fit.n_iter_used == 0
