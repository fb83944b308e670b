"""The pattern view and the engine that runs on it: likelihood, EM and
the sampler run once per distinct ranking, weighted by its count, and
must agree with the unit-level references in oracles.py."""

import numpy as np
import pytest

from plrank import (
    Dataset,
    Hyperparams,
    MixtureParams,
    em_step,
    fit_map,
    gibbs_run,
    init_from_map,
    make_partial,
    mixture_loglik,
    mixture_logliks_per_unit,
    sample_mixture,
)
from plrank.model import component_stage_logliks
from oracles import em_step_units, gibbs_run_units, random_partial_matrix

APA_SUPPORTS = [
    [0.06247449, 0.03295813, 0.01664217, 0.51188738, 0.37603783],
    [0.27331708, 0.04903217, 0.61671929, 0.02382562, 0.03710584],
    [0.18807113, 0.22080423, 0.14093403, 0.22727853, 0.22291209],
]


def shaped_data(shape, n, seed):
    """(params, data) shaped like the benchmark's workloads at size n:
    c9 (K=6, G=3, complete), ballot (K=5, G=3, depths 1/2/3/5) and wide
    (K=10, G=4, depths 3/5/7/10, mostly distinct rows)."""
    rng = np.random.default_rng(seed)
    if shape == "c9":
        p = np.random.default_rng(5).gamma(2.0, 1.0, (3, 6))
        params = MixtureParams(p, [0.5, 0.3, 0.2])
        probcens = None
    elif shape == "ballot":
        params = MixtureParams(np.array(APA_SUPPORTS), [0.1, 0.3, 0.6])
        probcens = [0.35, 0.20, 0.07, 0.38]
    else:
        p = np.random.default_rng(10).gamma(2.0, 1.0, (4, 10))
        params = MixtureParams(p, [0.4, 0.3, 0.2, 0.1])
        probcens = [0, 0, 0.25, 0, 0.25, 0, 0.25, 0, 0.25]
    G, K = params.supports.shape
    _, data = sample_mixture(n, K, G, params, rng)
    if probcens is not None:
        data, _ = make_partial(data, probcens=probcens, rng=rng)
    return params, data


def test_pattern_view_groups_rows():
    rng = np.random.default_rng(0)
    mat, _ = random_partial_matrix(rng, 300, 4)
    data = Dataset.from_orderings(mat)
    assert "patterns" not in vars(data)  # built on first use only
    rows, index = data.patterns
    assert data.patterns is data.patterns
    want, want_counts = np.unique(mat, axis=0, return_counts=True)
    assert np.array_equal(rows.orderings, want)
    assert np.array_equal(rows.counts, want_counts)
    assert np.array_equal(rows.orderings[index], data.orderings)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


@pytest.mark.parametrize("shape, n", [("c9", 3000), ("ballot", 3000), ("wide", 1500)])
def test_likelihood_and_em_match_unit_reference(shape, n):
    params, data = shaped_data(shape, n, seed=11)
    G, K = params.supports.shape
    assert data.patterns.rows.counts.shape[0] < n
    hyper = Hyperparams.expand(1.0, 0.001, 1.0, G, K)
    p, w = params.supports, params.weights

    ref_p, ref_w, ref_z, ref_ll = em_step_units(p, w, data, hyper)
    assert _rel(mixture_loglik(params, data), ref_ll) <= 1e-12
    assert _rel(mixture_logliks_per_unit(params, data).sum(), ref_ll) <= 1e-12
    new, zhat = em_step(params, data, hyper)
    assert _rel(new.supports, ref_p) <= 1e-12
    assert _rel(new.weights, ref_w) <= 1e-12
    assert np.abs(zhat - ref_z).max() <= 1e-12

    start = MixtureParams(np.random.default_rng(3).uniform(0.01, 1.0, (G, K)),
                          np.full(G, 1.0 / G))
    fit = fit_map(data, G, hyper=hyper, init=start, max_iter=30, tol=0.0)
    p, w = start.supports, start.weights
    for _ in range(30):
        p, w, _, _ = em_step_units(p, w, data, hyper)
    _, _, ref_z, ref_ll = em_step_units(p, w, data, hyper)
    assert fit.n_iter_used == 30
    assert _rel(fit.supports_raw, p) <= 1e-12
    assert _rel(fit.weights, w) <= 1e-12
    assert _rel(fit.log_lik, ref_ll) <= 1e-12
    assert np.abs(fit.responsibilities - ref_z).max() <= 1e-12
    assert np.array_equal(fit.labels, np.argmax(ref_z, axis=1) + 1)


def _means_and_mcse(draws, batches=20):
    m = draws.shape[0] // batches
    b = draws[: batches * m].reshape(batches, m, -1).mean(axis=1)
    return draws.mean(axis=0), b.std(axis=0, ddof=1) / np.sqrt(batches)


# Two well-separated components: at test-sized N the G=3 posteriors of these
# shapes have ridges that the unit-level sweep, whose membership step is
# conditioned on the stage times, does not cross within a test-length chain.
TWO_COMPONENTS = {
    "c9": (np.random.default_rng(5).gamma(2.0, 1.0, (3, 6))[[0, 2]], None),
    "ballot": (np.array(APA_SUPPORTS[:2]), [0.35, 0.20, 0.07, 0.38]),
}


@pytest.mark.parametrize("shape", ["c9", "ballot"])
def test_pattern_sampler_matches_unit_reference(shape):
    supports, probcens = TWO_COMPONENTS[shape]
    rng = np.random.default_rng(21)
    params = MixtureParams(supports, [0.6, 0.4])
    _, data = sample_mixture(1500, supports.shape[1], 2, params, rng)
    if probcens is not None:
        data, _ = make_partial(data, probcens=probcens, rng=rng)
    G, K = supports.shape
    hyper = Hyperparams.expand(1.0, 0.001, 1.0, G, K)
    fit = fit_map(data, G, hyper=hyper, init=params, max_iter=200)
    init = {"p": fit.supports, "z": fit.labels}
    n_iter, n_burn = 3000, 200
    chain = gibbs_run(data, G, hyper=hyper, init=init_from_map(fit),
                      n_iter=n_iter, n_burn=n_burn, rng=8)
    P, W, ll = gibbs_run_units(data, G, hyper, init, n_iter, n_burn,
                               np.random.default_rng(9))
    new = np.column_stack([chain.P, chain.W, chain.deviance])
    ref = np.column_stack([P, W, -2.0 * ll])
    m_new, se_new = _means_and_mcse(new)
    m_ref, se_ref = _means_and_mcse(ref)
    z = np.abs(m_new - m_ref) / np.sqrt(se_new**2 + se_ref**2)
    assert z.max() <= 3.0, (z.argmax(), z.max())


def test_pattern_sampler_matches_exact_posterior():
    # K=3, G=2, 40 units in at most 6 distinct rows: posterior means of
    # label-free summaries (the marginal supports, sum of squared weights,
    # deviance) by importance sampling from the prior of the normalized
    # parameters, Dirichlet(c) per component and Dirichlet(1) weights
    K, G, c = 3, 2, 1.5
    params = MixtureParams(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]), [0.5, 0.5])
    _, data = sample_mixture(40, K, G, params, np.random.default_rng(1))
    rows = data.patterns.rows
    counts = rows.counts
    rng = np.random.default_rng(0)
    M = 100_000
    theta = rng.dirichlet(np.full(K, c), size=(M, G))
    w = rng.dirichlet(np.ones(G), size=M)
    comp = component_stage_logliks(rows, theta.reshape(M * G, K))
    lik = np.exp(comp).reshape(-1, M, G)
    ll = counts @ np.log((lik * w).sum(axis=2))
    wt = np.exp(ll - ll.max())
    wt /= wt.sum()

    def summaries(theta, w, ll):
        pbar = np.einsum("mg,mgk->mk", w, theta)
        return np.column_stack([pbar, (w**2).sum(axis=1), -2.0 * ll])

    s = summaries(theta, w, ll)
    exact = wt @ s
    se_exact = np.sqrt(wt**2 @ (s - exact) ** 2)
    hyper = Hyperparams.expand(c, 1.0, 1.0, G, K)
    chain = gibbs_run(data, G, hyper=hyper, n_iter=20000, n_burn=500, rng=5)
    mean, mcse = _means_and_mcse(summaries(chain.supports_3d(), chain.W, chain.log_lik))
    z = np.abs(mean - exact) / np.sqrt(mcse**2 + se_exact**2)
    assert z.max() <= 3.0, z
