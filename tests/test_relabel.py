import dataclasses
import tracemalloc

import numpy as np
import pytest

from plrank import (
    Dataset,
    MixtureParams,
    ValidationError,
    fit_map,
    gibbs_run,
    pra_relabel,
)
from plrank.gibbs import GibbsChain
from plrank.relabel import _best_assignment
from oracles import (
    best_permutation_cost,
    best_permutation_exhaustive,
    random_partial_matrix,
)


def _chain_from_profiles(profiles, weights, perm_per_sweep):
    """Build a chain whose sweep l holds profiles[perm[l][g]] in slot g."""
    L = len(perm_per_sweep)
    G, K = profiles.shape
    P = np.empty((L, G * K))
    W = np.empty((L, G))
    for l, perm in enumerate(perm_per_sweep):
        P[l] = profiles[list(perm)].reshape(-1)
        W[l] = weights[list(perm)]
    ll = np.linspace(-50.0, -49.0, L)
    return GibbsChain(P=P, W=W, log_lik=ll, deviance=-2 * ll, seed=None)


def test_half_swapped_chain_restored():
    profiles = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    weights = np.array([0.7, 0.3])
    perms = [(0, 1)] * 5 + [(1, 0)] * 5
    chain = _chain_from_profiles(profiles, weights, perms)
    pivot = MixtureParams(profiles, weights)
    out = pra_relabel(chain, pivot)
    aligned = _chain_from_profiles(profiles, weights, [(0, 1)] * 10)
    assert np.array_equal(out.P, aligned.P)
    assert np.array_equal(out.W, aligned.W)
    assert np.array_equal(out.log_lik, chain.log_lik)
    assert np.array_equal(out.deviance, chain.deviance)
    assert out.permutations[:5].tolist() == [[0, 1]] * 5
    assert out.permutations[5:].tolist() == [[1, 0]] * 5
    # a relabeled chain is a chain: every consumer of GibbsChain takes it
    assert isinstance(out, GibbsChain)
    assert out.seed is chain.seed is None
    seeded = dataclasses.replace(chain, seed=17)
    assert pra_relabel(seeded, pivot).seed == 17


def test_relabel_idempotent():
    profiles = np.array([[0.5, 0.4, 0.1], [0.2, 0.2, 0.6]])
    weights = np.array([0.5, 0.5])
    perms = [(0, 1), (1, 0), (1, 0), (0, 1)]
    chain = _chain_from_profiles(profiles, weights, perms)
    pivot = MixtureParams(profiles, weights)
    once = pra_relabel(chain, pivot)
    twice = pra_relabel(once, pivot)
    assert np.array_equal(once.P, twice.P)
    assert np.array_equal(once.W, twice.W)
    assert np.all(twice.permutations == np.arange(2)[None, :])


def test_tied_components_take_identity():
    profiles = np.array([[0.5, 0.5], [0.5, 0.5]])
    weights = np.array([0.5, 0.5])
    chain = _chain_from_profiles(profiles, weights, [(0, 1)] * 3)
    out = pra_relabel(chain, MixtureParams(profiles, weights))
    assert np.all(out.permutations == np.arange(2)[None, :])


def test_matches_assignment_solver():
    rng = np.random.default_rng(0)
    G, K, L = 4, 5, 40
    P = rng.uniform(0.05, 1.0, size=(L, G * K))
    W = rng.dirichlet(np.ones(G), size=L)
    ll = rng.normal(size=L)
    chain = GibbsChain(
        P=P, W=W, log_lik=ll, deviance=-2 * ll, seed=None
    )
    pivot_p = rng.uniform(0.05, 1.0, size=(G, K))
    pivot_w = rng.dirichlet(np.ones(G))
    pivot = MixtureParams(pivot_p, pivot_w)
    out = pra_relabel(chain, pivot)

    ref = pivot_p / pivot_p.sum(axis=1, keepdims=True)
    ref = np.hstack([ref, pivot_w[:, None]])
    P3 = chain.supports_3d()
    for l in range(L):
        rows = P3[l] / P3[l].sum(axis=1, keepdims=True)
        vecs = np.hstack([rows, W[l][:, None]])
        want_cost, _ = best_permutation_cost(vecs, ref)
        sigma = out.permutations[l]
        got_cost = sum(
            ((vecs[sigma[g]] - ref[g]) ** 2).sum() for g in range(G)
        )
        assert got_cost == pytest.approx(want_cost, abs=1e-10)


def test_relabel_real_chain_smoke():
    rng = np.random.default_rng(1)
    params = MixtureParams(
        np.array([[0.6, 0.25, 0.1, 0.05], [0.05, 0.1, 0.25, 0.6]]),
        np.array([0.5, 0.5]),
    )
    from plrank import sample_mixture

    _, data = sample_mixture(400, 4, 2, params, rng)
    fit = fit_map(data, 2, rng=rng)
    chain = gibbs_run(data, 2, n_iter=60, n_burn=20, rng=3)
    out = pra_relabel(chain, fit)
    assert out.P.shape == chain.P.shape
    assert np.array_equal(np.sort(out.permutations, axis=1), np.tile([0, 1], (40, 1)))
    # every sweep's support block is a permutation of the original
    P3_in, P3_out = chain.supports_3d(), out.supports_3d()
    for l in range(out.n_kept):
        assert np.allclose(
            np.sort(P3_in[l], axis=0), np.sort(P3_out[l], axis=0), atol=0
        )


def test_component_cap():
    G = 9
    L, K = 2, 3
    P = np.full((L, G * K), 0.5)
    W = np.full((L, G), 1.0 / G)
    ll = np.zeros(L)
    chain = GibbsChain(
        P=P, W=W, log_lik=ll, deviance=-2 * ll, seed=None
    )
    pivot = MixtureParams(np.full((G, K), 0.5), np.full(G, 1.0 / G))
    with pytest.raises(ValidationError):
        pra_relabel(chain, pivot)


def _random_chain(rng, G, K, L):
    P = rng.uniform(0.05, 1.0, size=(L, G * K))
    W = rng.dirichlet(np.ones(G), size=L)
    ll = rng.normal(size=L)
    chain = GibbsChain(
        P=P, W=W, log_lik=ll, deviance=-2 * ll, seed=None
    )
    pivot_p = rng.uniform(0.05, 1.0, size=(G, K))
    return chain, MixtureParams(pivot_p, rng.dirichlet(np.ones(G)))


@pytest.mark.parametrize("G", range(1, 7))
def test_matches_exhaustive_search(G):
    rng = np.random.default_rng(100 + G)
    K, L = 4, 150
    chain, pivot = _random_chain(rng, G, K, L)
    out = pra_relabel(chain, pivot)

    norm = pivot.normalized()
    ref = np.hstack([norm.supports, norm.weights[:, None]])
    P3 = chain.supports_3d()
    near_ties = 0
    for l in range(L):
        rows = P3[l] / P3[l].sum(axis=1, keepdims=True)
        vecs = np.hstack([rows, chain.W[l][:, None]])
        cost = ((ref[:, None, :] - vecs[None, :, :]) ** 2).sum(axis=2)
        want, totals = best_permutation_exhaustive(cost)
        # summation order may decide a runner-up within rounding of the best
        if totals.size > 1 and totals[1] - totals[0] <= 1e-12 * totals[0]:
            near_ties += 1
            continue
        assert out.permutations[l].tolist() == want.tolist()
    assert near_ties <= L // 50


@pytest.mark.parametrize("G", range(1, 7))
def test_integer_costs_break_ties_like_exhaustive_search(G):
    # small integer costs add exactly in any order, so many permutations
    # tie exactly and the lexicographic rule alone decides
    rng = np.random.default_rng(200 + G)
    cost = rng.integers(0, 3, size=(60, G, G)).astype(np.float64)
    got = _best_assignment(cost)
    for l in range(cost.shape[0]):
        assert got[l].tolist() == best_permutation_exhaustive(cost[l])[0].tolist()


def test_identical_components_tie_to_first_permutation():
    a, b = [0.7, 0.2, 0.1], [0.1, 0.3, 0.6]
    profiles = np.array([a, b, b])
    weights = np.array([0.4, 0.3, 0.3])
    chain = _chain_from_profiles(profiles, weights, [(1, 0, 2), (2, 1, 0), (0, 1, 2)])
    pivot = MixtureParams(profiles, weights)
    out = pra_relabel(chain, pivot)
    # sources holding b tie for slots 1 and 2: the lower source goes first
    assert out.permutations.tolist() == [[1, 0, 2], [2, 0, 1], [0, 1, 2]]
    assert np.array_equal(out.P, np.tile(profiles.reshape(-1), (3, 1)))
    again = pra_relabel(out, pivot)
    assert np.all(again.permutations == np.arange(3)[None, :])


def test_eight_components_small_memory():
    chain, pivot = _random_chain(np.random.default_rng(8), 8, 10, 256)
    tracemalloc.start()
    try:
        out = pra_relabel(chain, pivot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert (np.sort(out.permutations, axis=1) == np.arange(8)).all()


def test_non_finite_draws_rejected():
    # an overflowing distance would leave no finite optimum to follow
    chain, pivot = _random_chain(np.random.default_rng(9), 3, 4, 5)
    W = chain.W.copy()
    W[2, 1] = np.inf
    bad = GibbsChain(
        P=chain.P, W=W, log_lik=chain.log_lik, deviance=chain.deviance, seed=None
    )
    with pytest.raises(ValidationError):
        pra_relabel(bad, pivot)
