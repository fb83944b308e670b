import numpy as np
import pytest
from scipy.stats import chi2

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
from plrank import gibbs
from plrank.gibbs import _categorical, _support_conditional
from plrank.model import _stage_table
from oracles import (
    prefix_sets_direct,
    random_partial_matrix,
    sums_per_set,
    support_conditional_direct,
)


def _single_row_rates(row, p):
    """One unit's stage-time rates: the remaining support mass before each
    of its ranked stages, from _stage_table on a one-row dataset."""
    data = Dataset.from_orderings(np.asarray(row)[None, :])
    return _stage_table(data, np.asarray(p)[None, :])[1][: data.nranked[0], 0, 0]


def test_stage_remainders_hand():
    rates = _single_row_rates(np.array([2, 3, 1]), np.array([0.3, 0.5, 0.2]))
    assert np.allclose(rates, [1.0, 0.5, 0.3], atol=1e-15)
    rates = _single_row_rates(np.array([2, 0, 0]), np.array([0.3, 0.5, 0.2]))
    assert np.allclose(rates, [1.0], atol=1e-15)
    rates = _single_row_rates((1, 2, 3), np.array([1.0, 1e-17, 1e-17]))
    assert np.allclose(rates, [1.0, 2e-17, 1e-17], rtol=1e-12, atol=0)
    rates = _single_row_rates((1, 2, 0, 0), np.array([1.0, 1e-17, 1e-17, 1e-17]))
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
    # the per-unit latent state summed per prefix set and component
    g = np.argmax(z, axis=1)
    sets = data._prefix_sets
    times = sums_per_set(sets.cell, sets.avail.shape[0], g, y)
    a, b = _support_conditional(sets.avail, z.T.astype(float), data._stages.u, times, hyper)
    a2, b2 = support_conditional_direct(mat, depths, z, y, hyper.shape, hyper.rate)
    assert np.allclose(a, a2, atol=1e-12)
    assert np.allclose(b, b2, atol=1e-10)


def test_grouped_stage_times_have_the_per_unit_law(monkeypatch):
    # the sweep draws the stage times once per prefix set S and component
    # g, Gamma(n_Sg) / rem_g(S); the support rate they give must have the
    # law of the per-unit form, one exponential per unit and ranked stage
    # at rate rem_g(S). Mixed depths, one-unit and repeated rows, a fixed
    # membership state and supports: the first sweep's rate over 4000
    # seeded one-sweep chains against 4000 per-unit draws, entry by entry,
    # by a two-sample KS test (p >= 1e-4) and each sample's mean against
    # the exact one (|z| <= 4)
    from scipy.stats import ks_2samp

    orderings = np.array([
        [1, 2, 3, 4], [1, 2, 0, 0], [2, 0, 0, 0], [3, 1, 0, 0],
        [4, 3, 2, 1], [1, 3, 0, 0], [2, 4, 0, 0], [1, 2, 4, 3],
    ])
    counts = np.array([3, 1, 4, 1, 2, 1, 5, 1])
    labels = np.array([1, 2, 1, 2, 2, 1, 2, 1])  # one component per row
    data = Dataset.from_orderings(orderings, counts)
    G, K, M = 2, 4, 4000
    p0 = np.array([[0.4, 0.3, 0.2, 0.1], [0.05, 0.15, 0.3, 0.5]])
    hyper = Hyperparams.expand(1.0, 0.5, 1.0, G, K)

    rates = []

    def spy(avail, member, u, times, hyper):
        shape, rate = _support_conditional(avail, member, u, times, hyper)
        rates.append(rate)
        return shape, rate

    monkeypatch.setattr(gibbs, "_support_conditional", spy)
    for m in range(M):
        gibbs_run(data, G, hyper=hyper, init={"p": p0, "z": labels},
                  n_iter=1, n_burn=0, rng=60_000 + m)
    grouped = np.array(rates)

    # per unit: every unit of row s, each ranked stage t, an exponential at
    # rate rem (the mass of the items still available) adding to the rate
    # of every available item
    terms = []  # (component, availability row, rem) per unit and stage
    for s in range(orderings.shape[0]):
        g = labels[s] - 1
        avail = np.ones(K)
        for t in range(data.nranked[s]):
            terms += [(g, avail.copy(), p0[g] @ avail)] * counts[s]
            avail[orderings[s, t] - 1] = 0.0
    e = np.random.default_rng(60_001).standard_exponential((M, len(terms)))
    per_unit = np.broadcast_to(hyper.rate[:, None], (M, G, K)).copy()
    mean = hyper.rate[:, None] + np.zeros((G, K))
    var = np.zeros((G, K))
    for c, (g, avail, rem) in enumerate(terms):
        per_unit[:, g] += (e[:, c] / rem)[:, None] * avail
        mean[g] += avail / rem
        var[g] += avail / rem**2
    for g in range(G):
        for i in range(K):
            a, b = grouped[:, g, i], per_unit[:, g, i]
            assert ks_2samp(a, b).pvalue >= 1e-4, (g, i)
            for x in (a, b):
                assert abs(x.mean() - mean[g, i]) <= 4 * np.sqrt(var[g, i] / M), (g, i)


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


def test_init_supports_need_finite_row_sums():
    # 1e308 and 1e-308 are positive and finite, but the first row sums to
    # infinity, the total mass of its stage table, which would leave the
    # sampler's stage rates NaN
    rng = np.random.default_rng(5)
    mat, _ = random_partial_matrix(rng, 10, 3)
    data = Dataset.from_orderings(mat)
    p = np.array([[1e308, 1e308, 1e-308], [1.0, 1.0, 1.0]])
    with pytest.raises(ValidationError, match="init p must be G x K positive supports"):
        gibbs_run(data, 2, init={"p": p}, n_iter=10, n_burn=0, rng=1)


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


class _RngSpy:
    """Stands in for a Generator in gibbs_run: records the parameter of
    every Dirichlet and Gamma draw and hands every draw on to a real
    generator."""

    def __init__(self, rng):
        self.rng, self.alphas, self.gamma_shapes = rng, [], []

    def dirichlet(self, alpha):
        self.alphas.append(np.array(alpha))
        return self.rng.dirichlet(alpha)

    def standard_gamma(self, shape):
        self.gamma_shapes.append(np.array(shape))
        return self.rng.standard_gamma(shape)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _reached(rows, member, sets):
    """n_Sg by loops: each row's units of component g (member[g, d]) count
    once into the set they have chosen before each of their ranked stages,
    the sets' ids read off avail by their chosen items."""
    ids = {frozenset(np.flatnonzero(a == 0) + 1): j for j, a in enumerate(sets.avail)}
    out = np.zeros((sets.avail.shape[0], member.shape[0]))
    for d, row_sets in enumerate(prefix_sets_direct(rows.orderings, rows.nranked)):
        for S in row_sets:
            out[ids[S]] += member[:, d]
    return out


def test_membership_state_counts_every_unit(monkeypatch):
    # in every sweep each row's units are counted once over the components
    # (the member counts the support shape reads), and the stage times are
    # drawn with shapes n_Sg, the units of component g that reach prefix
    # set S at a ranked stage: at the empty set, set 0, every unit, split
    # per component as the weights' Dirichlet counts them. The first
    # sweep's counts are the initial labels'. Rows of one and of several
    # units at mixed depths (G = 3 and 1), K = 70, depth-1 rows only, and
    # one-unit rows only
    cases = [("mixed", 3), ("mixed", 1), ("K=70", 2), ("depth 1", 2), ("one-unit", 3)]
    for case, G in cases:
        _check_membership_counts(monkeypatch, case, G)


def _check_membership_counts(monkeypatch, case, G):
    """One case of test_membership_state_counts_every_unit."""
    rng = np.random.default_rng(4)
    K, n = {"K=70": 70, "depth 1": 4}.get(case, 5), 40
    mat, _ = random_partial_matrix(rng, n, K)
    if case == "depth 1":
        mat[:, 1:] = 0
    counts = np.where(rng.random(n) < 0.5, 1, rng.integers(2, 9, n))
    if case == "one-unit":
        mat, counts = np.unique(mat, axis=0), None
        n = mat.shape[0]
    data = Dataset.from_orderings(mat, counts)
    counts = data.counts
    rows = data.patterns.rows
    sets = rows._prefix_sets
    if case == "mixed":
        assert (rows.counts == 1).sum() >= 5 and (rows.counts > 1).sum() >= 5
    assert (rows.counts == 1).all() == (case == "one-unit")

    # the sweep holds the one-unit rows first, then the repeated rows, each
    # block in the engine's order; seen holds member in the rows' order
    order = np.concatenate(
        (np.flatnonzero(rows.counts == 1), np.flatnonzero(rows.counts > 1))
    )
    seen = []

    def spy(avail, member, u, times, hyper):
        assert np.array_equal(u, rows._stages.u[order])
        seen.append(np.empty_like(member))
        seen[-1][:, order] = member
        return _support_conditional(avail, member, u, times, hyper)

    monkeypatch.setattr(gibbs, "_support_conditional", spy)
    labels = rng.integers(1, G + 1, size=n)
    hyper = Hyperparams.expand(1.0, 0.5, 2.0, G, K)
    draws = _RngSpy(np.random.default_rng(5))
    gibbs_run(data, G, hyper=hyper, init={"z": labels}, n_iter=25, n_burn=0, rng=draws)
    # per sweep: one Gamma draw of the stage times, one of the supports
    assert len(seen) == 25 and len(draws.gamma_shapes) == 50
    assert len(draws.alphas) == (25 if G > 1 else 0)
    n_sgs = draws.gamma_shapes[::2]
    first = np.zeros((G, rows.counts.size))
    np.add.at(first, (labels - 1, data.patterns.index), counts)
    assert np.array_equal(seen[0], first)
    for sweep, (member, n_sg) in enumerate(zip(seen, n_sgs)):
        assert np.array_equal(member.sum(axis=0), rows.counts)
        assert np.array_equal(n_sg, _reached(rows, member, sets))
        assert np.array_equal(n_sg[0], member.sum(axis=1))
        assert n_sg[0].sum() == data.n_units
        if G > 1:
            assert np.array_equal(draws.alphas[sweep] - hyper.alpha, n_sg[0])


def test_categorical_draw_has_the_responsibility_law():
    # rows of responsibilities, one with a zero column and one putting all
    # mass on the last: 20000 labels per row follow the row (chi-squared,
    # alpha = 1e-3), and a zero column is never drawn
    rng = np.random.default_rng(12)
    prob = np.array([
        [0.5, 0.3, 0.2, 0.0],
        [0.1, 0.0, 0.6, 0.3],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.0, 0.0, 1.0],
        [0.97, 0.01, 0.01, 0.01],
    ])
    n = 20000
    labels = _categorical(np.repeat(prob, n, axis=0), rng).reshape(len(prob), n)
    for q, lab in zip(prob, labels):
        got = np.bincount(lab, minlength=4)
        assert (got[q == 0] == 0).all()
        live = q > 0
        if live.sum() > 1:
            stat = (((got - n * q)[live]) ** 2 / (n * q[live])).sum()
            assert stat <= chi2.isf(1e-3, live.sum() - 1), (q, stat)



def test_chain_holds_only_what_is_read():
    # a chain holds its kept draws and seed; the sweep counts live in the
    # CLI's meta file, as a trace CSV read back cannot know them
    import dataclasses
    import inspect

    from plrank import GibbsChain

    assert [f.name for f in dataclasses.fields(GibbsChain)] == [
        "P", "W", "log_lik", "deviance", "seed",
    ]
    assert list(inspect.signature(gibbs_run).parameters) == [
        "data", "G", "hyper", "init", "n_iter", "n_burn", "rng",
    ]
