import math

import numpy as np
import pytest

from plrank import (
    Dataset,
    MixtureParams,
    ValidationError,
    gibbs_run,
    ppcheck,
    ppcheck_cond,
    sample_mixture,
)
from plrank.assessment import (
    _counts,
    _ppchecks,
    _replicate_counts,
    _replicate_orderings,
    _strata,
    chi2_paired,
    chi2_top1,
    paired_discrepancy,
    top1_counts,
    top1_discrepancy,
)
from plrank.data import _pair_counts, rank_positions_of
from oracles import (
    ordering_row_loglik,
    paired_counts_direct,
    ppcheck_stats_simulated,
    random_partial_matrix,
)


def test_chi2_top1_hand():
    # K=2, N=10, counts (7,3) against a fair split
    val = chi2_top1(np.array([7, 3]), 10, np.array([0.5, 0.5]))
    assert val == pytest.approx(1.6, abs=1e-12)
    # expected counts scale with the marginal worths
    val = chi2_top1(np.array([6, 4]), 10, np.array([0.6, 0.4]))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_chi2_paired_hand():
    # tau12=7 of n=10 decided pairs against a fair split: two mirrored
    # cells contributing 0.8 each
    tau = np.array([[0, 7], [3, 0]])
    val = chi2_paired(tau, np.array([0.5, 0.5]))
    assert val == pytest.approx(1.6, abs=1e-12)


def test_chi2_paired_skips_empty_pairs():
    tau = np.zeros((3, 3), dtype=np.int64)
    tau[0, 1], tau[1, 0] = 4, 2
    val = chi2_paired(tau, np.array([1 / 3, 1 / 3, 1 / 3]))
    # only the (1,2) pair is decided: n=6, expected 3 each
    assert val == pytest.approx((4 - 3) ** 2 / 3 + (2 - 3) ** 2 / 3, abs=1e-12)
    assert chi2_paired(np.zeros((3, 3), dtype=np.int64), np.ones(3) / 3) == 0.0


def test_top1_counts():
    data = Dataset.from_orderings(np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]]))
    assert top1_counts(data).tolist() == [2, 1, 0]


def test_discrepancy_wrappers():
    data = Dataset.from_orderings(np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]]))
    params = MixtureParams(
        np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]), np.array([0.5, 0.5])
    )
    norm = params.normalized()
    pbar = norm.marginal
    want_top1 = chi2_top1(top1_counts(data), 3, pbar)
    assert top1_discrepancy(data, params) == pytest.approx(want_top1, abs=1e-12)
    from plrank import paired_comparisons

    want_paired = chi2_paired(paired_comparisons(data), pbar)
    assert paired_discrepancy(data, params) == pytest.approx(want_paired, abs=1e-12)


def test_replicates_preserve_depths():
    rng = np.random.default_rng(0)
    mat, depths = random_partial_matrix(rng, 80, 5)
    p = np.array([[0.4, 0.25, 0.2, 0.1, 0.05]])
    rep = _replicate_orderings(p, np.array([1.0]), depths, rng)
    out = Dataset.from_orderings(rep)
    assert np.array_equal(np.sort(out.nranked), np.sort(depths))
    # depths are matched per unit, not merely as a multiset
    assert np.array_equal(out.nranked, depths)


def test_ppcheck_values_and_determinism():
    rng = np.random.default_rng(1)
    params = MixtureParams(np.array([[0.5, 0.3, 0.2]]), np.array([1.0]))
    _, data = sample_mixture(120, 3, 1, params, rng)
    chain = gibbs_run(data, 1, n_iter=80, n_burn=30, rng=3)
    a = ppcheck(data, [chain], np.random.default_rng(9))
    b = ppcheck(data, [chain], np.random.default_rng(9))
    assert a.p_top1[0] == b.p_top1[0]
    assert a.p_paired[0] == b.p_paired[0]
    assert 0.0 <= a.p_top1[0] <= 1.0
    assert 0.0 <= a.p_paired[0] <= 1.0
    assert not a.conditional
    assert a.g_values.tolist() == [1]
    L = chain.n_kept
    for arr in (a.top1_obs[0], a.top1_rep[0], a.paired_obs[0], a.paired_rep[0]):
        assert arr.shape == (L,)
    # p-values recompute from the stored draws with a weak inequality
    assert a.p_top1[0] == (a.top1_rep[0] >= a.top1_obs[0]).mean()
    assert a.p_paired[0] == (a.paired_rep[0] >= a.paired_obs[0]).mean()
    # complete data form a single depth stratum, so both variants agree
    c = ppcheck_cond(data, [chain], np.random.default_rng(9))
    for name in ("top1_obs", "top1_rep", "paired_obs", "paired_rep"):
        assert np.array_equal(getattr(a, name)[0], getattr(c, name)[0])
    assert a.p_top1[0] == c.p_top1[0] and a.p_paired[0] == c.p_paired[0]


def test_ppcheck_conditional_stratifies():
    rng = np.random.default_rng(2)
    mat, depths = random_partial_matrix(rng, 100, 4)
    data = Dataset.from_orderings(mat)
    chain = gibbs_run(data, 1, n_iter=40, n_burn=20, rng=5)
    cond = ppcheck_cond(data, [chain], np.random.default_rng(11))
    assert cond.conditional
    # observed statistic at each draw is the sum over depth strata of the
    # per-stratum discrepancies at that draw's parameters
    P3 = chain.supports_3d()
    l = 7
    p = P3[l] / P3[l].sum(axis=1, keepdims=True)
    params = MixtureParams(p, chain.W[l])
    want = 0.0
    for m in np.unique(data.nranked):
        sub = Dataset.from_orderings(data.orderings[data.nranked == m])
        want += top1_discrepancy(sub, params)
    assert cond.top1_obs[0][l] == pytest.approx(want, abs=1e-10)


def test_ppcheck_multiple_chains_and_validation():
    rng = np.random.default_rng(3)
    mat, _ = random_partial_matrix(rng, 50, 3)
    data = Dataset.from_orderings(mat)
    c1 = gibbs_run(data, 1, n_iter=30, n_burn=10, rng=1)
    c2 = gibbs_run(data, 2, n_iter=30, n_burn=10, rng=2)
    rep = ppcheck(data, [c1, c2], np.random.default_rng(4))
    assert rep.g_values.tolist() == [1, 2]
    with pytest.raises(ValidationError):
        ppcheck(data, [], np.random.default_rng(4))
    other = Dataset.from_orderings(np.array([[1, 2, 3, 4]]))
    with pytest.raises(ValidationError):
        ppcheck(other, [c1], np.random.default_rng(4))


def _depth_rows(rng, K, sizes):
    """Shuffled ordering matrix with sizes[m] random top-m rows per depth m."""
    rows = []
    for m, n in sizes.items():
        for _ in range(n):
            row = np.zeros(K, dtype=np.int64)
            row[:m] = rng.permutation(K)[:m] + 1
            rows.append(row)
    return np.array(rows)[rng.permutation(len(rows))]


class _MultinomialSpy:
    """Stands in for a Generator in _replicate_counts: records the (n, pi)
    of every multinomial draw and hands it on to a real generator."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def multinomial(self, n, pvals):
        self.calls.append((n, pvals))
        return self.rng.multinomial(n, pvals)


def _enumerated(rng, K, depths):
    """Data whose depth strata are all just large enough to be enumerated."""
    sizes = {m: K * math.perm(K, m) for m in depths}
    data = Dataset.from_orderings(_depth_rows(rng, K, sizes))
    strata, table = _strata(data)
    assert [s.depth for s in strata] == depths
    assert all(s.rows is not None for s in strata)
    # the table's rank matrix is that of its patterns
    assert np.array_equal(table[1], table[0].to_rank_positions())
    return strata, table


@pytest.mark.parametrize("K,depths", [(4, [1, 2, 4]), (5, [1, 2, 3, 5])])
@pytest.mark.parametrize("G", [1, 2, 3])
def test_pattern_probs_are_the_mixture_law(K, depths, G):
    rng = np.random.default_rng(10 * K + G)
    strata, table = _enumerated(rng, K, depths)
    patterns = table[0]
    p = rng.dirichlet(np.full(K, 2.0), size=G)
    w = rng.dirichlet(np.full(G, 2.0))
    spy = _MultinomialSpy(rng)
    _replicate_counts(strata, table, p, w, spy)
    assert len(spy.calls) == len(strata)
    for s, (n, pi) in zip(strata, spy.calls):
        m = s.depth
        rows = patterns.orderings[s.rows]
        # the stratum's rows of the table are every top-m ordering, each once
        assert n == s.size
        assert rows.shape[0] == math.perm(K, m)
        assert (patterns.nranked[s.rows] == m).all()
        assert len({tuple(r) for r in rows}) == rows.shape[0]
        assert abs(pi.sum() - 1.0) <= 1e-12
        want = [
            sum(w[g] * math.exp(ordering_row_loglik(r[:m], p[g])) for g in range(G))
            for r in rows
        ]
        assert np.allclose(pi, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("K,depths", [(4, [1, 2, 4]), (5, [1, 2, 3, 5])])
def test_pattern_tables_count_like_the_rows(K, depths):
    # the count kernel over pattern ranks weighted by counts c equals the
    # counts of the rows repeated c times, for the whole table and per stratum
    rng = np.random.default_rng(K)
    strata, (patterns, ranks) = _enumerated(rng, K, depths)
    blocks = [slice(None)] + [s.rows for s in strata]
    for rows in blocks * 2:
        c = rng.integers(0, 4, size=ranks[rows].shape[0])
        expanded = np.repeat(patterns.orderings[rows], c, axis=0)
        nranked = np.repeat(patterns.nranked[rows], c)
        top1 = np.zeros(K, dtype=np.int64)
        for r in expanded:
            top1[r[0] - 1] += 1
        r, tau = _counts(ranks[rows], c)
        assert np.array_equal(r, top1)
        assert np.array_equal(tau, paired_counts_direct(expanded, nranked))
        # unweighted, each row counts once
        r1, tau1 = _counts(ranks[rows])
        assert np.array_equal(r1, _counts(ranks[rows], np.ones_like(c))[0])
        assert np.array_equal(tau1, _pair_counts(ranks[rows]))


def test_strata_branch_rule():
    # K=4: depth 1 enumerates at n >= 4*4, depth 2 at n >= 4*12, depth 4
    # at n >= 4*24; the depth-2 stratum falls one unit short
    rng = np.random.default_rng(3)
    mat = _depth_rows(rng, 4, {1: 16, 2: 47, 4: 96})
    data = Dataset.from_orderings(mat)
    strata, table = _strata(data)
    assert [s.depth for s in strata] == [1, 2, 4]
    assert [s.size for s in strata] == [16, 47, 96]
    assert [s.rows for s in strata] == [slice(0, 4), None, slice(4, 28)]
    assert table[0].n_units == 28
    ranks = data.to_rank_positions()
    for s in strata:
        idx = data.nranked == s.depth
        top1 = np.bincount(mat[idx, 0] - 1, minlength=4)
        assert np.array_equal(s.observed[0], top1)
        assert np.array_equal(s.observed[1], _pair_counts(ranks[idx]))
    # both branches replicate n_m units of depth m per stratum: n_m first
    # places and m(m-1)/2 + m(K-m) decided pairs per unit
    p = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
    for _ in range(5):
        out = _replicate_counts(strata, table, p, np.array([0.6, 0.4]), rng)
        for s, (r, tau) in zip(strata, out):
            m = s.depth
            assert r.sum() == s.size
            assert tau.sum() == s.size * (m * (m - 1) // 2 + m * (4 - m))


def test_counted_strata_stay_within_the_cell_limit():
    # counts let a one-line dataset hold a stratum of 10**7 or more units:
    # its replicate would need 10! pattern rows (enumerated, 10 * 10! <= n)
    # or n unit rows (simulated), each beyond the cell limit
    row = [list(range(1, 11))]
    for n in (4 * 10**7, 10**7):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            _strata(Dataset.from_orderings(row, [n]))
    # the same row counted below the limit is simulated unit by unit
    strata, table = _strata(Dataset.from_orderings(row, [10**5]))
    assert table is None and strata[0].size == 10**5


def test_multinomial_replicates_have_the_simulation_law():
    # one depth-2 stratum of 60 units over K=4 is enumerated (4*12 <= 60);
    # its replicate counts must follow the law of simulating the 60 units
    rng = np.random.default_rng(8)
    K, n, L = 4, 60, 2000
    data = Dataset.from_orderings(_depth_rows(rng, K, {2: n}))
    strata, table = _strata(data)
    assert [s.rows for s in strata] == [slice(0, 12)]
    p = np.array([[0.5, 0.25, 0.15, 0.1], [0.1, 0.2, 0.3, 0.4]])
    w = np.array([0.7, 0.3])
    exact = np.empty((L, K + K * K))
    simulated = np.empty((L, K + K * K))
    for l in range(L):
        (r, tau), = _replicate_counts(strata, table, p, w, rng)
        exact[l] = np.concatenate([r, tau.ravel()])
        rep = _replicate_orderings(p, w, data.nranked, rng)
        r = np.bincount(rep[:, 0] - 1, minlength=K)
        tau = _pair_counts(rank_positions_of(rep, K + 1))
        simulated[l] = np.concatenate([r, tau.ravel()])

    def moments(x):
        dev = x - x.mean(axis=0)
        var = (dev**2).mean(axis=0)
        m4 = (dev**4).mean(axis=0)
        return x.mean(axis=0), var, var / L, (m4 - var**2) / L

    m1, v1, se_m1, se_v1 = moments(exact)
    m2, v2, se_m2, se_v2 = moments(simulated)
    assert (np.abs(m1 - m2) <= 4 * np.sqrt(se_m1 + se_m2)).all()
    assert (np.abs(v1 - v2) <= 4 * np.sqrt(se_v1 + se_v2)).all()


def test_simulated_strata_keep_the_simulation_path():
    # K=8 at depths 3 and 8 with N=150: no stratum reaches K * K!/(K-m)!,
    # so every stratum simulates its units, on the same stream as the
    # unit-by-unit reference that simulates stratum by stratum
    rng = np.random.default_rng(6)
    data = Dataset.from_orderings(_depth_rows(rng, 8, {3: 80, 8: 70}))
    strata, table = _strata(data)
    assert table is None and all(s.rows is None for s in strata)
    chains = [gibbs_run(data, G, n_iter=30, n_burn=10, rng=G) for G in (1, 2)]
    plain, cond = _ppchecks(data, chains, np.random.default_rng(21))
    stream = np.random.default_rng(21)
    for c, chain in enumerate(chains):
        want = ppcheck_stats_simulated(data, chain, stream)
        for k, rep in enumerate((plain, cond)):
            got = (rep.top1_obs, rep.top1_rep, rep.paired_obs, rep.paired_rep)
            assert np.array_equal(np.array([x[c] for x in got]), want[k])
