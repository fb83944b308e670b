import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from plrank import (
    Dataset,
    MixtureParams,
    ValidationError,
    gibbs_run,
    paired_comparisons,
    ppcheck,
    ppcheck_cond,
    rank_summaries,
    sample_mixture,
)
from plrank.assessment import (
    _ppchecks,
    _replicate_counts,
    _strata,
    chi2_paired,
    chi2_top1,
)
from plrank.data import _depth_counts, _order_counts, rank_positions_of
from plrank.model import _mixture_race
from oracles import (
    in_engine_order,
    ordering_row_loglik,
    pair_counts_rank_compare,
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


def _unit_counts(mat, counts):
    """Top-1 and decided-pair counts of the units of a raw ordering matrix,
    row s repeated counts[s] times, by explicit rank comparison."""
    units = np.repeat(mat, counts, axis=0)
    top1 = np.bincount(units[:, 0] - 1, minlength=mat.shape[1])
    return top1, paired_counts_direct(units, (units != 0).sum(axis=1))


def test_depth_counts_hand():
    # the per-depth counts in ascending depth (the K-1 row is completed)
    # pool to the units placing each item first and to the units' decided
    # pairs
    mat = np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]])
    data = Dataset.from_orderings(mat, [1, 2, 1])
    depths, masks, observed = zip(*_depth_counts(data))
    assert depths == (1, 3)
    assert [m.tolist() for m in masks] == [[False, True, False], [True, False, True]]
    top1, tau = _unit_counts(mat, [1, 2, 1])
    assert top1.tolist() == [3, 1, 0]
    assert np.array_equal(sum(r for r, _ in observed), top1)
    assert np.array_equal(sum(t for _, t in observed), tau)


def _observed_case(seed):
    """Weighted rows over K=5 with a depth-(K-1) row, which ingestion
    completes, a short G=2 chain on them, and the observed (top1, paired)
    chi-squared statistics of every kept draw from the units' counts
    (_unit_counts), pooled (plain) and summed over the depth strata
    (conditional), the completed row in the complete stratum."""
    rng = np.random.default_rng(seed)
    K = 5
    mat, depth = random_partial_matrix(rng, 60, K)
    mat[0] = rng.permutation(K) + 1
    mat[0, K - 1] = 0
    depth[0] = K
    counts = rng.integers(1, 20, size=60)
    data = Dataset.from_orderings(mat, counts)
    chain = gibbs_run(data, 2, n_iter=30, n_burn=20, rng=seed)
    strata = [np.ones(60, dtype=bool)] + [depth == m for m in np.unique(depth)]
    observed = [(_unit_counts(mat[s], counts[s]), counts[s].sum()) for s in strata]
    want = np.zeros((2, 2, chain.n_kept))
    for l, (p, w) in enumerate(zip(chain.supports_3d(), chain.W)):
        pbar = w @ (p / p.sum(axis=1, keepdims=True))
        for k, ((top1, tau), n) in enumerate(observed):
            want[min(k, 1), :, l] += chi2_top1(top1, n, pbar), chi2_paired(tau, pbar)
    return data, chain, want


def test_discrepancy_wrappers():
    # the plain report's observed statistics score the pooled unit counts
    # at each kept draw's weight-averaged marginal supports
    data, chain, want = _observed_case(21)
    plain = _ppchecks(data, [chain], np.random.default_rng(9))[0]
    assert not plain.conditional
    assert np.allclose(plain.top1_obs[0], want[0, 0], rtol=1e-12, atol=0)
    assert np.allclose(plain.paired_obs[0], want[0, 1], rtol=1e-12, atol=0)


def test_replicates_preserve_depths():
    # a simulated stratum counts the complete orderings of the race at its
    # depth m: the counts of those orderings truncated to their top m, so
    # the replicate keeps each unit's depth
    rng = np.random.default_rng(0)
    mat, depths = random_partial_matrix(rng, 80, 5)
    p = np.array([[0.4, 0.25, 0.2, 0.1, 0.05]])
    race = _mixture_race(80, p, np.array([1.0]), rng)[1]
    rep = race + 1
    rep[np.arange(5)[None, :] >= depths[:, None]] = 0
    out = Dataset.from_orderings(rep)
    assert np.array_equal(out.nranked, depths)
    for m, units, (top1, tau) in _depth_counts(out):
        r, t = _order_counts(np.ascontiguousarray(race[units].T), m)
        assert np.array_equal(r, top1) and np.array_equal(t, tau)


def test_replicates_have_the_mixture_law():
    # K=4, G=3 with one weight at 0: at each depth m the top-m patterns of
    # 20000 replicates follow the mixture law (chi-squared, alpha = 1e-3),
    # and the zero-weight component never supplies a label
    rng = np.random.default_rng(14)
    K, n = 4, 20000
    p = np.array([[0.55, 0.25, 0.15, 0.05], [0.05, 0.15, 0.25, 0.55], [0.1, 0.4, 0.4, 0.1]])
    w = np.array([0.5, 0.0, 0.5])
    assert 1 not in _mixture_race(n, p, w, rng)[0]
    for m in (1, 2, 4):
        rep = _mixture_race(n, p, w, rng)[1] + 1
        patterns, counts = np.unique(rep[:, :m], axis=0, return_counts=True)
        law = {
            r: sum(w[g] * math.exp(ordering_row_loglik(r, p[g])) for g in range(3))
            for r in itertools.permutations(range(1, K + 1), m)
        }
        observed = dict(zip(map(tuple, patterns.tolist()), counts.tolist()))
        assert set(observed) <= set(law)
        stat = sum((observed.get(r, 0) - n * q) ** 2 / (n * q) for r, q in law.items())
        assert stat <= chi2.isf(1e-3, len(law) - 1), (m, stat)

    # at log-uniform supports down to 1e-300 every row is a permutation
    p = 10.0 ** rng.uniform(-300, 0, (3, K))
    full = _mixture_race(2000, p, np.array([0.3, 0.3, 0.4]), rng)[1]
    assert (np.sort(full, axis=1) == np.arange(K)).all()


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
    # observed statistic at each draw is the sum over depth strata of the
    # per-stratum discrepancies at that draw's parameters
    data, chain, want = _observed_case(2)
    cond = ppcheck_cond(data, [chain], np.random.default_rng(11))
    assert cond.conditional
    assert np.allclose(cond.top1_obs[0], want[1, 0], rtol=1e-12, atol=0)
    assert np.allclose(cond.paired_obs[0], want[1, 1], rtol=1e-12, atol=0)


def test_observed_counts_leave_the_stage_index_unbuilt():
    # summarize's paired comparisons and ppcheck's strata count the raw
    # rows' filled orderings without the engine's stage index (Dataset._stages,
    # whose item-to-cell index is as large as the data); their counts are the
    # units' counts, per depth and pooled
    rng = np.random.default_rng(8)
    mat, depth = random_partial_matrix(rng, 200, 6)
    counts = rng.integers(1, 9, size=200)
    data = Dataset.from_orderings(mat, counts)
    summ = rank_summaries(data)
    assert np.array_equal(summ.pairedcomparisons, _unit_counts(mat, counts)[1])
    strata, _ = _strata(data)
    assert [s.depth for s in strata] == np.unique(depth).tolist()
    for s in strata:
        top1, tau = _unit_counts(mat[depth == s.depth], counts[depth == s.depth])
        assert np.array_equal(s.observed[0], top1)
        assert np.array_equal(s.observed[1], tau)
    chain = gibbs_run(data, 1, n_iter=12, n_burn=2, rng=1)
    _ppchecks(data, [chain], np.random.default_rng(3))
    assert "_stages" not in vars(data)
    assert "_stages" in vars(data.patterns.rows)


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
    assert in_engine_order(table.orderings)
    return strata, table


@pytest.mark.parametrize("K,depths", [(4, [1, 2, 4]), (5, [1, 2, 3, 5])])
@pytest.mark.parametrize("G", [1, 2, 3])
def test_pattern_probs_are_the_mixture_law(K, depths, G):
    rng = np.random.default_rng(10 * K + G)
    strata, patterns = _enumerated(rng, K, depths)
    p = rng.dirichlet(np.full(K, 2.0), size=G)
    w = rng.dirichlet(np.full(G, 2.0))
    spy = _MultinomialSpy(rng)
    _replicate_counts(strata, patterns, p, w, spy)
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
    # the count kernel over a stratum's filled orderings weighted by counts
    # c equals the counts of the rows repeated c times; so do the paired
    # comparisons of the whole table, one depth per row, counted by c
    rng = np.random.default_rng(K)
    strata, patterns = _enumerated(rng, K, depths)
    items = patterns._stages.items
    for s in strata * 2:
        c = rng.integers(0, 4, size=math.perm(K, s.depth))
        expanded = np.repeat(patterns.orderings[s.rows], c, axis=0)
        nranked = np.repeat(patterns.nranked[s.rows], c)
        top1 = np.zeros(K, dtype=np.int64)
        for r in expanded:
            top1[r[0] - 1] += 1
        r, tau = _order_counts(items[:, s.rows], s.depth, c)
        assert np.array_equal(r, top1)
        assert np.array_equal(tau, paired_counts_direct(expanded, nranked))
        # unweighted, each row counts once
        r1, tau1 = _order_counts(items[:, s.rows], s.depth)
        assert np.array_equal(r1, _order_counts(items[:, s.rows], s.depth, np.ones_like(c))[0])
        ranks = patterns.to_rank_positions()[s.rows]
        assert np.array_equal(tau1, pair_counts_rank_compare(ranks))
    c = rng.integers(1, 4, size=patterns.orderings.shape[0])
    expanded = np.repeat(patterns.orderings, c, axis=0)
    nranked = np.repeat(patterns.nranked, c)
    counted = Dataset.from_orderings(patterns.orderings, c)
    assert np.array_equal(paired_comparisons(counted), paired_counts_direct(expanded, nranked))


def test_strata_branch_rule():
    # K=4: depth 1 enumerates at n >= 4*4, depth 2 at n >= 4*12, depth 4
    # at n >= 4*24; the depth-2 stratum falls one unit short
    rng = np.random.default_rng(3)
    mat = _depth_rows(rng, 4, {1: 16, 2: 47, 4: 96})
    data = Dataset.from_orderings(mat)
    strata, table = _strata(data)
    assert [s.depth for s in strata] == [1, 2, 4]
    assert [s.size for s in strata] == [16, 47, 96]
    # the table stacks the enumerated blocks deepest first
    assert [s.rows for s in strata] == [slice(24, 28), None, slice(0, 24)]
    assert table.n_units == 28
    ranks = data.to_rank_positions()
    for s in strata:
        idx = data.nranked == s.depth
        top1 = np.bincount(mat[idx, 0] - 1, minlength=4)
        assert np.array_equal(s.observed[0], top1)
        assert np.array_equal(s.observed[1], pair_counts_rank_compare(ranks[idx]))
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
        rep = _mixture_race(n, p, w, rng)[1] + 1
        rep[np.arange(K) >= data.nranked[:, None]] = 0
        r = np.bincount(rep[:, 0] - 1, minlength=K)
        tau = pair_counts_rank_compare(rank_positions_of(rep, K + 1))
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


def _counted_patterns(K, depths, per_pattern):
    """Every top-m ordering of each depth m, counted per_pattern times: data
    whose depth strata are all enumerated, at a few hundred rows."""
    rows = [
        list(r) + [0] * (K - m)
        for m in depths
        for r in itertools.permutations(range(1, K + 1), m)
    ]
    return Dataset.from_orderings(rows, [per_pattern] * len(rows))


def _random_chain(rng, L, G, K):
    """A chain of L kept draws of random supports and weights."""
    from plrank import GibbsChain

    P = rng.dirichlet(np.ones(K), (L, G)).reshape(L, G * K)
    return GibbsChain(P, rng.dirichlet(np.ones(G), L), np.zeros(L), np.zeros(L))


class _StageTableSpy:
    """Records the (pattern rows, support rows) of each _stage_table call."""

    def __init__(self, monkeypatch):
        from plrank import assessment

        self.calls, real = [], assessment._stage_table

        def spy(rows, p):
            self.calls.append((rows.counts.size, p.shape[0]))
            return real(rows, p)

        monkeypatch.setattr(assessment, "_stage_table", spy)


@pytest.mark.parametrize(
    "K,depths,G,L",
    [
        (6, [6], 3, 30),  # the benchmark's c9 shape and kept draws: 720 patterns
        (5, [1, 2, 3, 5], 3, 50),  # its ballot shape: 205 patterns, 20 draws
        (4, [1, 2, 4], 2, 50),
    ],
)
def test_blocks_keep_to_the_cell_budget(monkeypatch, K, depths, G, L):
    from plrank import assessment

    data = _counted_patterns(K, depths, K)
    strata, table = _strata(data)
    assert all(s.rows is not None for s in strata)
    rng = np.random.default_rng(K)
    # a benchmark-sized chain runs as one block
    spy = _StageTableSpy(monkeypatch)
    _ppchecks(data, _random_chain(rng, L, G, K), rng)
    assert spy.calls == [(table.counts.size, L * G)]
    # a chain past the budget runs in blocks that each keep within it,
    # one draw per row block of G support rows, every draw once
    B = assessment._block_draws(strata, table, G, K)
    L = 2 * B + 3
    spy.calls.clear()
    _ppchecks(data, _random_chain(rng, L, G, K), rng)
    assert [n // G for _, n in spy.calls] == [B, B, 3]
    assert all(rows * n * K < assessment._BLOCK_CELLS for rows, n in spy.calls)
    # a table whose single draw exceeds the budget runs one draw at a time
    monkeypatch.setattr(assessment, "_BLOCK_CELLS", table.counts.size * G * K)
    spy.calls.clear()
    _ppchecks(data, _random_chain(rng, 4, G, K), rng)
    assert spy.calls == [(table.counts.size, G)] * 4


def test_blocks_keep_each_draws_statistics(monkeypatch):
    # with every stratum simulated the stream runs draw by draw, so the
    # statistics of a chain taken in blocks equal those of blocks of one
    # draw bit for bit
    from plrank import assessment

    rng = np.random.default_rng(12)
    data = Dataset.from_orderings(_depth_rows(rng, 7, {2: 30, 4: 20, 7: 25}))
    strata, table = _strata(data)
    assert table is None
    # the benchmark's wide shape (K=10, G=4, four simulated strata) runs its
    # 50 kept draws as one block
    assert assessment._block_draws(strata + [strata[0]], None, 4, 10) >= 50
    chains = [_random_chain(rng, 40, G, 7) for G in (1, 3)]
    blocks = _ppchecks(data, chains, np.random.default_rng(5))
    monkeypatch.setattr(assessment, "_BLOCK_CELLS", 1)
    singles = _ppchecks(data, chains, np.random.default_rng(5))
    for a, b in zip(blocks, singles):
        for name in ("top1_obs", "top1_rep", "paired_obs", "paired_rep"):
            for x, y in zip(getattr(a, name), getattr(b, name)):
                assert np.array_equal(x, y)
