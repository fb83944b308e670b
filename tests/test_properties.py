"""Property-based checks of the stage kernel, the log mixture density, the
stacked chi-squared discrepancies, the ingestion round trips, the parsers
on malformed input, and the bulk and per-line CSV parses against each
other."""

import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from plrank import (
    Dataset,
    Hyperparams,
    MixtureParams,
    em_step,
    fit_map,
    freq_to_unit,
    gibbs_run,
    mixture_loglik,
    ord_rank_switch,
    ppcheck,
    ppcheck_cond,
    rank_summaries,
    read_dataset,
    unit_to_freq,
    write_dataset,
)
from plrank.assessment import (
    _pattern_probs,
    _replicate_counts,
    _strata,
    chi2_paired,
    chi2_top1,
)
from plrank.data import (
    _MAX_CELLS,
    _PAIR_CHUNK,
    ORDERING,
    RANKING,
    _order_counts,
    rank_positions_of,
)
from plrank.errors import ValidationError
from plrank.fileio import _matrix, _matrix_by_line, parse_preflib_text
from plrank.model import (
    _availability_sums,
    _log_mixture,
    _mixture_scores,
    _stage_table,
)
from oracles import (
    availability_sums_rows_major,
    log_mixture_rows_major,
    ordering_row_loglik,
    pair_counts_rank_compare,
    stage_remainders_direct,
    stage_table_rows_major,
)

LOG_TINY = math.log(1e-300)


@st.composite
def orderings(draw, K, max_units=6):
    """Top-t ordering matrix over K items, depths in {1..K-2, K}."""
    depths = list(range(1, K - 1)) + [K]
    n = draw(st.integers(1, max_units))
    rows = np.zeros((n, K), dtype=np.int64)
    for s in range(n):
        perm = draw(st.permutations(range(1, K + 1)))
        d = draw(st.sampled_from(depths))
        rows[s, :d] = perm[:d]
    return rows


@st.composite
def ordering_and_supports(draw):
    K = draw(st.integers(2, 6))
    G = draw(st.integers(1, 3))
    mat = draw(orderings(K))
    logp = draw(
        st.lists(
            st.floats(LOG_TINY, 0.0), min_size=G * K, max_size=G * K
        )
    )
    return mat, np.exp(np.array(logp).reshape(G, K))


@settings(max_examples=300, deadline=None)
@given(ordering_and_supports())
def test_component_loglik_matches_oracle(case):
    mat, p = case
    d = Dataset.from_orderings(mat)
    got = _stage_table(d.patterns.rows, p)[0][d.patterns.index]
    for s, row in enumerate(mat):
        items = [int(v) for v in row if v]
        for g in range(p.shape[0]):
            want = ordering_row_loglik(items, p[g])
            # relative to the size of the logged terms: near a log-likelihood
            # of 0 both sides round a ratio close to 1 before its log, so no
            # implementation is relatively exact there
            scale = abs(want) + sum(abs(math.log(p[g, i - 1])) for i in items)
            assert abs(got[s, g] - want) <= 1e-12 * max(scale, 1.0)


def _single_row_rates(row, p):
    """One unit's stage-time rates from _stage_table on a one-row dataset:
    the remaining support mass before each of its ranked stages."""
    data = Dataset.from_orderings(row[None, :])
    return _stage_table(data, p[None, :])[1][: data.nranked[0], 0, 0]


@settings(max_examples=200, deadline=None)
@given(ordering_and_supports(), st.randoms(use_true_random=False))
def test_sweep_rates_equal_one_row_tables(case, rnd):
    mat, p = case
    data = Dataset.from_orderings(mat)
    g_of_s = np.array([rnd.randrange(p.shape[0]) for _ in range(mat.shape[0])])
    # the expression the sweep draws its stage times with
    rates = _stage_table(data, p)[1][:, np.arange(mat.shape[0]), g_of_s]
    for s, row in enumerate(mat):
        want = _single_row_rates(row, p[g_of_s[s]])
        assert np.array_equal(rates[: want.shape[0], s], want)


@settings(max_examples=300, deadline=None)
@given(ordering_and_supports())
def test_stage_remainders_match_oracle(case):
    mat, p = case
    for row in mat:
        items = [int(v) for v in row if v]
        for g in range(p.shape[0]):
            want = stage_remainders_direct(items, p[g])
            got = _single_row_rates(row, p[g])
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 1e-15 * want).all()


@st.composite
def stage_cases(draw):
    """Orderings over K = 2..12 items at any depth 1..K, G = 1..4 support
    rows spanning 1e-300..1e300 or of like sizes (where the order of a
    sum shows in its last bits), and weights with zeros."""
    K = draw(st.integers(2, 12))
    G = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    rows = np.zeros((n, K), dtype=np.int64)
    for s in range(n):
        perm = draw(st.permutations(range(1, K + 1)))
        d = draw(st.integers(1, K))
        rows[s, :d] = perm[:d]
    if draw(st.booleans()):
        logp = np.array(draw(st.lists(st.floats(-690.0, 690.0), min_size=G * K,
                                      max_size=G * K))).reshape(G, K)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        logp = np.random.default_rng(seed).uniform(-2.0, 2.0, (G, K))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                               min_size=G, max_size=G)))
    w[draw(st.integers(0, G - 1))] = 1.0
    return rows, np.exp(logp), w / w.sum()


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


@settings(max_examples=300, deadline=None)
@given(stage_cases())
def test_stage_major_kernels_equal_rows_major_bit_for_bit(case):
    # the engine's stage-major tables give the very bits of the former
    # (D, K, G) formulation, with two exceptions of numpy's pairwise
    # summation, which adds a contiguous run of 8 or more terms in blocks:
    # - at G = 1 and K >= 8 the former table summed each row's log terms
    #   along a contiguous stage axis, so comp may differ there in its last
    #   bits (the stage-major loop adds in stage order, as the former table
    #   did at every G >= 2);
    # - at G >= 8 the former row-wise component sum of _log_mixture was
    #   pairwise, so G stops at 4 here.
    # on the engine's rows, mixed depths in descending order, the logs run
    # over each stage's ranked slice, and rem is pinned on the ranked cells
    # (beyond the depth the oracle writes 1, which no stage reads)
    mat, p, w = case
    data = Dataset.from_orderings(mat).patterns.rows
    comp, rem = _stage_table(data, p)
    ref_comp, ref_rem = stage_table_rows_major(data, p)
    if p.shape[0] == 1 and mat.shape[1] >= 8:
        scale = np.abs(np.log(ref_rem)).sum(axis=1) + np.abs(data.u @ np.log(p).T)
        assert (np.abs(comp - ref_comp) <= 16 * np.finfo(float).eps * scale).all()
    else:
        assert _same_bits(comp, ref_comp)
    ranked = data.orderings != 0
    assert _same_bits(rem.transpose(1, 0, 2)[ranked], ref_rem[ranked])
    assert comp.flags.c_contiguous

    # the EM form (1 / rem, trailing component axis) and the sweep form
    # (stage times per row and stage, no trailing axis)
    r = np.where(ranked[:, :, None], 1.0 / ref_rem, 0.0)
    y = r[:, :, 0] * np.arange(1, data.orderings.shape[0] + 1)[:, None]
    for x in (r, y):
        got = _availability_sums(data._stages.at, np.moveaxis(x, 1, 0).copy())
        assert _same_bits(got, availability_sums_rows_major(data.orderings - 1, x))

    scored, per_unit = _log_mixture(ref_comp, w)
    ref_scored, ref_per_unit = log_mixture_rows_major(ref_comp, w)
    assert _same_bits(scored, ref_scored)
    assert _same_bits(per_unit, ref_per_unit)
    assert scored.flags.c_contiguous


@st.composite
def filled_orderings(draw):
    """Stage-major filled orderings (K x n, 0-based items) over K = 1..12
    items at one depth 1..K, with no weights, small integer weights, or
    integer weights up to a sum of 2**53 - 1."""
    K = draw(st.integers(1, 12))
    depth = draw(st.integers(1, K))
    n = draw(st.integers(1, 8))
    items = np.array([draw(st.permutations(range(K))) for _ in range(n)]).T
    bound = draw(st.sampled_from([None, 5, (2**53 - 1) // n]))
    if bound is None:
        return items, depth, None
    weights = draw(st.lists(st.integers(0, bound), min_size=n, max_size=n))
    return items, depth, np.array(weights, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(filled_orderings())
def test_order_counts_equal_rank_compare(case):
    # the position-pair kernel against the former rank-compare count of the
    # truncated rows, unranked items coded K+1, and first places summed as
    # Python integers
    items, depth, weights = case
    K, n = items.shape
    orderings = items.T + 1
    orderings[:, depth:] = 0
    top1, tau = _order_counts(items, depth, weights)
    w = [1] * n if weights is None else weights.tolist()
    want = [sum(w[s] for s in range(n) if items[0, s] == i) for i in range(K)]
    assert top1.dtype == tau.dtype == np.int64
    assert top1.tolist() == want
    assert np.array_equal(tau, pair_counts_rank_compare(rank_positions_of(orderings, K + 1), weights))


@st.composite
def count_stacks(draw):
    """A stack of 1..6 count sets over K = 2..10 items, some all zero: top-1
    counts with unit totals N >= 1, pair-count matrices with undecided
    pairs and nonzero diagonals, and positive marginals pbar."""
    K, n = draw(st.integers(2, 10)), draw(st.integers(1, 6))
    cells = st.lists(st.one_of(st.just(0), st.integers(1, 60)), min_size=K, max_size=K)
    r = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.int64)
    tau = np.array(
        draw(st.lists(st.lists(cells, min_size=K, max_size=K), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    zero = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    r[zero], tau[zero] = 0, 0
    N = np.array(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)))
    pbar = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=K, max_size=K)))
    return r, N, tau, pbar / pbar.sum()


@settings(max_examples=300, deadline=None)
@given(count_stacks())
def test_stacked_chi2_equals_per_set_calls_and_explicit_sums(case):
    # one call on a stack of count sets scores each set bit for bit as a
    # call on that set alone does, and as explicit sums: over items for
    # top-1, over ordered pairs i != j with n_ij > 0 for paired
    r, N, tau, pbar = case
    K = pbar.size
    top1, paired = chi2_top1(r, N, pbar), chi2_paired(tau, pbar)
    assert np.array_equal(top1, [chi2_top1(x, m, pbar) for x, m in zip(r, N)])
    assert np.array_equal(paired, [chi2_paired(x, pbar) for x in tau])
    want_top1 = [
        sum((x[i] - m * pbar[i]) ** 2 / (m * pbar[i]) for i in range(K))
        for x, m in zip(r, N)
    ]
    want_paired = []
    for x in tau:
        total = 0.0
        for i, j in itertools.permutations(range(K), 2):
            n_ij = x[i, j] + x[j, i]
            if n_ij > 0:
                e = n_ij * pbar[i] / (pbar[i] + pbar[j])
                total += (x[i, j] - e) ** 2 / e
        want_paired.append(total)
    assert np.allclose(top1, want_top1, rtol=1e-12, atol=0)
    assert np.allclose(paired, want_paired, rtol=1e-12, atol=0)


def test_order_counts_span_row_blocks():
    # rows past the kernel's first block of _PAIR_CHUNK rows count once each
    rng = np.random.default_rng(5)
    K, n = 6, 2 * _PAIR_CHUNK + 7
    items = np.argsort(rng.random((K, n)), axis=0)
    weights = rng.integers(0, 9, n)
    for depth in (2, K):
        orderings = items.T + 1
        orderings[:, depth:] = 0
        ranks = rank_positions_of(orderings, K + 1)
        top1, tau = _order_counts(items, depth, weights)
        assert np.array_equal(top1, np.bincount(items[0], weights, minlength=K))
        assert np.array_equal(tau, pair_counts_rank_compare(ranks, weights))


@st.composite
def weight_blocks(draw):
    """Stage-major filled orderings (K x n) at one depth with a B x n block
    of integer weights; B * n ranges past _PAIR_CHUNK, so the kernel's row
    blocks both fit in one and cross several."""
    K = draw(st.integers(1, 9))
    depth = draw(st.integers(1, K))
    n = draw(st.integers(1, 40))
    B = draw(st.sampled_from([1, 2, 7]) | st.integers(1, 2 * _PAIR_CHUNK // n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = np.argsort(rng.random((K, n)), axis=0)
    bound = draw(st.sampled_from([2, 50, (2**53 - 1) // n]))
    return items, depth, rng.integers(0, bound, size=(B, n), endpoint=True)


@settings(max_examples=200, deadline=None)
@given(weight_blocks())
def test_order_counts_of_a_weight_block_equal_one_row_calls(case):
    # a B x n weight matrix gives B count sets, each that of its own row
    items, depth, weights = case
    top1, tau = _order_counts(items, depth, weights)
    assert top1.shape == weights.shape[:1] + (items.shape[0],)
    assert tau.shape == top1.shape + (items.shape[0],)
    for b, row in enumerate(weights):
        one_top1, one_tau = _order_counts(items, depth, row)
        assert np.array_equal(top1[b], one_top1)
        assert np.array_equal(tau[b], one_tau)


@st.composite
def draw_blocks(draw, K_range, max_units):
    """A dataset over K items, and a block of B draws of supports (B x G x
    K, rows on the simplex, entries down to 1e-30) and weights (B x G,
    some zero)."""
    K = draw(K_range)
    data = Dataset.from_orderings(draw(orderings(K, max_units=max_units)))
    G = draw(st.integers(1, 3))
    B = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = 10.0 ** rng.uniform(-30, 0, (B, G, K))
    w = rng.dirichlet(np.ones(G), B)
    w[rng.random((B, G)) < 0.2] = 0.0
    w[w.sum(axis=1) == 0, 0] = 1.0
    return data, p / p.sum(axis=2, keepdims=True), w / w.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(draw_blocks(st.integers(5, 7), max_units=12), st.integers(0, 2**32 - 1))
def test_simulated_block_equals_single_draws_on_one_stream(case, seed):
    # with every stratum simulated (K * K!/(K-m)! > n_m), a block of B draws
    # takes the stream of B single-draw calls and gives their counts
    data, p, w = case
    strata, table = _strata(data)
    assert table is None
    block_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = _replicate_counts(strata, None, p, w, block_rng)
    singles = [_replicate_counts(strata, None, p[b], w[b], single_rng) for b in range(len(w))]
    for i in range(len(strata)):
        for k in (0, 1):
            assert np.array_equal(block[i][k], [one[i][k] for one in singles])
    assert block_rng.random() == single_rng.random()


@settings(max_examples=100, deadline=None)
@given(draw_blocks(st.integers(2, 5), max_units=20))
def test_block_pattern_probs_equal_per_draw_scores(case):
    # one scoring pass with the block's B * G support rows gives each draw's
    # pattern probabilities as the mixture's scoring step at that draw
    data, p, w = case
    rows = data.patterns.rows
    block = _pattern_probs(rows, p, w)
    assert block.shape == (len(w), rows.counts.size)
    for b in range(len(w)):
        want = np.exp(_mixture_scores(rows, p[b], w[b])[1])
        assert np.allclose(block[b], want, rtol=1e-12, atol=0)
        assert np.array_equal(_pattern_probs(rows, p[b], w[b]), want)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda K: st.lists(
            st.lists(st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1]),
                     min_size=K, max_size=K),
            min_size=1, max_size=12,
        )
    )
)
def test_unit_to_freq_equals_unique(rows):
    x = np.array(rows, dtype=np.int64)
    table = unit_to_freq(x)
    seq, counts = np.unique(x, axis=0, return_counts=True)
    assert np.array_equal(table.sequences, seq)
    assert np.array_equal(table.counts, counts)


@st.composite
def counted_datasets(draw):
    """A Dataset over 2..7 items whose rows (which may repeat) count 1..6
    units each."""
    mat = draw(st.integers(2, 7).flatmap(lambda K: orderings(K, max_units=8)))
    counts = draw(st.lists(st.integers(1, 6), min_size=len(mat), max_size=len(mat)))
    return Dataset.from_orderings(mat, counts)


@settings(max_examples=100, deadline=None)
@given(counted_datasets())
def test_counted_rows_freq_table_and_stage_index(data):
    # a counted dataset's frequency table is the distinct units with their
    # multiplicities, lexicographic; its distinct rows (patterns) are the
    # same rows in the engine's order, descending depth and lexicographic
    # within a depth
    table = unit_to_freq(data)
    units = np.repeat(data.orderings, data.counts, axis=0)
    seq, counts = np.unique(units, axis=0, return_counts=True)
    assert np.array_equal(table.sequences, seq)
    assert np.array_equal(table.counts, counts)
    rows = data.patterns.rows
    order = np.argsort(-(seq != 0).sum(axis=1), kind="stable")
    assert np.array_equal(rows.orderings, seq[order])
    assert np.array_equal(rows.counts, counts[order])

    # the stage index: the ranked prefix at its stages, at inverting items
    # row by row, and ends[t] the number of rows with t < nranked[s], in the
    # patterns the leading slice of them
    K = data.n_items
    for d in (data, rows):
        stages = d._stages
        ranked = d.orderings != 0
        assert np.array_equal(stages.items.T[ranked], d.orderings[ranked] - 1)
        assert (stages.items.ravel()[stages.at] == np.arange(K)).all()
        assert stages.ends == tuple((d.nranked[None, :] > np.arange(K)[:, None]).sum(axis=1))
    assert all((rows.nranked[:e] > t).all() for t, e in enumerate(rows._stages.ends))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7).flatmap(lambda K: orderings(K, max_units=12)))
def test_ingestion_round_trips(mat):
    ranks = ord_rank_switch(mat, ORDERING)
    assert np.array_equal(ord_rank_switch(ranks, RANKING), mat)
    assert np.array_equal(ord_rank_switch(ord_rank_switch(ranks, RANKING), ORDERING), ranks)

    def sorted_rows(a):
        return a[np.lexsort(a.T[::-1])]

    back = freq_to_unit(unit_to_freq(mat))
    assert np.array_equal(sorted_rows(back), sorted_rows(mat))

    data = Dataset.from_orderings(mat)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in (ORDERING, RANKING):
            path = os.path.join(tmp, f"{fmt}.csv")
            write_dataset(path, data, fmt)
            assert np.array_equal(read_dataset(path, fmt).orderings, mat)


@st.composite
def weighted_and_params(draw):
    """A dataset with counts (rows may repeat), the same units one per row,
    and mixture parameters, hyperparameters and labels per row."""
    K = draw(st.integers(3, 5))
    G = draw(st.integers(1, 2))
    mat = draw(orderings(K, max_units=8))
    counts = np.array(
        draw(st.lists(st.integers(1, 6), min_size=len(mat), max_size=len(mat)))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = MixtureParams(rng.gamma(2.0, 1.0, (G, K)), rng.dirichlet(np.ones(G)))
    hyper = Hyperparams.expand(draw(st.sampled_from([1.5, 2.0])), 0.5, 1.5, G, K)
    labels = rng.integers(1, G + 1, len(mat))
    weighted = Dataset.from_orderings(mat, counts)
    units = Dataset.from_orderings(np.repeat(mat, counts, axis=0))
    return weighted, units, params, hyper, labels


def _same_report(a, b):
    for field in ("p_top1", "p_paired"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for field in ("top1_obs", "top1_rep", "paired_obs", "paired_rep"):
        assert all(map(np.array_equal, getattr(a, field), getattr(b, field)))


@settings(max_examples=40, deadline=None)
@given(weighted_and_params())
def test_weighted_rows_equal_their_units(case):
    # a dataset with counts and its unit expansion give the same numbers
    # bit for bit; per-row outputs expand to the per-unit ones
    weighted, units, params, hyper, labels = case
    counts = weighted.counts
    G = params.n_components
    assert weighted.n_units == units.n_units
    assert mixture_loglik(params, weighted) == mixture_loglik(params, units)

    sw, su = rank_summaries(weighted), rank_summaries(units)
    assert sw.nranked_distr == su.nranked_distr
    for field in ("missing_pos", "mean_rank", "marginal_rank_distr",
                  "pairedcomparisons"):
        assert np.array_equal(getattr(sw, field), getattr(su, field), equal_nan=True)

    (pw, zw), (pu, zu) = em_step(params, weighted, hyper), em_step(params, units, hyper)
    assert np.array_equal(pw.supports, pu.supports)
    assert np.array_equal(pw.weights, pu.weights)
    assert np.array_equal(np.repeat(zw, counts, axis=0), zu)

    fw = fit_map(weighted, G, hyper=hyper, init=params, max_iter=5, tol=0.0)
    fu = fit_map(units, G, hyper=hyper, init=params, max_iter=5, tol=0.0)
    for field in ("supports", "weights", "log_post_trace"):
        assert np.array_equal(getattr(fw, field), getattr(fu, field))
    assert fw.log_lik == fu.log_lik
    zw = np.repeat(fw.responsibilities, counts, axis=0)
    assert np.array_equal(zw, fu.responsibilities)
    assert np.array_equal(np.repeat(fw.labels, counts), fu.labels)

    run = dict(hyper=hyper, n_iter=12, n_burn=2, rng=3)
    cw = gibbs_run(weighted, G, init={"z": labels}, **run)
    cu = gibbs_run(units, G, init={"z": np.repeat(labels, counts)}, **run)
    for field in ("P", "W", "log_lik"):
        assert np.array_equal(getattr(cw, field), getattr(cu, field))

    rw, ru = np.random.default_rng(4), np.random.default_rng(4)
    _same_report(ppcheck(weighted, cw, rng=rw), ppcheck(units, cu, rng=ru))
    _same_report(ppcheck_cond(weighted, cw, rng=rw), ppcheck_cond(units, cu, rng=ru))


@st.composite
def mixture_scores(draw):
    """(N, G) component scores with ties, across magnitudes 1e-6..1e4,
    sometimes with an all -inf row, and weights with zeros."""
    N = draw(st.integers(1, 6))
    G = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e2, 1e4]))
    ties = st.sampled_from([-1.0, -0.5, 0.0])
    vals = draw(
        st.lists(st.floats(-1.0, 1.0) | ties, min_size=N * G, max_size=N * G)
    )
    comp = np.array(vals).reshape(N, G) * scale - scale
    if draw(st.booleans()):
        comp[draw(st.integers(0, N - 1))] = -np.inf
    w = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0),
                      min_size=G, max_size=G))
    )
    w[draw(st.integers(0, G - 1))] = 1.0
    return comp, w / w.sum()


@settings(max_examples=500, deadline=None)
@given(mixture_scores())
@example((np.array([[-3.0], [-np.inf]]), np.array([1.0])))
@example(
    (np.array([[-2.0, -2.0, -5.0], [-np.inf] * 3]), np.array([0.5, 0.0, 0.5]))
)
def test_log_mixture_equals_logsumexp(case):
    comp, w = case
    with np.errstate(divide="ignore"):
        scored = comp + np.log(w)[None, :]
    got_scored, got = _log_mixture(comp, w)
    assert np.array_equal(got_scored, scored)
    assert np.array_equal(got, logsumexp(scored, axis=1))


# Fuzzing the parsers: malformed input must raise ValidationError and
# nothing else. Numbers are either small or beyond every size limit, so no
# example allocates more than a few kilobytes.
_HUGE = st.integers(_MAX_CELLS + 1, 2**70)
_NUMBER = (st.integers(-2, 12) | _HUGE | _HUGE.map(lambda v: -v)).map(str)
_JUNK = st.text(alphabet=st.characters(max_codepoint=127), max_size=12)


def _joined(token, sep, max_size):
    return st.lists(token, max_size=max_size).map(sep.join)


_CSV_TEXT = _joined(_joined(_NUMBER | _JUNK, ",", 8), "\n", 8) | st.text(
    alphabet=st.characters(max_codepoint=127), max_size=200
)

_PREFLIB_LINE = (
    st.builds("{}: {}".format, _NUMBER, _joined(_NUMBER, ",", 6))
    | st.builds("# NUMBER ALTERNATIVES: {}".format, st.integers(0, 12) | _HUGE)
    | st.text(alphabet="#:, \tabcNUMBERx-", max_size=20)
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_CSV_TEXT)
@example("1,2,3\n2,99999999999999999999,1\n")
@example("1,2\n\x00,1\n")
def test_csv_parsing_fails_only_with_validation_error(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text)
    for fmt in (ORDERING, RANKING):
        try:
            read_dataset(path, fmt)
        except ValidationError:
            pass


# The bulk parse (np.loadtxt) and the per-line path must read every CSV
# alike: the same array or the same error. Cells add decimals, exponents,
# infinities, NaNs and padding, and lines end in LF, CRLF or CR.
_FLOAT = st.floats().map(repr) | st.sampled_from(
    ["1e5", ".5", "1.", "-0", "+3", "-nan", "infinity", "1_0", "e3", "0x1p3"]
)
_PAD = st.sampled_from(["", " ", "\t", "\xa0"])
_CELL = st.builds("{}{}{}".format, _PAD, _NUMBER | _FLOAT | _JUNK, _PAD)
_EOL = st.sampled_from(["\n", "\r\n", "\r"])
_MATRIX_TEXT = st.lists(st.tuples(_joined(_CELL, ",", 6), _EOL), max_size=8).map(
    lambda lines: "".join(cells + eol for cells, eol in lines)
)


def _matrix_outcome(read, path, skip, dtype):
    try:
        arr = read(path, skip, dtype)
    except ValidationError as e:
        return str(e)
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_CSV_TEXT | _MATRIX_TEXT, skip=st.integers(0, 2))
@example(text="1,2,\n2,1,\n", skip=0)  # trailing comma
@example(text='"1",2\n2,1\n', skip=0)  # quoted cell
@example(text="1,2\n \n2,1\n", skip=0)  # whitespace-only line
@example(text="1,\xa02\n2,1\n", skip=0)  # NBSP-padded cell
@example(text="item_1,item_2\n1,2\n2,1\n", skip=1)  # header line
@example(text="1,2\r\n2,1\r\n", skip=0)  # CRLF endings
@example(text="0" * 5000 + "1,2\n2,1\n", skip=0)  # past int()'s digit limit
@example(text="0." + "5" * 200000 + ",2\n", skip=0)  # past the csv field limit
@example(text='\n"0\n0', skip=2)  # a quote joining skipped and kept lines
def test_bulk_and_per_line_parses_agree(tmp_path, dtype, text, skip):
    path = tmp_path / "matrix.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _matrix_outcome(_matrix, path, skip, dtype) == _matrix_outcome(
        _matrix_by_line, path, skip, dtype
    )


@settings(max_examples=300, deadline=None)
@given(_joined(_PREFLIB_LINE, "\n", 8))
@example("# NUMBER ALTERNATIVES: 3\n100000000000: 1,2\n")
@example("1: 1,4000000000\n")
@example("1" + "0" * 400 + ": 1,2\n")
def test_preflib_parsing_fails_only_with_validation_error(text):
    try:
        parse_preflib_text(text)
    except ValidationError:
        pass
