"""Property-based checks of the stage kernel, the log mixture density, the
ingestion round trips, and the parsers on malformed input."""

import math
import os
import tempfile

import numpy as np
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
from plrank.data import _MAX_CELLS, ORDERING, RANKING
from plrank.errors import ValidationError
from plrank.fileio import parse_preflib_text
from plrank.gibbs import stage_rates
from plrank.model import (
    _availability_sums,
    _log_mixture,
    _stage_table,
    component_stage_logliks,
)
from oracles import (
    availability_sums_rows_major,
    log_mixture_rows_major,
    ordering_row_loglik,
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
    got = component_stage_logliks(Dataset.from_orderings(mat), p)
    for s, row in enumerate(mat):
        items = [int(v) for v in row if v]
        for g in range(p.shape[0]):
            want = ordering_row_loglik(items, p[g])
            # relative to the size of the logged terms: near a log-likelihood
            # of 0 both sides round a ratio close to 1 before its log, so no
            # implementation is relatively exact there
            scale = abs(want) + sum(abs(math.log(p[g, i - 1])) for i in items)
            assert abs(got[s, g] - want) <= 1e-12 * max(scale, 1.0)


@settings(max_examples=200, deadline=None)
@given(ordering_and_supports(), st.randoms(use_true_random=False))
def test_sweep_rates_equal_stage_rates(case, rnd):
    mat, p = case
    data = Dataset.from_orderings(mat)
    g_of_s = np.array([rnd.randrange(p.shape[0]) for _ in range(mat.shape[0])])
    # the expression the sweep draws its stage times with
    rates = _stage_table(data, p)[1][:, np.arange(mat.shape[0]), g_of_s]
    for s, row in enumerate(mat):
        want = stage_rates(row, p[g_of_s[s]])
        assert np.array_equal(rates[: want.shape[0], s], want)


@settings(max_examples=300, deadline=None)
@given(ordering_and_supports())
def test_stage_rates_match_oracle(case):
    mat, p = case
    for row in mat:
        items = [int(v) for v in row if v]
        for g in range(p.shape[0]):
            want = stage_remainders_direct(items, p[g])
            got = stage_rates(row, p[g])
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
    mat, p, w = case
    data = Dataset.from_orderings(mat)
    comp, rem = _stage_table(data, p)
    ref_comp, ref_rem = stage_table_rows_major(data, p)
    if p.shape[0] == 1 and mat.shape[1] >= 8:
        scale = np.abs(np.log(ref_rem)).sum(axis=1) + np.abs(data.u @ np.log(p).T)
        assert (np.abs(comp - ref_comp) <= 16 * np.finfo(float).eps * scale).all()
    else:
        assert _same_bits(comp, ref_comp)
    assert _same_bits(rem.transpose(1, 0, 2), ref_rem)
    assert comp.flags.c_contiguous

    # the EM form (1 / rem, trailing component axis) and the sweep form
    # (stage times per row and stage, no trailing axis)
    r = np.where(data.orderings[:, :, None] != 0, 1.0 / ref_rem, 0.0)
    y = r[:, :, 0] * np.arange(1, mat.shape[0] + 1)[:, None]
    for x in (r, y):
        got = _availability_sums(data._stages.pos, np.moveaxis(x, 1, 0).copy())
        assert _same_bits(got, availability_sums_rows_major(data.orderings - 1, x))

    scored, per_unit = _log_mixture(ref_comp, w)
    ref_scored, ref_per_unit = log_mixture_rows_major(ref_comp, w)
    assert _same_bits(scored, ref_scored)
    assert _same_bits(per_unit, ref_per_unit)
    assert scored.flags.c_contiguous


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
    # a counted dataset's frequency table is its distinct rows, which are
    # the distinct units with their multiplicities
    table = unit_to_freq(data)
    rows = data.patterns.rows
    assert np.array_equal(table.sequences, rows.orderings)
    assert np.array_equal(table.counts, rows.counts)
    units = np.repeat(data.orderings, data.counts, axis=0)
    seq, counts = np.unique(units, axis=0, return_counts=True)
    assert np.array_equal(table.sequences, seq)
    assert np.array_equal(table.counts, counts)

    # the stage index: the ranked prefix at its stages, pos inverting items
    # row by row, and pad exactly the cells t >= nranked[s]
    stages = data._stages
    n, K = data.orderings.shape
    ranked = data.orderings != 0
    assert np.array_equal(stages.items.T[ranked], data.orderings[ranked] - 1)
    assert (stages.items[stages.pos, np.arange(n)[:, None]] == np.arange(K)).all()
    beyond = np.arange(K)[:, None] >= data.nranked[None, :]
    assert np.array_equal(stages.pad, np.flatnonzero(beyond))


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
    for field in ("supports_raw", "weights", "log_post_trace"):
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
