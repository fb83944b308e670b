"""Property-based checks of the stage kernel and the ingestion round trips."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank import (
    Dataset,
    freq_to_unit,
    ord_rank_switch,
    read_dataset,
    unit_to_freq,
    write_dataset,
)
from plrank.data import ORDERING, RANKING
from plrank.gibbs import _unit_rates, stage_rates
from plrank.model import component_stage_logliks
from oracles import ordering_row_loglik

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
    rates = _unit_rates(data, p[g_of_s])
    for s, row in enumerate(mat):
        want = stage_rates(row, p[g_of_s[s]])
        assert np.array_equal(rates[s, : want.shape[0]], want)


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
