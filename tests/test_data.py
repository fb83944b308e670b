import numpy as np
import pytest

from plrank import (
    Dataset,
    FreqTable,
    ValidationError,
    available_items,
    binary_group_ind,
    freq_to_unit,
    make_complete,
    make_partial,
    ord_rank_switch,
    paired_comparisons,
    rank_summaries,
    sufficient_stats,
    unit_to_freq,
)
from oracles import paired_counts_direct, random_partial_matrix


def test_switch_hand_complete():
    ords = np.array([[3, 1, 4, 2, 5]])
    ranks = ord_rank_switch(ords, "ordering")
    assert ranks.tolist() == [[2, 4, 1, 3, 5]]
    back = ord_rank_switch(ranks, "ranking")
    assert back.tolist() == ords.tolist()


def test_switch_hand_partial():
    # only the top choice observed: item 2 first, others unranked
    ords = np.array([[2, 0, 0]])
    ranks = ord_rank_switch(ords, "ordering")
    assert ranks.tolist() == [[0, 1, 0]]
    assert ord_rank_switch(ranks, "ranking").tolist() == ords.tolist()


def test_switch_involution_random():
    rng = np.random.default_rng(7)
    for K in (3, 5, 8):
        mat, _ = random_partial_matrix(rng, 40, K)
        assert np.array_equal(
            ord_rank_switch(ord_rank_switch(mat, "ordering"), "ranking"), mat
        )
        rk = ord_rank_switch(mat, "ordering")
        assert np.array_equal(
            ord_rank_switch(ord_rank_switch(rk, "ranking"), "ordering"), rk
        )


def test_switch_rejects_bad_rows():
    with pytest.raises(ValidationError):
        ord_rank_switch(np.array([[1, 1, 0]]), "ordering")  # repeated item
    with pytest.raises(ValidationError):
        ord_rank_switch(np.array([[0, 2, 0]]), "ordering")  # gap before entry
    with pytest.raises(ValidationError):
        ord_rank_switch(np.array([[4, 1, 2]]), "ordering")  # out of range
    with pytest.raises(ValidationError):
        ord_rank_switch(np.array([[0, 0, 0]]), "ordering")  # nothing ranked
    with pytest.raises(ValidationError):
        ord_rank_switch(np.array([[2, 0, 0]]), "ranking")  # ranks not 1..t
    with pytest.raises(ValidationError):
        ord_rank_switch(np.array([[1, 2, 3]]), "nope")


def test_penultimate_completion():
    data = Dataset.from_orderings(np.array([[2, 1, 0]]))
    assert data.orderings.tolist() == [[2, 1, 3]]
    assert data.nranked.tolist() == [3]
    # same through the ranking door
    data = Dataset.from_rankings(np.array([[2, 1, 0]]))
    assert data.orderings.tolist() == [[2, 1, 3]]
    assert data.nranked.tolist() == [3]


def test_dataset_accessors():
    data = Dataset.from_orderings(np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]]))
    assert data.n_units == 3 and data.n_items == 3
    assert not data.is_complete
    assert data.nranked.tolist() == [3, 1, 3]
    row = data.row(1)
    assert row.entries.tolist() == [1, 0, 0] and row.n_ranked == 1
    ranks = data.to_rank_positions()
    assert ranks.tolist() == [[1, 2, 3], [1, 4, 4], [3, 1, 2]]
    assert data.to_rank_positions(missing=0).tolist() == [
        [1, 2, 3],
        [1, 0, 0],
        [3, 1, 2],
    ]
    assert data.rankings().tolist() == [[1, 2, 3], [1, 0, 0], [3, 1, 2]]


def test_available_items_hand():
    # pools are 0-based item indices still unchosen at each stage
    pools = available_items(np.array([2, 3, 1]))
    assert [p.tolist() for p in pools] == [[0, 1, 2], [0, 2], [0]]
    pools = available_items(np.array([2, 0, 0]))
    assert [p.tolist() for p in pools] == [[0, 1, 2]]


def test_freq_round_trip_and_order():
    seqs = np.array([[0, 0, 1, 0], [0, 1, 0, 2], [4, 1, 2, 3]])
    counts = np.array([2, 1, 3])
    table = FreqTable(seqs, counts)
    units = freq_to_unit(table)
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 2],
            [4, 1, 2, 3],
            [4, 1, 2, 3],
            [4, 1, 2, 3],
        ]
    )
    assert np.array_equal(units, expected)
    back = unit_to_freq(units)
    assert np.array_equal(back.sequences, seqs)
    assert np.array_equal(back.counts, counts)
    assert back.n_units == 6


def test_freq_to_unit_is_bounded():
    # 3,000,000 units of 5 items are 15M entries, past the 10^7 limit; the
    # table itself is one row
    table = FreqTable(np.array([[1, 2, 3, 4, 5]]), np.array([3_000_000]))
    with pytest.raises(ValidationError, match="exceeds the limit"):
        freq_to_unit(table)


def test_unit_to_freq_shuffled_recovery():
    rng = np.random.default_rng(3)
    mat, _ = random_partial_matrix(rng, 200, 5)
    table = unit_to_freq(mat)
    shuffled = freq_to_unit(table)[rng.permutation(table.n_units)]
    again = unit_to_freq(shuffled)
    assert np.array_equal(again.sequences, table.sequences)
    assert np.array_equal(again.counts, table.counts)
    # lexicographic order of the distinct rows
    order = np.lexsort(table.sequences.T[::-1])
    assert np.array_equal(order, np.arange(table.sequences.shape[0]))


def test_freqtable_validation():
    with pytest.raises(ValidationError):
        FreqTable(np.array([[1, 2], [1, 2]]), np.array([1, 1]))
    with pytest.raises(ValidationError):
        FreqTable(np.array([[1, 2]]), np.array([0]))
    with pytest.raises(ValidationError):
        FreqTable(np.array([[1, 2]]), np.array([1.5]))


def test_make_partial_deterministic():
    complete = Dataset.from_orderings(
        np.array([[1, 2, 3, 4], [4, 3, 2, 1], [2, 1, 4, 3]])
    )
    out, depths = make_partial(complete, nranked=np.array([1, 2, 3]))
    assert out.orderings.tolist() == [
        [1, 0, 0, 0],
        [4, 3, 0, 0],
        [2, 1, 4, 3],  # depth 3 = K-1 keeps the full row
    ]
    assert depths.tolist() == [1, 2, 4]


def test_make_partial_probcens_distribution():
    rng = np.random.default_rng(11)
    full = np.tile(np.array([[1, 2, 3, 4]]), (4000, 1))
    complete = Dataset.from_orderings(full)
    probs = np.array([0.2, 0.3, 0.5])
    out, depths = make_partial(complete, probcens=probs, rng=rng)
    assert np.array_equal(depths, out.nranked)
    counts = np.array([(depths == d).sum() for d in (1, 2, 4)])
    assert counts.sum() == 4000
    for c, p in zip(counts, probs):
        se = np.sqrt(p * (1 - p) * 4000)
        assert abs(c - 4000 * p) < 4 * se


def test_make_partial_validation():
    complete = Dataset.from_orderings(np.array([[1, 2, 3]]))
    with pytest.raises(ValidationError):
        make_partial(complete)
    with pytest.raises(ValidationError):
        make_partial(complete, nranked=np.array([1]), probcens=np.array([1, 0]))
    partial = Dataset.from_orderings(np.array([[1, 0, 0]]))
    with pytest.raises(ValidationError):
        make_partial(partial, nranked=np.array([1]))
    with pytest.raises(ValidationError):
        make_partial(complete, probcens=np.array([0.5, 0.4]))


def test_make_complete_extreme_supports():
    rng = np.random.default_rng(5)
    data = Dataset.from_orderings(
        np.array([[4, 0, 0, 0, 0], [2, 5, 0, 0, 0]])
    )
    # sharply decreasing worths force the remaining items in index order
    out = make_complete(data, np.array([1.0, 1e-12, 1e-24, 1e-36, 1e-48]), rng)
    assert out.is_complete
    assert out.orderings.tolist() == [[4, 1, 2, 3, 5], [2, 5, 1, 3, 4]]


def test_make_complete_preserves_prefix_random():
    rng = np.random.default_rng(9)
    mat, depths = random_partial_matrix(rng, 50, 6)
    data = Dataset.from_orderings(mat)
    out = make_complete(data, rng.uniform(0.2, 1.0, size=6), rng)
    assert out.is_complete
    for s in range(50):
        d = data.nranked[s]
        assert np.array_equal(out.orderings[s, :d], data.orderings[s, :d])
        assert sorted(out.orderings[s].tolist()) == list(range(1, 7))


def test_rank_summaries_hand():
    data = Dataset.from_orderings(np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]]))
    summ = rank_summaries(data)
    assert summ.nranked.tolist() == [3, 1, 3]
    assert summ.nranked_distr == {1: 1, 3: 2}
    assert summ.missing_pos.tolist() == [0, 1, 1]
    assert np.allclose(summ.mean_rank, [5 / 3, 1.5, 2.5])
    assert summ.marginal_rank_distr.tolist() == [
        [2, 1, 0],
        [0, 1, 1],
        [1, 0, 1],
    ]
    assert summ.pairedcomparisons.tolist() == [
        [0, 2, 2],
        [1, 0, 2],
        [1, 0, 0],
    ]


def test_paired_comparisons_against_oracle():
    rng = np.random.default_rng(13)
    mat, depths = random_partial_matrix(rng, 80, 5)
    data = Dataset.from_orderings(mat)
    tau = paired_comparisons(data)
    assert np.array_equal(tau, paired_counts_direct(mat, depths))
    assert np.all(np.diag(tau) == 0)


def test_paired_comparisons_complete_saturation():
    rng = np.random.default_rng(17)
    perms = np.array([rng.permutation(4) + 1 for _ in range(30)])
    tau = paired_comparisons(Dataset.from_orderings(perms))
    off = ~np.eye(4, dtype=bool)
    assert np.all((tau + tau.T)[off] == 30)


def test_sufficient_stats():
    rng = np.random.default_rng(19)
    mat, depths = random_partial_matrix(rng, 60, 5)
    data = Dataset.from_orderings(mat)
    st = sufficient_stats(data)
    u = np.zeros((60, 5), dtype=np.int64)
    for s in range(60):
        for t in range(depths[s]):
            u[s, mat[s, t] - 1] = 1
    assert np.array_equal(st.u, u)
    assert np.array_equal(st.gamma, u.sum(axis=0))
    assert st.gamma.sum() == depths.sum()


def test_binary_group_ind():
    out = binary_group_ind(np.array([1, 3, 1, 2]), 3)
    assert out.tolist() == [[1, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValidationError):
        binary_group_ind(np.array([0, 1]), 2)
    with pytest.raises(ValidationError):
        binary_group_ind(np.array([], dtype=int), 2)
