"""Data model and manipulation for partial top rankings.

Sequences are integer coded: items are labeled 1..K and 0 marks a missing
entry. An *ordering* lists items from best to worst, so row (4, 2, 0, 0)
means item 4 first, item 2 second, nothing else expressed. A *ranking*
stores the position given to each item, so the same preference reads
(0, 2, 0, 1). Partial observations cover only the top of the list: the
nonzero entries of an ordering form a prefix and the nonzero ranks form
{1, ..., t}. Ranking the top K-1 items determines the last one, so such
rows are normalized to complete at ingestion and observed depths live in
{1, ..., K-2, K}.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

ORDERING = "ordering"
RANKING = "ranking"

# chunk size for row-blocked pairwise scans, keeps N*K*K buffers small
_PAIR_CHUNK = 4096


def _as_int_matrix(data) -> np.ndarray:
    """Coerce input to a 2-D int64 matrix, one row per unit."""
    arr = np.asarray(data)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError("expected a nonempty 2-D sequence matrix")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.all(np.isfinite(arr)) or not np.array_equal(rounded, arr):
            raise ValidationError("sequence entries must be integers")
        arr = rounded
    return arr.astype(np.int64)


def _check_entry_range(arr: np.ndarray) -> None:
    K = arr.shape[1]
    if arr.min() < 0 or arr.max() > K:
        bad = int(np.argwhere((arr < 0) | (arr > K))[0, 0])
        raise ValidationError(f"row {bad}: entries must lie in 0..{K}")


def _check_distinct_nonzero(arr: np.ndarray, what: str) -> None:
    s = np.sort(arr, axis=1)
    dup = (s[:, 1:] == s[:, :-1]) & (s[:, 1:] != 0)
    if dup.any():
        bad = int(np.nonzero(dup.any(axis=1))[0][0])
        raise ValidationError(f"row {bad}: duplicate {what}")


def validate_ordering_matrix(arr) -> np.ndarray:
    """Check ordering-format invariants; returns the coerced matrix."""
    arr = _as_int_matrix(arr)
    _check_entry_range(arr)
    _check_distinct_nonzero(arr, "items in ordering")
    nz = arr != 0
    gap = nz[:, 1:] & ~nz[:, :-1]
    if gap.any():
        bad = int(np.nonzero(gap.any(axis=1))[0][0])
        raise ValidationError(f"row {bad}: ranked items must form a prefix")
    if not nz.any(axis=1).all():
        bad = int(np.nonzero(~nz.any(axis=1))[0][0])
        raise ValidationError(f"row {bad}: at least one item must be ranked")
    return arr


def validate_ranking_matrix(arr) -> np.ndarray:
    """Check ranking-format invariants; returns the coerced matrix."""
    arr = _as_int_matrix(arr)
    _check_entry_range(arr)
    _check_distinct_nonzero(arr, "rank positions")
    n_ranked = (arr != 0).sum(axis=1)
    # distinct positive ranks with max == count means the set is {1..t}
    bad_top = arr.max(axis=1) != n_ranked
    if bad_top.any():
        bad = int(np.nonzero(bad_top)[0][0])
        raise ValidationError(f"row {bad}: assigned ranks must be 1..t")
    if (n_ranked == 0).any():
        bad = int(np.nonzero(n_ranked == 0)[0][0])
        raise ValidationError(f"row {bad}: at least one item must be ranked")
    return arr


def ord_rank_switch(data, format: str) -> np.ndarray:
    """Convert between ordering and ranking format.

    Row by row, the output is the inverse mapping of the input: positions
    become ranks and vice versa, with 0 entries preserved for missing
    items. The function is an involution, switching twice restores the
    input exactly.

    Args:
        data: Dataset, matrix, or single row in the declared format.
        format: "ordering" or "ranking", the format of the input.

    Returns:
        Matrix in the other format, same shape.
    """
    if isinstance(data, Dataset):
        data = data.orderings
    if format == ORDERING:
        arr = validate_ordering_matrix(data)
    elif format == RANKING:
        arr = validate_ranking_matrix(data)
    else:
        raise ValidationError(f"unknown format {format!r}")
    return rank_positions_of(arr, 0)


def _group_rows(arr: np.ndarray):
    """Distinct rows of an integer matrix in lexicographic order, their
    counts, and each row's distinct-row index, all read-only: one lexsort
    over the columns, then a diff of neighbouring sorted rows."""
    order = np.lexsort(arr.T[::-1])
    ranked = arr[order]
    new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1
    out = ranked[new], np.bincount(index), index
    for a in out:
        a.setflags(write=False)
    return out


def _complete_penultimate(arr: np.ndarray) -> np.ndarray:
    """Fill the forced last item of rows ranking exactly K-1 items."""
    K = arr.shape[1]
    if K < 2:
        return arr
    depth = (arr != 0).sum(axis=1)
    rows = np.nonzero(depth == K - 1)[0]
    if rows.size:
        arr = arr.copy()
        total = K * (K + 1) // 2
        arr[rows, K - 1] = total - arr[rows].sum(axis=1)
    return arr


@dataclass(frozen=True, eq=False)
class PartialOrdering:
    """One unit's ordering: items best to worst, zero-padded tail."""

    entries: np.ndarray

    def __post_init__(self):
        arr = validate_ordering_matrix(self.entries)[0]
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n_ranked(self) -> int:
        return int((self.entries != 0).sum())


@dataclass(frozen=True, eq=False)
class PartialRanking:
    """One unit's ranking: position per item, zero for unranked."""

    entries: np.ndarray

    def __post_init__(self):
        arr = validate_ranking_matrix(self.entries)[0]
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n_ranked(self) -> int:
        return int((self.entries != 0).sum())

    def to_ordering(self) -> PartialOrdering:
        return PartialOrdering(ord_rank_switch(self.entries, RANKING)[0])


# Dataset.patterns: distinct rows (a Dataset), their counts, each unit's row
Patterns = namedtuple("Patterns", "rows counts index")

# Dataset._stages: the stage index the engine's tables are built from
_Stages = namedtuple("_Stages", "items pad pos")


@dataclass(frozen=True, eq=False)
class Dataset:
    """N units of partial orderings over K items.

    Construct through from_orderings or from_rankings, which validate,
    normalize depth-(K-1) rows to complete, and precompute the indexing
    arrays the likelihood code relies on:

        item_idx[s, t]   0-based item chosen by unit s at stage t (-1 pad)
        stage_mask[s, t] True for t < nranked[s]
        u[s, i]          1 if item i+1 appears in unit s's ranked prefix
        gamma[i]         number of units ranking item i+1
    """

    orderings: np.ndarray
    nranked: np.ndarray
    item_idx: np.ndarray
    stage_mask: np.ndarray
    u: np.ndarray
    gamma: np.ndarray

    @classmethod
    def from_orderings(cls, matrix) -> "Dataset":
        arr = validate_ordering_matrix(matrix)
        arr = _complete_penultimate(arr)
        nranked = (arr != 0).sum(axis=1)
        item_idx = arr - 1
        stage_mask = arr != 0
        u = (rank_positions_of(arr, 0) != 0).astype(np.int64)
        gamma = u.sum(axis=0)
        for a in (arr, nranked, item_idx, stage_mask, u, gamma):
            a.setflags(write=False)
        return cls(arr, nranked, item_idx, stage_mask, u, gamma)

    @classmethod
    def from_rankings(cls, matrix) -> "Dataset":
        return cls.from_orderings(ord_rank_switch(matrix, RANKING))

    @cached_property
    def patterns(self) -> Patterns:
        """Distinct rows (lexicographic), built on first use by the fitters."""
        rows, counts, index = _group_rows(self.orderings)
        return Patterns(Dataset.from_orderings(rows), counts, index)

    @cached_property
    def _stages(self) -> _Stages:
        """Stage-major index of the rows, built on first use by the engine:
        items[t, s] is the 0-based item row s takes at stage t, its
        unranked items filling the pad in ascending order; pad lists the
        cells beyond the depth, t >= nranked[s], as flat indices
        t * n_units + s; pos[s, i] is the stage that holds item i in row
        s, so that items[pos[s, i], s] == i."""
        filled = self.item_idx.copy()
        filled[~self.stage_mask] = np.nonzero(self.u == 0)[1]
        out = _Stages(
            np.ascontiguousarray(filled.T),
            np.flatnonzero(~self.stage_mask.T),
            np.argsort(filled, axis=1),
        )
        for a in out:
            a.setflags(write=False)
        return out

    @property
    def n_units(self) -> int:
        return self.orderings.shape[0]

    @property
    def n_items(self) -> int:
        return self.orderings.shape[1]

    @property
    def is_complete(self) -> bool:
        return bool((self.nranked == self.n_items).all())

    def row(self, s: int) -> PartialOrdering:
        return PartialOrdering(self.orderings[s])

    def rankings(self) -> np.ndarray:
        return ord_rank_switch(self.orderings, ORDERING)

    def to_rank_positions(self, missing: int | None = None) -> np.ndarray:
        """Rank of each item per unit, unranked coded as `missing` (default K+1)."""
        if missing is None:
            missing = self.n_items + 1
        return rank_positions_of(self.orderings, missing)


def available_items(ordering_row) -> "list[np.ndarray]":
    """Per-stage choice sets for one ordering row.

    Returns, for each stage t = 1..n_s, the 0-based indices of items still
    available when the stage-t choice is made (everything not picked at an
    earlier stage). This materializes the stagewise selection structure on
    demand; nothing in the package stores it densely.
    """
    row = validate_ordering_matrix(ordering_row)[0]
    K = row.shape[0]
    pools = []
    taken: set[int] = set()
    for t in range(int((row != 0).sum())):
        pools.append(np.array(sorted(set(range(K)) - taken), dtype=np.int64))
        taken.add(int(row[t]) - 1)
    return pools


@dataclass(frozen=True, eq=False)
class FreqTable:
    """Distinct sequences with multiplicities, in lexicographic order."""

    sequences: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        seq = _as_int_matrix(self.sequences)
        cnt = np.asarray(self.counts)
        if cnt.ndim != 1 or cnt.shape[0] != seq.shape[0]:
            raise ValidationError("counts must align with sequence rows")
        if not np.issubdtype(cnt.dtype, np.integer):
            if not np.array_equal(np.rint(cnt), cnt):
                raise ValidationError("counts must be integers")
            cnt = np.rint(cnt)
        cnt = cnt.astype(np.int64)
        if (cnt <= 0).any():
            raise ValidationError("counts must be positive")
        if _group_rows(seq)[0].shape[0] != seq.shape[0]:
            raise ValidationError("sequences must be distinct")
        seq.setflags(write=False)
        cnt.setflags(write=False)
        object.__setattr__(self, "sequences", seq)
        object.__setattr__(self, "counts", cnt)

    @property
    def n_units(self) -> int:
        return int(self.counts.sum())


def unit_to_freq(data) -> FreqTable:
    """Aggregate unit-level sequences into a frequency table.

    Accepts a Dataset or a raw matrix in either format; rows are compared
    as plain integer sequences. Distinct rows come out in lexicographic
    order with their multiplicities.
    """
    if isinstance(data, Dataset):
        data = data.orderings
    seq, cnt, _ = _group_rows(_as_int_matrix(data))
    return FreqTable(seq, cnt)


def freq_to_unit(freq: FreqTable) -> np.ndarray:
    """Expand a frequency table to unit level, each sequence replicated
    count times in table order."""
    return np.repeat(freq.sequences, freq.counts, axis=0)


def make_partial(data: Dataset, nranked=None, probcens=None, rng=None):
    """Censor complete orderings to top-t observations.

    Either pass `nranked` (a depth per unit, deterministic) or `probcens`
    (stochastic). `probcens` has K-1 entries: entry m is the probability
    of truncating to the top m for m = 1..K-2, and the last entry is the
    probability of keeping the row complete (ranking the top K-1 items
    already determines the full list).

    Returns (censored Dataset, realized depths). Depth K-1 requests are
    normalized to K like any other ingestion.
    """
    if not data.is_complete:
        raise ValidationError("make_partial expects complete orderings")
    N, K = data.orderings.shape
    if (nranked is None) == (probcens is None):
        raise ValidationError("pass exactly one of nranked or probcens")
    if nranked is not None:
        depths = np.asarray(nranked)
        if depths.shape != (N,):
            raise ValidationError("nranked must have one entry per unit")
        depths = _as_int_matrix(depths[None, :])[0]
        if depths.min() < 1 or depths.max() > K:
            raise ValidationError("nranked entries must lie in 1..K")
    else:
        p = np.asarray(probcens, dtype=np.float64)
        if p.shape != (K - 1,):
            raise ValidationError(f"probcens must have length {K - 1}")
        if (p < 0).any():
            raise ValidationError("probcens entries must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-8:
            raise ValidationError("probcens must sum to 1")
        if rng is None:
            rng = np.random.default_rng()
        levels = np.array(list(range(1, K - 1)) + [K], dtype=np.int64)
        depths = rng.choice(levels, size=N, p=p / p.sum())
    censored = data.orderings.copy()
    censored[np.arange(K)[None, :] >= depths[:, None]] = 0
    out = Dataset.from_orderings(censored)
    return out, out.nranked.copy()


def make_complete(data: Dataset, probitems, rng=None) -> Dataset:
    """Fill the unranked tail of each row by sequential sampling.

    Missing items are appended in the order produced by sampling without
    replacement with probabilities proportional to `probitems`, leaving
    the observed prefix untouched. Equivalent to one stagewise draw per
    free position; implemented by sorting Gumbel-perturbed log weights.
    """
    K = data.n_items
    p = np.asarray(probitems, dtype=np.float64)
    if p.shape != (K,):
        raise ValidationError(f"probitems must have length {K}")
    if (p <= 0).any() or not np.isfinite(p).all():
        raise ValidationError("probitems must be positive and finite")
    if rng is None:
        rng = np.random.default_rng()
    # ranked items get -inf and sort last, so they are never re-drawn
    tail_items = _gumbel_sort(np.where(data.u != 0, -np.inf, np.log(p)), rng)
    out = data.orderings.copy()
    pos = np.arange(K)[None, :] - data.nranked[:, None]
    fill = pos >= 0
    out[fill] = tail_items[fill.nonzero()[0], pos[fill]]
    return Dataset.from_orderings(out)


def _gumbel_sort(log_weights: np.ndarray, rng) -> np.ndarray:
    """1-based items of each row of an (n x K) log-weight matrix, sorted
    by Gumbel-perturbed log weight: sampling without replacement with
    probabilities proportional to the weights, -inf entries last."""
    key = log_weights + rng.gumbel(size=log_weights.shape)
    return np.argsort(-key, axis=1, kind="stable") + 1


@dataclass(frozen=True, eq=False)
class RankSummaries:
    """Descriptive summaries of a partial ordering dataset."""

    nranked: np.ndarray
    nranked_distr: dict
    missing_pos: np.ndarray
    mean_rank: np.ndarray
    marginal_rank_distr: np.ndarray
    pairedcomparisons: np.ndarray


def rank_summaries(data: Dataset) -> RankSummaries:
    """Compute depth distribution, per-item missingness, mean observed
    rank, the rank-by-item contingency table, and paired comparisons.

    mean_rank averages only the ranks actually observed for an item
    (units leaving it unranked do not contribute); an item no unit ever
    ranks gets nan.
    """
    N, K = data.orderings.shape
    depths, depth_counts = np.unique(data.nranked, return_counts=True)
    nranked_distr = {int(d): int(c) for d, c in zip(depths, depth_counts)}
    missing_pos = (N - data.gamma).astype(np.int64)
    rows, cols = np.nonzero(data.stage_mask)
    items = data.item_idx[rows, cols]
    marginal = np.bincount(cols * K + items, minlength=K * K).reshape(K, K)
    rank_sum = (marginal * (np.arange(1, K + 1)[:, None])).sum(axis=0)
    with np.errstate(invalid="ignore"):
        mean_rank = np.where(data.gamma > 0, rank_sum / data.gamma, np.nan)
    return RankSummaries(
        nranked=data.nranked.copy(),
        nranked_distr=nranked_distr,
        missing_pos=missing_pos,
        mean_rank=mean_rank,
        marginal_rank_distr=marginal,
        pairedcomparisons=paired_comparisons(data),
    )


def paired_comparisons(data: Dataset) -> np.ndarray:
    """K x K matrix of decided pairwise preferences.

    Entry (i, j) counts units expressing a preference for item i+1 over
    item j+1: both ranked with i before j, or i ranked while j is not.
    Units ranking neither item leave the pair undecided.
    """
    return _pair_counts(data.to_rank_positions())


def _pair_counts(ranks: np.ndarray, weights=None) -> np.ndarray:
    """K x K counts of rows of a rank matrix placing item i strictly
    before item j, row r counted weights[r] times (once by default); code
    unranked items with a common rank beyond K so that pairs a row leaves
    undecided count for neither side. Integer weights are summed by a
    float64 matrix product, exact while they sum below 2**53."""
    K = ranks.shape[1]
    tau = np.zeros((K, K), dtype=np.int64)
    for lo in range(0, ranks.shape[0], _PAIR_CHUNK):
        blk = ranks[lo : lo + _PAIR_CHUNK]
        before = blk[:, :, None] < blk[:, None, :]
        if weights is None:
            tau += before.sum(axis=0)
        else:
            w = np.asarray(weights[lo : lo + _PAIR_CHUNK], dtype=np.float64)
            flat = before.reshape(blk.shape[0], K * K).astype(np.float64)
            tau += (w @ flat).astype(np.int64).reshape(K, K)
    return tau


def rank_positions_of(orderings: np.ndarray, missing: int) -> np.ndarray:
    """Rank matrix for a raw ordering matrix (zero-padded rows), unranked
    items coded as `missing`; with `missing` 0 this is the row-wise inverse
    map, which also turns a ranking matrix back into orderings."""
    ranks = np.full(orderings.shape, missing, dtype=np.int64)
    rows, cols = np.nonzero(orderings)
    ranks[rows, orderings[rows, cols] - 1] = cols + 1
    return ranks


def binary_group_ind(labels, G: int) -> np.ndarray:
    """One-hot membership matrix from 1-based component labels."""
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.size == 0:
        raise ValidationError("labels must be a nonempty 1-D sequence")
    lab = _as_int_matrix(lab[None, :])[0]
    if lab.min() < 1 or lab.max() > G:
        raise ValidationError(f"labels must lie in 1..{G}")
    return np.eye(G, dtype=np.int64)[lab - 1]


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Membership indicators u (N x K) and per-item totals gamma (K,)."""

    u: np.ndarray
    gamma: np.ndarray


def sufficient_stats(data: Dataset) -> SufficientStats:
    """Binary prefix-membership matrix and its column sums.

    The stagewise availability indicators are intentionally not stored;
    use available_items on a row to materialize the per-stage choice sets
    when needed.
    """
    return SufficientStats(u=data.u.copy(), gamma=data.gamma.copy())
