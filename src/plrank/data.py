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
Row r of a dataset stands for counts[r] identical units.

Dataset is the one row type: a single unit is a one-row Dataset, its
ranking view is ord_rank_switch or to_rank_positions(missing=0), and its
prefix indicators and their unit totals are the fields u and gamma.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

ORDERING = "ordering"
RANKING = "ranking"

# rows per block of the pair count kernel: its codes and weights then stay a
# few hundred KB, which numpy reuses instead of faulting in fresh pages
_PAIR_CHUNK = 4096

# largest matrix built from counted rows, a profile's lines or expanded units
# (80 MB of int64, far above the paper's data: APA is 15449 x 5)
_MAX_CELLS = 10_000_000


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


def _check_cells(n: int, K: int, what: str = "units") -> None:
    """Refuse an n x K matrix beyond _MAX_CELLS entries before allocating it."""
    if n * K > _MAX_CELLS:
        raise ValidationError(
            f"{n} {what} x {K} items exceeds the limit of {_MAX_CELLS} entries"
        )


def _as_counts(counts, n_rows: int) -> np.ndarray:
    """Read-only int64 row counts: positive integers aligned with the rows,
    summing below 2**53. A float64 sum of positive integers is exact below
    2**53 and at least 2**53 otherwise, so it checks every count too."""
    try:
        cnt = np.asarray(counts, dtype=np.float64)
    except (OverflowError, TypeError, ValueError):
        raise ValidationError("counts must be integers below 2**53") from None
    if cnt.shape != (n_rows,):
        raise ValidationError("counts must align with sequence rows")
    if not ((cnt > 0) & (np.rint(cnt) == cnt)).all():
        raise ValidationError("counts must be positive integers")
    if cnt.sum() >= 2**53:
        raise ValidationError("counts must sum below 2**53")
    cnt = cnt.astype(np.int64)
    cnt.setflags(write=False)
    return cnt


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


def _group_rows(arr: np.ndarray, weights=None):
    """Distinct rows of an integer matrix in lexicographic order, the sum
    of their rows' integer weights (their number by default), and each
    row's distinct-row index, all read-only: one lexsort over the columns,
    then a diff of neighbouring sorted rows."""
    order = np.lexsort(arr.T[::-1])
    ranked = arr[order]
    new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1
    w = np.ones_like(order) if weights is None else weights[order]
    out = ranked[new], np.add.reduceat(w, np.flatnonzero(new)), index
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


# Dataset.patterns: the distinct rows (a Dataset counting each row's units)
# and the distinct-row index of each row of the dataset
Patterns = namedtuple("Patterns", "rows index")

# Dataset._stages: the stage index the engine's tables are built from
_Stages = namedtuple("_Stages", "items ends at u")

# Dataset._prefix_sets: the sets of items chosen before the ranked stages
_PrefixSets = namedtuple("_PrefixSets", "cell avail")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of partial orderings over K items, row s counting counts[s] units.

    Construct through from_orderings or from_rankings, which validate,
    normalize depth-(K-1) rows to complete, and precompute:

        nranked[s]  depth of row s, its number of nonzero entries
        u[s, i]     1 if item i+1 appears in row s's ranked prefix
        gamma[i]    number of units ranking item i+1, counts @ u

    The engine's stage index (_stages) and the sampler's prefix-set index
    (_prefix_sets) are built from them on first use.
    """

    orderings: np.ndarray
    counts: np.ndarray
    nranked: np.ndarray
    u: np.ndarray
    gamma: np.ndarray

    @classmethod
    def from_orderings(cls, matrix, counts=None) -> "Dataset":
        arr = validate_ordering_matrix(matrix)
        n = arr.shape[0]
        counts = np.ones(n, dtype=np.int64) if counts is None else _as_counts(counts, n)
        return cls._build(_complete_penultimate(arr), counts)

    @classmethod
    def _build(cls, arr: np.ndarray, counts: np.ndarray) -> "Dataset":
        """Dataset of int64 rows that are valid orderings with no row of
        depth K-1, counted by int64 counts that _as_counts accepts; the
        arrays are taken as they are and made read-only."""
        nranked = (arr != 0).sum(axis=1)
        u = (rank_positions_of(arr, 0) != 0).astype(np.int64)
        gamma = counts @ u
        for a in (arr, counts, nranked, u, gamma):
            a.setflags(write=False)
        return cls(arr, counts, nranked, u, gamma)

    @classmethod
    def from_rankings(cls, matrix, counts=None) -> "Dataset":
        return cls.from_orderings(ord_rank_switch(matrix, RANKING), counts)

    @cached_property
    def patterns(self) -> Patterns:
        """Distinct rows with their units' counts, built on first use by
        the fitters: the engine's row order, descending depth and
        lexicographic within a depth (one stable sort of _group_rows)."""
        rows, counts, index = _group_rows(self.orderings, self.counts)
        order = np.argsort(-(rows != 0).sum(axis=1), kind="stable")
        moved = np.empty_like(order)
        moved[order] = np.arange(order.size)  # where each grouped row went
        index = moved[index]
        index.setflags(write=False)
        return Patterns(Dataset._build(rows[order], counts[order]), index)

    @cached_property
    def _stages(self) -> _Stages:
        """Stage-major index of the rows, built on first use by the engine:
        items are the rows' filled orderings (_stage_items); ends[t] is
        the number of rows ranked at stage t, so that in rows of
        descending depth (the engine's order, see patterns) the ranked
        cells of stage t are the leading slice [:ends[t]]; at[s, i] is the
        flat index t * n_rows + s of the cell holding item i in row s,
        items.ravel()[at[s, i]] == i; u is the float64 copy of the rows'
        u, which the engine's matmuls read without casting it each call."""
        items = _stage_items(self)
        K, n = items.shape
        at = np.empty((n, K), dtype=np.int64)
        at[np.arange(n), items] = np.arange(K * n).reshape(K, n)
        u = self.u.astype(np.float64)
        for a in (items, at, u):
            a.setflags(write=False)
        ends = np.count_nonzero(self.nranked > np.arange(K)[:, None], axis=1)
        return _Stages(items, tuple(ends.tolist()), at, u)

    @cached_property
    def _prefix_sets(self) -> _PrefixSets:
        """The sets of items chosen before each ranked stage, built on first
        use by the sampler: cell[t, s] is the id of the set row s has chosen
        before stage t, for t below its depth, and -1 beyond it; avail[j, i]
        (float64, one row per set) is 1 where item i is not in set j. Set 0
        is the empty set, which every row reaches at stage 0. The sets are
        the distinct rows (_group_rows) of the cells' packed bit masks, so
        any K takes ceil(K / 8) bytes a cell."""
        K, n = self.n_items, self.orderings.shape[0]
        pos = self._stages.at // n  # each item's stage in each row
        ranked = self.nranked > np.arange(K)[:, None]
        keys = np.concatenate(
            [np.packbits(pos[ranked[t]] < t, axis=1) for t in range(K)]
        )
        sets, _, index = _group_rows(keys)
        cell = np.full((K, n), -1, dtype=np.int64)
        cell[ranked] = index
        avail = 1.0 - np.unpackbits(sets, axis=1, count=K)
        for a in (cell, avail):
            a.setflags(write=False)
        return _PrefixSets(cell, avail)

    @property
    def n_units(self) -> int:
        return int(self.counts.sum())

    @property
    def n_items(self) -> int:
        return self.orderings.shape[1]

    @property
    def is_complete(self) -> bool:
        return bool((self.nranked == self.n_items).all())

    def to_rank_positions(self, missing: int | None = None) -> np.ndarray:
        """Rank of each item per unit, unranked coded as `missing` (default K+1)."""
        if missing is None:
            missing = self.n_items + 1
        return rank_positions_of(self.orderings, missing)


@dataclass(frozen=True, eq=False)
class FreqTable:
    """Distinct sequences with multiplicities, in lexicographic order."""

    sequences: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        seq = _as_int_matrix(self.sequences)
        cnt = _as_counts(self.counts, seq.shape[0])
        if _group_rows(seq)[0].shape[0] != seq.shape[0]:
            raise ValidationError("sequences must be distinct")
        seq.setflags(write=False)
        object.__setattr__(self, "sequences", seq)
        object.__setattr__(self, "counts", cnt)

    @property
    def n_units(self) -> int:
        return int(self.counts.sum())


def unit_to_freq(data) -> FreqTable:
    """Aggregate unit-level sequences into a frequency table.

    Accepts a Dataset, whose rows count counts[s] units each, or a raw
    matrix in either format; rows are compared as plain integer sequences.
    Distinct rows come out in lexicographic order with their multiplicities.
    """
    if isinstance(data, Dataset):
        seq, cnt, _ = _group_rows(data.orderings, data.counts)
    else:
        seq, cnt, _ = _group_rows(_as_int_matrix(data))
    return FreqTable(seq, cnt)


def _repeat_rows(matrix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row r of matrix repeated counts[r] times, within _MAX_CELLS entries."""
    _check_cells(int(counts.sum()), matrix.shape[1])
    return np.repeat(matrix, counts, axis=0)


def freq_to_unit(freq: FreqTable) -> np.ndarray:
    """Expand a frequency table to unit level, each sequence replicated
    count times in table order, within 10^7 entries (units x K)."""
    return _repeat_rows(freq.sequences, freq.counts)


def _units(data: Dataset) -> Dataset:
    """The dataset with one row per unit: itself when every count is 1,
    else each row repeated counts[s] times."""
    if data.n_units == data.orderings.shape[0]:
        return data
    return Dataset.from_orderings(_repeat_rows(data.orderings, data.counts))


def make_partial(data: Dataset, nranked=None, probcens=None, rng=None):
    """Censor complete orderings to top-t observations.

    Either pass `nranked` (a depth per unit, deterministic) or `probcens`
    (stochastic). `probcens` has K-1 entries: entry m is the probability
    of truncating to the top m for m = 1..K-2, and the last entry is the
    probability of keeping the row complete (ranking the top K-1 items
    already determines the full list).

    Returns (censored Dataset, realized depths), one row per unit. Depth
    K-1 requests are normalized to K like any other ingestion.
    """
    if not data.is_complete:
        raise ValidationError("make_partial expects complete orderings")
    data = _units(data)
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
    free position; implemented as an exponential race over all K items
    (_race), whose finishing order restricted to a row's unranked items
    is their own race. Returns one row per unit.
    """
    K = data.n_items
    p = np.asarray(probitems, dtype=np.float64)
    if p.shape != (K,):
        raise ValidationError(f"probitems must have length {K}")
    if (p <= 0).any() or not np.isfinite(p).all():
        raise ValidationError("probitems must be positive and finite")
    data = _units(data)
    if rng is None:
        rng = np.random.default_rng()
    order = _race(p[None, :], np.zeros(data.orderings.shape[0], dtype=np.intp), rng)
    out = data.orderings.copy()
    # row by row, the empty cells and the unranked items in finishing order
    out[out == 0] = order[np.take_along_axis(data.u, order, axis=1) == 0] + 1
    return Dataset.from_orderings(out)


def _race(rates: np.ndarray, rows: np.ndarray, rng) -> np.ndarray:
    """0-based items of len(rows) orderings, ordering s drawn by sequential
    sampling without replacement with probabilities proportional to
    rates[rows[s]] (a G x K table of positive rates): the items in the
    order they finish an exponential race, item i at time E_i / rate_i
    with E_i standard exponential. The first to finish is item i with
    probability proportional to its rate, and by memorylessness the race
    then restarts among the others, so the law is that of the stagewise
    draws. Each rate row is scaled by its maximum, so that the times stay
    finite at extreme supports."""
    scaled = rates / rates.max(axis=1, keepdims=True)
    times = rng.standard_exponential((rows.shape[0], rates.shape[1]))
    return np.argsort(np.divide(times, scaled[rows], out=times), axis=1)


@dataclass(frozen=True, eq=False)
class RankSummaries:
    """Descriptive summaries of a partial ordering dataset; nranked holds
    the depth of each dataset row, the other fields count units."""

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
    K = data.n_items
    per_depth = np.bincount(data.nranked, weights=data.counts)
    nranked_distr = {d: int(c) for d, c in enumerate(per_depth.tolist()) if c}
    missing_pos = data.n_units - data.gamma
    ranks = data.to_rank_positions()
    marginal = np.stack([data.counts @ (ranks == t) for t in range(1, K + 1)])
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
    return sum(tau for _, _, (_, tau) in _depth_counts(data))


def _depth_counts(data: Dataset):
    """For each observed depth m, ascending: m, the mask of the rows of
    depth m, and the (top-1, pair) counts of their units (_order_counts).
    Every observed count is a sum of these."""
    items = _stage_items(data)
    # every depth is at least 1, so the nonzero bins are the observed
    # depths; np.unique would import numpy.ma on its first call
    for m in np.flatnonzero(np.bincount(data.nranked)).tolist():
        rows = data.nranked == m
        yield m, rows, _order_counts(items[:, rows], m, data.counts[rows])


def _stage_items(data: Dataset) -> np.ndarray:
    """Stage-major filled orderings: items[t, s] is the 0-based item row s
    takes at stage t, its unranked items filling the pad t >= nranked[s]
    in ascending order."""
    filled = data.orderings - 1
    filled[filled < 0] = np.nonzero(data.u == 0)[1]
    return np.ascontiguousarray(filled.T)


def _order_counts(items: np.ndarray, depth: int, weights=None):
    """(top-1 counts, K x K pair counts) of filled orderings of one depth,
    column s of the stage-major K x n matrix items holding the 0-based
    items of row s: its ranked prefix of `depth` items, then its unranked
    items, as _stage_items holds them. Row s is counted weights[s] times
    (once by default); a B x n weight matrix gives B count sets at once,
    (B x K, B x K x K), set b counting row s weights[b, s] times. Positions
    a < b of a row form the decided pair "item at a before item at b" when
    a < depth, so a pair of unranked items counts for neither side. In each
    block of rows, of at most _PAIR_CHUNK rows times count sets, the first
    places are one np.bincount and each position's pairs one over the codes
    i * K + j, each set counting into its own run of bins. Integer weights
    are summed in float64, exact while they sum below 2**53."""
    K, n = items.shape
    lead = () if weights is None else np.shape(weights)[:-1]
    sets = math.prod(lead)
    w = None if weights is None else np.reshape(weights, (sets, 1, n) if sets > 1 else n)
    step = max(1, _PAIR_CHUNK // sets)
    top1, tau = np.zeros(sets * K), np.zeros(sets * K * K)

    def count(codes, out, wb):
        if sets > 1:  # set b counts into the b-th of sets equal runs of bins
            codes = codes + out.size // sets * np.arange(sets)[:, None, None]
        cw = None if wb is None else np.broadcast_to(wb, codes.shape).ravel()
        out += np.bincount(codes.ravel(), cw, minlength=out.size)

    for lo in range(0, n, step):
        blk = items[:, lo : lo + step]
        wb = None if w is None else w[..., lo : lo + step]
        count(blk[0], top1, wb)
        for a in range(min(depth, K - 1)):
            count(blk[a + 1 :] + K * blk[a], tau, wb)
    return (
        top1.astype(np.int64).reshape(*lead, K),
        tau.astype(np.int64).reshape(*lead, K, K),
    )


def rank_positions_of(orderings: np.ndarray, missing: int) -> np.ndarray:
    """Rank matrix for a raw ordering matrix (zero-padded rows), unranked
    items coded as `missing`; with `missing` 0 this is the row-wise inverse
    map, which also turns a ranking matrix back into orderings. One scatter
    along the rows: a zero entry writes to a spare last column, dropped."""
    n, K = orderings.shape
    ranks = np.full((n, K + 1), missing, dtype=np.int64)
    ranks[np.arange(n)[:, None], orderings - 1] = np.arange(1, K + 1)
    return ranks[:, :K]


def _labels0(labels, G: int) -> np.ndarray:
    """0-based components of 1-based labels: a nonempty 1-D sequence of
    integers in 1..G."""
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.size == 0:
        raise ValidationError("labels must be a nonempty 1-D sequence")
    lab = _as_int_matrix(lab[None, :])[0]
    if lab.min() < 1 or lab.max() > G:
        raise ValidationError(f"labels must lie in 1..{G}")
    return lab - 1


def binary_group_ind(labels, G: int) -> np.ndarray:
    """One-hot membership matrix from 1-based component labels."""
    return np.eye(G, dtype=np.int64)[_labels0(labels, G)]

