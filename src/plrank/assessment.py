"""Goodness of fit: chi-squared discrepancies and posterior predictive checks.

Two observed-vs-expected discrepancies summarize a dataset against
mixture parameters through the weight-averaged marginal supports pbar:

  * top1: item counts in first position against expected N * pbar_i.
  * paired: decided pairwise preference counts tau_ij against the
    two-item choice expectation n_ij * pbar_i / (pbar_i + pbar_j), where
    n_ij = tau_ij + tau_ji is the realized number of decided comparisons
    (pairs nobody decided are skipped).

The posterior predictive p-value of a discrepancy X2 is the share of kept
posterior draws whose replicated dataset scores at least as high as the
observed one, both evaluated at that draw's parameters. Replicates keep
each unit's observed depth: a unit of depth n_s gets the top n_s of an
ordering drawn from the mixture at the draw. The conditional variant
stratifies units by depth, sums the per-stratum discrepancies, and
compares those totals.

Within a depth-m stratum of n_m units the replicated top-m orderings are
i.i.d. over the K!/(K-m)! top-m patterns, so the stratum's replicate is
exactly Multinomial(n_m, pi) over the patterns, pi being their mixture
probabilities. A stratum with K * K!/(K-m)! <= n_m is enumerated: its
pattern counts are drawn directly, and its top-1 and pair counts are
those of the patterns weighted by their counts, at most n_m / K rows in
place of n_m. Every other stratum simulates its own units, one complete
ordering per unit drawn by exponential race (the law of sequential
choice), of which the pairs decided by its top m are counted. Observed
and replicated counts all come from one count kernel over filled
orderings, the observed ones depth by depth (data._depth_counts), and
the patterns' mixture probabilities from the mixture's one scoring step
(model._mixture_scores).

Both variants share one replicate per kept draw, so the CLI's plain and
conditional p-values come from one pass. Counts are taken per stratum
and stacked with their pooled integer sums as rows [pooled, stratum
1..S], so one call per statistic scores a draw: the plain statistic is
row 0, the conditional one the sum of rows 1..S.

A chain's kept draws run in blocks of B draws, B fixed by a cell budget:
a block's stage table over the pattern rows (B x rows x G x K) and four
times its pair-count table (B x 2(S+1) x K x K) stay under _BLOCK_CELLS,
and a draw that alone reaches it runs as a block of one. A block scores
all its draws' pattern probabilities in one pass with B * G support
rows, draws each enumerated stratum's B pattern-count rows with one
multinomial call (a 2-D pvals consumes the stream as row-by-row calls
do), counts them in one count-kernel call, and scores every statistic
across the block, each draw keeping the bits it has in a block of one.
The stream runs through the enumerated strata in ascending depth, then
draw by draw through the simulated strata, each draw's in ascending
depth: data whose strata are all simulated draw in the order of one draw
at a time.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_cells, _depth_counts, _order_counts
from .errors import ValidationError
from .gibbs import GibbsChain
from .model import _log_mixture, _mixture_race, _stage_table

# One depth stratum of the data: its depth m, its size n_m, its observed
# (top-1, pair) counts, and its rows of the shared pattern table when it is
# enumerated (None: its replicate is simulated unit by unit)
_Stratum = namedtuple("_Stratum", "depth size observed rows")

# cells of one block of kept draws (_block_draws). Its largest table stays
# under 4 MiB of float64, where numpy asks the kernel for huge pages: with
# those, faulting in a fresh c9-shaped stage table of 50 draws took 8.0 ms,
# against 1.2 ms for 40 draws just under the line
_BLOCK_CELLS = 2**19


def chi2_top1(r: np.ndarray, N, pbar: np.ndarray):
    """First-place chi-squared statistic of each count set r[..., :] of N
    units (N broadcasting over r's leading axes) against marginals
    pbar[..., :] (pbar's leading axes broadcasting the same way)."""
    E = np.asarray(N)[..., None] * pbar
    return (((r - E) ** 2) / E).sum(axis=-1)


def chi2_paired(tau: np.ndarray, pbar: np.ndarray):
    """Paired-preference chi-squared of each decided-comparison matrix
    tau[..., :, :] against marginals pbar[..., :] (leading axes broadcast),
    summed over its decided cells, n_ij > 0. A diagonal cell adds an exact
    zero: its expectation n_ii / 2 is tau_ii."""
    n = tau + np.swapaxes(tau, -1, -2)
    Pi = pbar[..., :, None]
    E = n * (Pi / (Pi + pbar[..., None, :]))
    # an undecided cell has tau = E = 0: its squared deviation is the zero
    # it adds
    dev = tau - E
    dev *= dev
    return np.divide(dev, E, out=dev, where=n > 0).sum(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class PpcheckReport:
    """Posterior predictive p-values per candidate chain.

    p-values are recomputable from the stored per-draw statistics:
    p = mean(rep >= obs), weak inequality.
    """

    g_values: np.ndarray
    p_top1: np.ndarray
    p_paired: np.ndarray
    top1_obs: list
    top1_rep: list
    paired_obs: list
    paired_rep: list
    conditional: bool


def _strata(data: Dataset):
    """The depth strata of a dataset in ascending depth, and the shared
    table of enumerated patterns: every top-m ordering of each enumerated
    depth m, lexicographic, stacked in descending depth (the engine's row
    order) as a Dataset (None when no stratum is enumerated). A depth-m
    stratum of n_m units is enumerated when K * K!/(K-m)! <= n_m, so that
    it counts at most n_m / K pattern rows where a simulation would count
    n_m unit rows."""
    K = data.n_items
    strata, blocks, lo = [], [], 0
    # deepest stratum first, the table's row order
    for m, units, observed in reversed(list(_depth_counts(data))):
        counts = data.counts[units]
        n, P, rows = int(counts.sum()), math.perm(K, m), None
        if K * P <= n:
            _check_cells(P, K, "patterns")
            blk = np.zeros((P, K), dtype=np.int64)
            blk[:, :m] = list(itertools.permutations(range(1, K + 1), m))
            blocks.append(blk)
            rows, lo = slice(lo, lo + P), lo + P
        elif n > counts.size:
            _check_cells(n, K)
        strata.append(_Stratum(m, n, observed, rows))
    strata.reverse()
    if not blocks:
        return strata, None
    return strata, Dataset._build(np.concatenate(blocks), np.ones(lo, dtype=np.int64))


def _block_draws(strata, table, G: int, K: int) -> int:
    """Kept draws per block: as many as keep the block's stage table over
    the pattern rows (draws x rows x G x K) and four times its pair-count
    table (draws x 2 (S + 1) x K x K; chi2_paired holds four arrays of that
    size at once) under _BLOCK_CELLS cells, and at least one."""
    rows = 0 if table is None else table.counts.size
    per_draw = K * (rows * G + 4 * 2 * (len(strata) + 1) * K)
    return max(1, (_BLOCK_CELLS - 1) // per_draw)


def _pattern_probs(table: Dataset, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mixture probabilities of the pattern table's rows, (P,) at supports
    p (G x K) and weights w (G,), or (B x P) at a block's p (B x G x K)
    and w (B x G): the mixture's scoring step (model._mixture_scores) in
    one pass with all the block's B * G support rows."""
    comp = _stage_table(table, p.reshape(-1, p.shape[-1]))[0]
    return np.exp(_log_mixture(comp.reshape(-1, *w.shape), w)[1])


def _replicate_counts(strata, table, p: np.ndarray, w: np.ndarray, rng):
    """(top-1 counts, pair counts) of one replicated dataset per stratum at
    normalised supports p (G x K) and weights w (G,), or of one per draw of
    a block of B draws, p (B x G x K) and w (B x G), whose counts lead with
    the B axis. Within a depth-m stratum the replicated top-m orderings are
    i.i.d. over the top-m patterns, so an enumerated stratum draws its
    pattern counts from Multinomial(n_m, pi), one call per block; any other
    stratum simulates its own units, draw by draw once the enumerated
    strata are drawn, and counts their complete orderings, which are
    filled orderings of depth m as they are drawn."""
    lead = w.shape[:-1]
    out = [None] * len(strata)
    if table is not None:
        pi = _pattern_probs(table, p, w)
        items = table._stages.items
        for i, s in enumerate(strata):
            if s.rows is not None:
                q = pi[..., s.rows]
                n_pattern = rng.multinomial(s.size, q / q.sum(axis=-1, keepdims=True))
                out[i] = _order_counts(items[:, s.rows], s.depth, n_pattern)
    simulated = [i for i, s in enumerate(strata) if s.rows is None]
    per_draw = [
        [_simulated_counts(strata[i], p[b], w[b], rng) for i in simulated]
        for b in np.ndindex(lead)
    ]
    for i, counts in zip(simulated, zip(*per_draw)):
        out[i] = tuple(np.reshape(c, lead + c[0].shape) for c in zip(*counts))
    return out


def _simulated_counts(s: _Stratum, p: np.ndarray, w: np.ndarray, rng):
    """(top-1, pair) counts of stratum s's units simulated at one draw's
    supports p and weights w, one complete ordering each by exponential
    race, truncated to the stratum's depth by the count kernel."""
    race = _mixture_race(s.size, p, w, rng)[1]
    return _order_counts(np.ascontiguousarray(race.T), s.depth)


def _check_one_chain(strata, table, chain: GibbsChain, rng):
    """(2, 4, n_kept) statistics of one chain, plain then conditional, each
    holding top1 obs/rep and paired obs/rep, from one replicate per draw,
    the draws taken in blocks (_block_draws). Observed and replicated
    counts of each draw stack as rows [pooled, stratum 1..S]; each row's N
    is its top-1 total, as every unit ranks one item first. The stratum
    axis stays last and contiguous where the conditional sum runs, so each
    draw's statistics have the bits of a block of one."""
    K = chain.n_items
    observed = [np.stack(c) for c in zip(*(s.observed for s in strata))]
    P = chain.supports_3d()
    P = P / P.sum(axis=2, keepdims=True)
    B = _block_draws(strata, table, chain.n_components, K)
    stats = np.zeros((2, 4, chain.n_kept))
    for lo in range(0, chain.n_kept, B):
        p, w = P[lo : lo + B], chain.W[lo : lo + B]
        r = np.zeros((len(w), 2, len(strata) + 1, K), dtype=np.int64)
        tau = np.zeros((*r.shape, K), dtype=np.int64)
        reps = _replicate_counts(strata, table, p, w, rng)
        r[:, 0, 1:], tau[:, 0, 1:] = observed
        r[:, 1, 1:], tau[:, 1, 1:] = (np.stack(c, axis=1) for c in zip(*reps))
        r[:, :, 0], tau[:, :, 0] = r[:, :, 1:].sum(axis=2), tau[:, :, 1:].sum(axis=2)
        # each draw's w @ p, broadcasting over the [obs, rep] and stratum rows
        pbar = np.matmul(w[:, None], p)[:, None]
        x = np.concatenate((chi2_top1(r, r.sum(axis=-1), pbar), chi2_paired(tau, pbar)), axis=1)
        stats[0, :, lo : lo + B] = x[..., 0].T
        stats[1, :, lo : lo + B] = x[..., 1:].sum(axis=-1).T
    return stats


def _ppchecks(data: Dataset, chains, rng=None):
    """Plain and conditional reports from one replicate per kept draw."""
    if isinstance(chains, GibbsChain):
        chains = [chains]
    chains = list(chains)
    if not chains:
        raise ValidationError("need at least one chain")
    if any(chain.n_items != data.n_items for chain in chains):
        raise ValidationError("chain item count does not match the data")
    if rng is None:
        rng = np.random.default_rng()
    strata, table = _strata(data)
    stats = [_check_one_chain(strata, table, chain, rng) for chain in chains]
    return tuple(
        PpcheckReport(
            g_values=np.asarray([c.n_components for c in chains], dtype=np.int64),
            p_top1=np.asarray([(s[k, 1] >= s[k, 0]).mean() for s in stats]),
            p_paired=np.asarray([(s[k, 3] >= s[k, 2]).mean() for s in stats]),
            top1_obs=[s[k, 0] for s in stats],
            top1_rep=[s[k, 1] for s in stats],
            paired_obs=[s[k, 2] for s in stats],
            paired_rep=[s[k, 3] for s in stats],
            conditional=bool(k),
        )
        for k in (0, 1)
    )


def ppcheck(data: Dataset, chains, rng=None) -> PpcheckReport:
    """Posterior predictive p-values for the top1 and paired discrepancies.

    Args:
        data: observed dataset.
        chains: a GibbsChain or a sequence of them (one per candidate G).
        rng: numpy Generator driving the replicated datasets.
    """
    return _ppchecks(data, chains, rng)[0]


def ppcheck_cond(data: Dataset, chains, rng=None) -> PpcheckReport:
    """Depth-stratified variant: discrepancies are computed within each
    observed censoring depth and summed before comparison."""
    return _ppchecks(data, chains, rng)[1]
