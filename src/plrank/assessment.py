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
ordering per unit truncated to depth m. Observed and replicated counts
all come from one count kernel over rank matrices.

Both variants share one replicate per kept draw, so the CLI's plain and
conditional p-values come from one pass. Counts are taken per stratum;
the plain statistics score the pooled counts, which are the integer sums
of the stratum counts.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_cells, _pair_counts, paired_comparisons
from .data import rank_positions_of
from .errors import ValidationError
from .gibbs import GibbsChain
from .model import (
    MixtureParams,
    NormalizedParams,
    _gumbel_orderings,
    _log_mixture,
    _stage_table,
)

# One depth stratum of the data: its depth m, its size n_m, its observed
# (top-1, pair) counts, and its rows of the shared pattern table when it is
# enumerated (None: its replicate is simulated unit by unit)
_Stratum = namedtuple("_Stratum", "depth size observed rows")


def _marginal_of(params) -> np.ndarray:
    if isinstance(params, NormalizedParams):
        return params.marginal
    if isinstance(params, MixtureParams):
        return params.normalized().marginal
    p = np.asarray(params, dtype=np.float64)
    if p.ndim != 1 or (p <= 0).any() or not np.isfinite(p).all():
        raise ValidationError("expected mixture params or positive marginals")
    return p / p.sum()


def top1_counts(data: Dataset) -> np.ndarray:
    """Number of units placing each item first."""
    return data.counts @ (data.orderings[:, :1] == np.arange(1, data.n_items + 1))


def chi2_top1(r: np.ndarray, N: int, pbar: np.ndarray) -> float:
    """First-place chi-squared statistic from counts r and marginals."""
    E = N * pbar
    return float((((r - E) ** 2) / E).sum())


def chi2_paired(tau: np.ndarray, pbar: np.ndarray) -> float:
    """Paired-preference chi-squared from a decided-comparison matrix."""
    n = tau + tau.T
    Pi = pbar[:, None]
    E = n * (Pi / (Pi + pbar[None, :]))
    cells = (n > 0) & ~np.eye(tau.shape[0], dtype=bool)
    dev = tau - E
    return float(((dev * dev)[cells] / E[cells]).sum())


def top1_discrepancy(data: Dataset, params) -> float:
    """Observed top1 chi-squared of a dataset at given parameters."""
    pbar = _marginal_of(params)
    if pbar.shape[0] != data.n_items:
        raise ValidationError("parameter dimension does not match the data")
    return chi2_top1(top1_counts(data), data.n_units, pbar)


def paired_discrepancy(data: Dataset, params) -> float:
    """Observed paired chi-squared of a dataset at given parameters."""
    pbar = _marginal_of(params)
    if pbar.shape[0] != data.n_items:
        raise ValidationError("parameter dimension does not match the data")
    return chi2_paired(paired_comparisons(data), pbar)


def _replicate_orderings(supports, weights, nranked, rng):
    """Complete orderings from the mixture, truncated to given depths."""
    _, orderings = _gumbel_orderings(nranked.shape[0], supports, weights, rng)
    orderings[np.arange(supports.shape[1])[None, :] >= nranked[:, None]] = 0
    return orderings


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


def _counts(ranks: np.ndarray, weights=None):
    """(top-1 counts, pair counts) over the rows of a rank matrix, unranked
    items coded K+1, row i counted weights[i] times (once by default)."""
    first = ranks == 1
    top1 = first.sum(axis=0) if weights is None else weights @ first
    return top1, _pair_counts(ranks, weights)


def _strata(data: Dataset):
    """The depth strata of a dataset in ascending depth, and the shared
    table of enumerated patterns: every top-m ordering of each enumerated
    depth m, stacked in ascending depth, as a Dataset and its rank matrix
    (None when no stratum is enumerated). A depth-m stratum of n_m units
    is enumerated when K * K!/(K-m)! <= n_m, so that it counts at most
    n_m / K pattern rows where a simulation would count n_m unit rows."""
    K = data.n_items
    ranks = data.to_rank_positions()
    strata, blocks, lo = [], [], 0
    for m in np.unique(data.nranked).tolist():
        units = data.nranked == m
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
        strata.append(_Stratum(m, n, _counts(ranks[units], counts), rows))
    if not blocks:
        return strata, None
    patterns = Dataset.from_orderings(np.concatenate(blocks))
    return strata, (patterns, patterns.to_rank_positions())


def _replicate_counts(strata, table, p: np.ndarray, w: np.ndarray, rng):
    """(top-1 counts, pair counts) of one replicated dataset per stratum at
    normalised supports p and weights w. Within a depth-m stratum the
    replicated top-m orderings are i.i.d. over the top-m patterns, so an
    enumerated stratum draws its pattern counts from Multinomial(n_m, pi);
    any other stratum simulates its own units."""
    if table is not None:
        patterns, ranks = table
        pi = np.exp(_log_mixture(_stage_table(patterns, p)[0], w)[1])
    out = []
    for s in strata:
        if s.rows is None:
            rep = _replicate_orderings(p, w, np.full(s.size, s.depth), rng)
            out.append(_counts(rank_positions_of(rep, p.shape[1] + 1)))
        else:
            q = pi[s.rows]
            out.append(_counts(ranks[s.rows], rng.multinomial(s.size, q / q.sum())))
    return out


def _check_one_chain(strata, table, chain: GibbsChain, rng):
    """(2, 4, n_kept) statistics of one chain, plain then conditional, each
    holding top1 obs/rep and paired obs/rep, from one replicate per draw."""
    obs_r, obs_tau = zip(*(s.observed for s in strata))
    sizes = [s.size for s in strata]
    N = sum(sizes)
    stats = np.zeros((2, 4, chain.n_kept))
    for l, (p, w) in enumerate(zip(chain.supports_3d(), chain.W)):
        p = p / p.sum(axis=1, keepdims=True)
        pbar = w @ p
        rep_r, rep_tau = zip(*_replicate_counts(strata, table, p, w, rng))
        pooled = [(sum(obs_r), sum(rep_r), sum(obs_tau), sum(rep_tau), N)]
        per_stratum = zip(obs_r, rep_r, obs_tau, rep_tau, sizes)
        for k, groups in enumerate((pooled, per_stratum)):
            for r_o, r_x, tau_o, tau_x, n in groups:
                stats[k, :, l] += (
                    chi2_top1(r_o, n, pbar),
                    chi2_top1(r_x, n, pbar),
                    chi2_paired(tau_o, pbar),
                    chi2_paired(tau_x, pbar),
                )
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
