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
each unit's observed depth: complete orderings are sampled from the
mixture at the draw and truncated to the unit's n_s. The conditional
variant stratifies units by depth, sums the per-stratum discrepancies,
and compares those totals.

Both variants share one replicate per kept draw, so the CLI's plain and
conditional p-values come from one simulation pass. Counts are taken per
stratum; the plain statistics score the pooled counts, which are the
integer sums of the stratum counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _pair_counts, paired_comparisons, rank_positions_of
from .errors import ValidationError
from .gibbs import GibbsChain
from .model import MixtureParams, NormalizedParams, _gumbel_orderings


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
    return np.bincount(data.item_idx[:, 0], minlength=data.n_items)


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


def _check_one_chain(data: Dataset, chain: GibbsChain, rng, strata):
    """(2, 4, n_kept) statistics of one chain, plain then conditional, each
    holding top1 obs/rep and paired obs/rep, from one replicate per draw."""
    N, K = data.orderings.shape
    if chain.n_items != K:
        raise ValidationError("chain item count does not match the data")
    # observed side: counts are fixed, expectations move with each draw
    obs_ranks = data.to_rank_positions()
    obs_r = [np.bincount(data.item_idx[idx, 0], minlength=K) for idx in strata]
    obs_tau = [_pair_counts(obs_ranks[idx]) for idx in strata]
    sizes = [idx.shape[0] for idx in strata]

    stats = np.zeros((2, 4, chain.n_kept))
    for l, (p, w) in enumerate(zip(chain.supports_3d(), chain.W)):
        p = p / p.sum(axis=1, keepdims=True)
        pbar = w @ p
        rep = _replicate_orderings(p, w, data.nranked, rng)
        rep_ranks = rank_positions_of(rep, K + 1)
        rep_r = [np.bincount(rep[idx, 0] - 1, minlength=K) for idx in strata]
        rep_tau = [_pair_counts(rep_ranks[idx]) for idx in strata]
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
    """Plain and conditional reports from one simulation pass."""
    if isinstance(chains, GibbsChain):
        chains = [chains]
    chains = list(chains)
    if not chains:
        raise ValidationError("need at least one chain")
    if rng is None:
        rng = np.random.default_rng()
    strata = [np.nonzero(data.nranked == m)[0] for m in np.unique(data.nranked)]
    stats = [_check_one_chain(data, chain, rng, strata) for chain in chains]
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
