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
    N, K = data.orderings.shape
    G = chain.n_components
    if chain.n_items != K:
        raise ValidationError("chain item count does not match the data")
    P3 = chain.supports_3d()
    L = chain.n_kept
    # observed side: counts are fixed, expectations move with each draw
    obs_ranks = data.to_rank_positions()
    obs_r = [np.bincount(data.item_idx[idx, 0], minlength=K) for idx in strata]
    obs_tau = [_pair_counts(obs_ranks[idx]) for idx in strata]
    sizes = [idx.shape[0] for idx in strata]

    t_obs = np.empty(L)
    t_rep = np.empty(L)
    q_obs = np.empty(L)
    q_rep = np.empty(L)
    for l in range(L):
        p = P3[l]
        p = p / p.sum(axis=1, keepdims=True)
        w = chain.W[l]
        pbar = w @ p
        rep = _replicate_orderings(p, w, data.nranked, rng)
        rep_ranks = rank_positions_of(rep, K + 1)
        a = b = c = d = 0.0
        for idx, r_o, tau_o, n_m in zip(strata, obs_r, obs_tau, sizes):
            a += chi2_top1(r_o, n_m, pbar)
            c += chi2_paired(tau_o, pbar)
            r_rep = np.bincount(rep[idx, 0] - 1, minlength=K)
            tau_rep = _pair_counts(rep_ranks[idx])
            b += chi2_top1(r_rep, n_m, pbar)
            d += chi2_paired(tau_rep, pbar)
        t_obs[l], t_rep[l] = a, b
        q_obs[l], q_rep[l] = c, d
    p_top1 = float((t_rep >= t_obs).mean())
    p_paired = float((q_rep >= q_obs).mean())
    return p_top1, p_paired, t_obs, t_rep, q_obs, q_rep


def _run_checks(data: Dataset, chains, rng, conditional: bool) -> PpcheckReport:
    if isinstance(chains, GibbsChain):
        chains = [chains]
    chains = list(chains)
    if not chains:
        raise ValidationError("need at least one chain")
    if rng is None:
        rng = np.random.default_rng()
    if conditional:
        strata = [
            np.nonzero(data.nranked == m)[0] for m in np.unique(data.nranked)
        ]
    else:
        strata = [np.arange(data.n_units)]
    gv, p1, p2, to_, tr_, qo_, qr_ = [], [], [], [], [], [], []
    for chain in chains:
        a, b, c, d, e, f = _check_one_chain(data, chain, rng, strata)
        gv.append(chain.n_components)
        p1.append(a)
        p2.append(b)
        to_.append(c)
        tr_.append(d)
        qo_.append(e)
        qr_.append(f)
    return PpcheckReport(
        g_values=np.asarray(gv, dtype=np.int64),
        p_top1=np.asarray(p1),
        p_paired=np.asarray(p2),
        top1_obs=to_,
        top1_rep=tr_,
        paired_obs=qo_,
        paired_rep=qr_,
        conditional=conditional,
    )


def ppcheck(data: Dataset, chains, rng=None) -> PpcheckReport:
    """Posterior predictive p-values for the top1 and paired discrepancies.

    Args:
        data: observed dataset.
        chains: a GibbsChain or a sequence of them (one per candidate G).
        rng: numpy Generator driving the replicated datasets.
    """
    return _run_checks(data, chains, rng, conditional=False)


def ppcheck_cond(data: Dataset, chains, rng=None) -> PpcheckReport:
    """Depth-stratified variant: discrepancies are computed within each
    observed censoring depth and summed before comparison."""
    return _run_checks(data, chains, rng, conditional=True)
