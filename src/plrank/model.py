"""Stagewise choice model, mixture likelihood, and forward sampling.

A support vector p > 0 drives sequential choice without replacement: at
each stage the next item is picked with probability proportional to its
support among the items still available. A G-component mixture draws the
support vector per unit according to weights w. Likelihood code runs on
unnormalized supports (scaling a component's row leaves every stagewise
probability unchanged); normalization happens only when reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data import Dataset, PartialOrdering, validate_ordering_matrix
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Component supports (G x K, positive) and weights (G, simplex)."""

    supports: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.supports, dtype=np.float64)
        if p.ndim == 1:
            p = p[None, :]
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if p.ndim != 2 or w.ndim != 1 or w.shape[0] != p.shape[0]:
            raise ValidationError("supports must be G x K with G weights")
        if not np.isfinite(p).all() or (p <= 0).any():
            raise ValidationError("supports must be positive and finite")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError("weights must be nonnegative and sum to 1")
        p = p.copy()
        w = w.copy()
        p.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "supports", p)
        object.__setattr__(self, "weights", w)

    @property
    def n_components(self) -> int:
        return self.supports.shape[0]

    @property
    def n_items(self) -> int:
        return self.supports.shape[1]

    @classmethod
    def uniform(cls, G: int, K: int) -> "MixtureParams":
        return cls(np.full((G, K), 1.0 / K), np.full(G, 1.0 / G))

    def normalized(self) -> "NormalizedParams":
        rows = self.supports / self.supports.sum(axis=1, keepdims=True)
        marginal = self.weights @ rows
        return NormalizedParams(rows, self.weights.copy(), marginal)


@dataclass(frozen=True, eq=False)
class NormalizedParams:
    """Presentation form: support rows on the simplex plus the
    weight-averaged marginal supports."""

    supports: np.ndarray
    weights: np.ndarray
    marginal: np.ndarray


def _check_params_data(params: MixtureParams, K: int) -> None:
    if params.n_items != K:
        raise ValidationError(
            f"params cover {params.n_items} items but data has {K}"
        )


def _remaining_mass(sel: np.ndarray, unranked: np.ndarray) -> np.ndarray:
    """Support mass still available before each stage.

    sel holds the support chosen at each stage (axis 1), zero beyond the
    unit's depth, in any trailing shape: (N, K) for one support row per
    unit, (N, K, G) for every component. unranked, shaped like sel without
    the stage axis, is the summed support of the items the unit leaves
    unranked. The result is the suffix sum of sel plus that mass: a sum
    of positive terms, exact to rounding at late stages where the running
    difference total - consumed cancels. Beyond a unit's depth it holds
    the unranked mass.
    """
    rem = np.cumsum(sel[:, ::-1], axis=1)[:, ::-1]
    rem += unranked[:, None]
    return rem


def _stage_table(data: Dataset, p: np.ndarray):
    """Per-component stage tables for supports p (G x K).

    Returns (log_num, rem): log_num[s, g] sums log p[g, i] over the items
    unit s ranks, and rem[s, t, g] is the remaining mass before stage t
    under row g, set to 1 beyond the unit's depth so that its log adds 0.
    """
    mask = data.stage_mask
    sel = p.T[np.where(mask, data.item_idx, 0)]
    sel[~mask] = 0.0
    rem = _remaining_mass(sel, (1 - data.u) @ p.T)
    rem[~mask] = 1.0
    return data.u @ np.log(p).T, rem


def _table_logliks(log_num: np.ndarray, rem: np.ndarray) -> np.ndarray:
    """(N, G) component log-likelihoods from a _stage_table."""
    return log_num - np.log(rem).sum(axis=1)


def _availability_sums(data: Dataset, x: np.ndarray) -> np.ndarray:
    """Per item, the sum of per-stage values x (stages on axis 1, zero
    beyond each unit's depth, any trailing shape) over the stages at which
    the item was still available: the prefix sum through the stage that
    chose it, or the full sum for an unranked item. Scattering prefix sums
    of nonnegative terms keeps the accumulation free of cancellation.
    """
    N, K = data.orderings.shape
    cum = np.cumsum(x, axis=1)
    out = np.repeat(cum[np.arange(N), data.nranked - 1][:, None], K, axis=1)
    rows, cols = np.nonzero(data.stage_mask)
    out[rows, data.item_idx[rows, cols]] = cum[rows, cols]
    return out


def component_stage_logliks(data: Dataset, supports: np.ndarray) -> np.ndarray:
    """Log stagewise-choice likelihood of every unit under every support
    row; returns an (N, G) matrix.

    Unit s scores sum_t log p[chosen_t] - sum_t log(rem_t), where rem_t,
    the support mass still available before stage t, is the sum of the
    supports chosen from stage t on plus the supports of the items the
    unit leaves unranked (see _remaining_mass).
    """
    p = np.atleast_2d(np.asarray(supports, dtype=np.float64))
    return _table_logliks(*_stage_table(data, p))


def _one_row(ordering, supports):
    """Validated ordering row and length-K support vector for one unit."""
    if isinstance(ordering, PartialOrdering):
        row = ordering.entries
    else:
        row = validate_ordering_matrix(ordering)[0]
    p = np.asarray(supports, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] != row.shape[0]:
        raise ValidationError("supports must be a length-K vector")
    if not np.isfinite(p).all() or (p <= 0).any():
        raise ValidationError("supports must be positive and finite")
    return row, p


def pl_prob(ordering, supports) -> float:
    """Probability of one partial ordering under a single support vector."""
    row, p = _one_row(ordering, supports)
    data = Dataset.from_orderings(row[None, :])
    return float(np.exp(component_stage_logliks(data, p[None, :])[0, 0]))


def mixture_logliks_per_unit(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Log mixture density of each unit's observed sequence (length N)."""
    _check_params_data(params, data.n_items)
    comp = component_stage_logliks(data, params.supports)
    if params.n_components == 1:
        return comp[:, 0]
    with np.errstate(divide="ignore"):
        logw = np.log(params.weights)
    return logsumexp(comp + logw[None, :], axis=1)


def mixture_loglik(params: MixtureParams, data: Dataset) -> float:
    """Observed-data log-likelihood of the mixture on the dataset."""
    return float(mixture_logliks_per_unit(params, data).sum())


def sample_mixture(n: int, K: int, G: int, params: MixtureParams, rng=None):
    """Draw n complete orderings from a G-component mixture.

    Component labels are drawn from the weights, then each unit's full
    ordering comes from sequential sampling without replacement under its
    component's supports (implemented by sorting Gumbel-perturbed log
    supports, which has the same law).

    Returns (labels, dataset): 1-based component labels of length n and a
    Dataset of n complete orderings.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if params.n_components != G or params.n_items != K:
        raise ValidationError("params shape must match (G, K)")
    if rng is None:
        rng = np.random.default_rng()
    labels, orderings = _gumbel_orderings(n, params.supports, params.weights, rng)
    return labels + 1, Dataset.from_orderings(orderings)


def _gumbel_orderings(n: int, supports: np.ndarray, weights: np.ndarray, rng):
    """0-based component labels and the raw 1-based matrix of n complete
    orderings from the mixture (supports G x K, weights G), by sorting
    Gumbel-perturbed logs."""
    G, K = supports.shape
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    labels = np.argmax(logw[None, :] + rng.gumbel(size=(n, G)), axis=1)
    key = np.log(supports)[labels] + rng.gumbel(size=(n, K))
    return labels, np.argsort(-key, axis=1, kind="stable") + 1
