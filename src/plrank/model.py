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

from .data import Dataset, PartialOrdering, _gumbel_sort, validate_ordering_matrix
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
        _check_mixture_arrays(p, w)
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


def _check_mixture_arrays(p: np.ndarray, w: np.ndarray, where: str = "") -> None:
    """Supports p must be positive and finite, weights w nonnegative with
    each row (last axis) summing to 1 within 1e-12; NaN fails both."""
    if not ((0 < p) & (p < np.inf)).all():
        raise ValidationError(f"{where}supports must be positive and finite")
    if (w < 0).any() or not (np.abs(w.sum(axis=-1) - 1.0) <= 1e-12).all():
        raise ValidationError(f"{where}weights must be nonnegative and sum to 1")


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


def _stage_table(data: Dataset, p: np.ndarray):
    """Per-component stage tables for supports p (G x K).

    Returns (comp, rem): comp[s, g] is the log-likelihood of unit s under
    row g, the log supports of the items it ranks less the logs of rem;
    rem[s, t, g] is the support mass under row g left before stage t, and
    1 beyond the depth: with the unranked items in the -1 pad of item_idx,
    one suffix sum of positive terms, exact where total - consumed would
    cancel and independent of the other rows and components.
    """
    idx = data.item_idx.copy()
    idx[~data.stage_mask] = np.nonzero(data.u == 0)[1]
    rem = np.cumsum(p.T[idx[:, ::-1]], axis=1)[:, ::-1]
    rem[~data.stage_mask] = 1.0
    return data.u @ np.log(p).T - np.log(rem).sum(axis=1), rem


def _availability_sums(item_idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per item, the sum of per-stage values x (stages on axis 1, zero
    beyond each row's depth, any trailing shape) over the stages at which
    the item was still available: the prefix sum through the stage that
    chose it, or the full sum for an unranked item. Scattering prefix sums
    of nonnegative terms keeps the accumulation free of cancellation.
    item_idx holds the rows' Dataset.item_idx; through its -1 pad, stages
    beyond a row's depth write to a spare column K, which is dropped.
    """
    cum = np.cumsum(x, axis=1)
    out = np.repeat(cum[:, -1:], x.shape[1] + 1, axis=1)
    idx = item_idx.reshape(item_idx.shape + (1,) * (x.ndim - 2))
    np.put_along_axis(out, idx, cum, axis=1)
    return out[:, :-1]


def component_stage_logliks(data: Dataset, supports: np.ndarray) -> np.ndarray:
    """Log stagewise-choice likelihood of every unit under every support
    row; returns an (N, G) matrix.

    Unit s scores sum_t log p[chosen_t] - sum_t log(rem_t), where rem_t,
    the support mass still available before stage t, is the sum of the
    supports chosen from stage t on plus the supports of the items the
    unit leaves unranked (see _stage_table).
    """
    return _stage_table(data, np.atleast_2d(np.asarray(supports, dtype=np.float64)))[0]


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


def _log_mixture(comp: np.ndarray, weights: np.ndarray):
    """Weighted component scores and per-unit log mixture density.

    comp is (N, G) component log-likelihoods. Returns (scored, per_unit):
    scored = comp + log w (a zero weight scores -inf), per_unit[s] =
    log sum_g exp(scored[s, g]). The sum is taken around the row maximum
    top, counted m times, as top + log(m) + log1p(rest), rest being the
    other terms' sum relative to m exp(top) (Blanchard, Higham & Higham
    2021). An all -inf row gives -inf and a NaN row gives NaN without a
    special case.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scored = comp + np.log(weights)[None, :]
        top = scored.max(axis=1, keepdims=True)
        is_top = scored == top
        m = is_top.sum(axis=1, keepdims=True, dtype=np.float64)
        rest = np.where(is_top, 0.0, np.exp(scored - top))
        rest = rest.sum(axis=1, keepdims=True) / m
        per_unit = np.log1p(rest) + np.log(m) + top
    return scored, per_unit[:, 0]


def _pattern_logliks(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Log mixture density of each distinct row of the dataset."""
    _check_params_data(params, data.n_items)
    comp = component_stage_logliks(data.patterns.rows, params.supports)
    return _log_mixture(comp, params.weights)[1]


def mixture_logliks_per_unit(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Log mixture density of each unit's observed sequence (length N)."""
    return _pattern_logliks(params, data)[data.patterns.index]


def mixture_loglik(params: MixtureParams, data: Dataset) -> float:
    """Observed-data log-likelihood of the mixture on the dataset."""
    return float(data.patterns.counts @ _pattern_logliks(params, data))


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
    G = supports.shape[0]
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    labels = np.argmax(logw[None, :] + rng.gumbel(size=(n, G)), axis=1)
    return labels, _gumbel_sort(np.log(supports)[labels], rng)
