"""Stagewise choice model, mixture likelihood, and forward sampling.

A support vector p > 0 drives sequential choice without replacement: at
each stage the next item is picked with probability proportional to its
support among the items still available. A G-component mixture draws the
support vector per unit according to weights w. Likelihood code runs on
unnormalized supports (scaling a component's row leaves every stagewise
probability unchanged); normalization happens only when reporting.

Forward sampling draws every ordering (sample_mixture, make_complete, the
predictive checks' replicates) by one exponential race, data._race, which
has the law of sequential choice.

The engine's per-row tables are laid out so that every numpy pass runs
along the long row axis. A dataset's stage index (Dataset._stages, built
once) holds the item taken at each stage, stage-major, with the unranked
items filled into the pad. The tables the engine scores hold their rows
in descending depth (Dataset.patterns, the predictive checks' pattern
table), so that the cells ranked at stage t are a leading slice of the
rows. The sampler's stage times need only the set of items chosen before
each ranked cell, which a second index (Dataset._prefix_sets) numbers
once. _stage_table gathers the supports through the index once and
returns the remaining masses rem[t, d, g] stage-major (K x D x
G), taking logs over the ranked slices only; _availability_sums gathers
prefix sums back by item; _log_mixture reduces over a contiguous leading
component axis and hands back C-contiguous (D, G) scores.
_mixture_scores, the one scoring step built on them, is EM's E-step, the
sampler's membership update and the likelihood; the predictive checks
take their pattern probabilities from the same _stage_table and
_log_mixture pass, for a block of draws at once (assessment). pl_prob is
that likelihood for one row and one component, so it takes the
MixtureParams checks; the likelihood and em.em_step check params against
the data by one rule, _check_params_data.

Results are fixed bit for bit, not just to rounding: the stage sums run in
stage order and the component sums in component order, whatever the
layout. Memory order matters as well, since numpy may add a reduction's
or a matmul's terms in another order when an operand comes in another
order (F-ordered responsibilities change the M-step's sum and the last
digits of every fit); tables handed between kernels stay C-contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _race, validate_ordering_matrix
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
        if G < 1 or K < 1:
            raise ValidationError(f"need G >= 1 and K >= 1, not G={G}, K={K}")
        return cls(np.full((G, K), 1.0 / K), np.full(G, 1.0 / G))

    def normalized(self) -> "NormalizedParams":
        rows = self.supports / self.supports.sum(axis=1, keepdims=True)
        marginal = self.weights @ rows
        return NormalizedParams(rows, self.weights.copy(), marginal)


def _check_mixture_arrays(p: np.ndarray, w: np.ndarray, where: str = "") -> None:
    """Supports p must be positive and finite with each row's (last axis)
    sum finite, the total mass of its stage table; weights w nonnegative
    with each row summing to 1 within 1e-12; NaN fails both."""
    if not ((0 < p) & (p < np.inf)).all():
        raise ValidationError(f"{where}supports must be positive and finite")
    with np.errstate(over="ignore"):
        if not (p.sum(axis=-1) < np.inf).all():
            raise ValidationError(f"{where}each support row must have a finite sum")
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
    """Per-component stage tables for supports p (G x K) on rows of
    descending depth (the engine's order; see Dataset.patterns).

    Returns (comp, rem): comp[s, g] is the log-likelihood of row s under
    support row g, the log supports of the items it ranks less the logs
    of rem over its ranked stages; rem[t, s, g], stage-major, is the
    support mass under row g left before stage t. With the unranked items
    in the pad of the stage index (Dataset._stages), rem is one suffix sum
    of positive terms, exact where total - consumed would cancel and
    independent of the other rows and components. Beyond a row's depth
    rem holds the suffix sums over its pad, which no stage reads: the
    logs run over the ranked slice [:ends[t]] of each stage only.
    """
    stages = data._stages
    rem = np.take(p.T, stages.items, axis=0)
    # one add per stage over a contiguous slice: np.add.accumulate along
    # axis 0 gives the same bits but ran 2-3x slower at the ballot shape
    # (5 x 205 x 3) and 6-12x at c9 (6 x 720 x 3) and wide (10 x 5031 x 4)
    for t in range(rem.shape[0] - 2, -1, -1):
        np.add(rem[t], rem[t + 1], out=rem[t])
    log_rem = np.log(rem[0])
    term = np.empty_like(log_rem)
    for t, e in enumerate(stages.ends[1:], 1):
        log_rem[:e] += np.log(rem[t, :e], out=term[:e])
    return np.subtract(stages.u @ np.log(p).T, log_rem, out=log_rem), rem


def _availability_sums(at: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row and item, the sum of per-stage values x (stages on axis 0,
    rows on axis 1, zero beyond each row's depth, any trailing shape) over
    the stages at which the item was still available: the prefix sum
    through the stage that chose it, or the full sum for an unranked item.
    Prefix sums of nonnegative terms keep the accumulation free of
    cancellation; x is overwritten with them. at holds the rows'
    Dataset._stages.at: an unranked item sits in the pad, where the
    prefix sum is already the full sum. Returns (rows, K, trailing...).
    """
    # stage by stage as in _stage_table: np.cumsum gives the same bits, slower
    for t in range(1, x.shape[0]):
        np.add(x[t - 1], x[t], out=x[t])
    return np.take(x.reshape((-1,) + x.shape[2:]), at, axis=0)


def _log_mixture(comp: np.ndarray, weights: np.ndarray):
    """Weighted component scores and per-unit log mixture density.

    comp is (N, G) component log-likelihoods. Returns (scored, per_unit):
    scored = comp + log w, C-contiguous (a zero weight scores -inf),
    per_unit[s] = log sum_g exp(scored[s, g]). The sum is taken around the
    row maximum top, counted m times, as top + log(m) + log1p(rest), rest
    being the other terms' sum relative to m exp(top) (Blanchard, Higham &
    Higham 2021). Every reduction runs over the leading axis of a G x N
    copy, in component order. An all -inf row gives -inf and a NaN row
    gives NaN without a special case.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scored = np.ascontiguousarray(comp + np.log(weights))
        terms = scored.T.copy()
        top = terms.max(axis=0)
        is_top = terms == top
        m = is_top.sum(axis=0, dtype=np.float64)
        np.exp(np.subtract(terms, top, out=terms), out=terms)
        terms[is_top] = 0.0
        per_unit = np.log1p(terms.sum(axis=0) / m) + np.log(m) + top
    return scored, per_unit


def _mixture_scores(rows: Dataset, p: np.ndarray, w: np.ndarray):
    """The mixture's scoring step on the rows of a dataset, at supports p
    (G x K) and weights w (G,): EM's E-step, the sampler's membership
    update and every mixture density. Returns (resp, per_row, rem): the
    responsibilities (D x G, each row's component posterior), the log
    mixture density of each row (D,) and the stage-major remaining-mass
    table rem (K x D x G) of _stage_table. A row of zero density gets NaN
    responsibilities; callers that need them check per_row."""
    comp, rem = _stage_table(rows, p)
    scored, per_row = _log_mixture(comp, w)
    with np.errstate(invalid="ignore"):
        return np.exp(scored - per_row[:, None]), per_row, rem


def _pattern_logliks(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Log mixture density of each distinct row of the dataset."""
    _check_params_data(params, data.n_items)
    return _mixture_scores(data.patterns.rows, params.supports, params.weights)[1]


def mixture_logliks_per_unit(params: MixtureParams, data: Dataset) -> np.ndarray:
    """Log mixture density of each dataset row's sequence, one entry per
    row: row s stands for counts[s] units, each with this density."""
    return _pattern_logliks(params, data)[data.patterns.index]


def mixture_loglik(params: MixtureParams, data: Dataset) -> float:
    """Observed-data log-likelihood of the mixture on the dataset's units."""
    return float(data.patterns.rows.counts @ _pattern_logliks(params, data))


def pl_prob(ordering, supports) -> float:
    """Probability of one partial ordering (a 1-D row or a one-row matrix;
    more rows are refused) under a single support vector: the
    one-component mixture likelihood of the one-row dataset."""
    mat = validate_ordering_matrix(ordering)
    if mat.shape[0] != 1:
        raise ValidationError(f"pl_prob scores one ordering, not {mat.shape[0]} rows")
    data = Dataset.from_orderings(mat)
    return float(np.exp(mixture_loglik(MixtureParams(supports, [1.0]), data)))


def sample_mixture(n: int, K: int, G: int, params: MixtureParams, rng=None):
    """Draw n complete orderings from a G-component mixture.

    Component labels are drawn from the weights, then each unit's full
    ordering comes from sequential sampling without replacement under its
    component's supports (implemented as an exponential race, which has
    the same law; see _mixture_race).

    Returns (labels, dataset): 1-based component labels of length n and a
    Dataset of n complete orderings.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if params.n_components != G or params.n_items != K:
        raise ValidationError("params shape must match (G, K)")
    if rng is None:
        rng = np.random.default_rng()
    labels, items = _mixture_race(n, params.supports, params.weights, rng)
    return labels + 1, Dataset.from_orderings(items + 1)


def _mixture_race(n: int, supports: np.ndarray, weights: np.ndarray, rng):
    """0-based component labels and the 0-based items (n x K) of n complete
    orderings from the mixture (supports G x K, weights G). A label is one
    uniform through the inverse CDF of the weights, so a zero weight is
    never drawn; the ordering is the exponential race (_race) at the
    label's supports."""
    cdf = np.cumsum(weights)
    labels = np.searchsorted(cdf / cdf[-1], rng.random(n), side="right")
    return labels, _race(supports, labels, rng)
