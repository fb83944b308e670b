"""Posterior sampling via conjugate data augmentation.

Each observed sequence is augmented with independent exponential stage
times whose rates are the remaining support mass at each selection stage
(Caron & Doucet 2012); this makes every full conditional standard. Units
with the same ranking share their likelihood terms, so the state holds,
per distinct row d of the data (Dataset.patterns, n_d units), the counts
n_dg of its units in each component. The mass left at a stage depends only
on the set S of items chosen before it, rem_g(S), the sum of p[g, i] over
the items not in S (positive terms, exact at extreme supports). The times
enter the support conditional only through their sums per set and
component (Dataset._prefix_sets), and the n_Sg units of component g that
reach S at a ranked stage sum to one Gamma(n_Sg) / rem_g(S). One sweep
updates, in order:

    weights     | memberships        ~ Dirichlet(alpha + n_Sg, S empty)
    stage times | memberships, supp. ~ Gamma(n_Sg) / rem_g(S) per set
    supports    | times, memberships ~ Gamma
    memberships | weights, supports  ~ Multinomial(n_d, pi_d), times
                                       integrated out

A row holding one unit keeps its counts as a 0-based label: its
membership is a categorical draw, one uniform through the inverse CDF of
pi_d. Its ranked cells count into n_Sg by one bincount over the bins
set * G + label, the repeated rows' cells by one bincount weighted by
their counts.

The membership step is the mixture's one scoring step
(model._mixture_scores, EM's E-step too): pi_d are its responsibilities
and the log-likelihood sums its row densities. The times are redrawn
given the new memberships before anything reads them, so the two form
one exact block move.

With a single component the weight and membership moves are skipped. The
recorded trace stores supports normalized within component (the sampler
itself runs on the unnormalized state), the mixture log-likelihood of the
current parameters after each sweep, and its deviance -2 log L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _labels0, binary_group_ind
from .em import Hyperparams, MapFit, _resolve_prior
from .errors import ValidationError
from .model import _mixture_scores

DEFAULT_N_ITER = 22000
DEFAULT_N_BURN = 2000

# keeps a pathological underflow from planting log(0) in the state
_TINY_SUPPORT = 1e-300


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Kept draws of a sampler run.

    P has one row per kept sweep and G*K columns, component-major
    (p_1_1 ... p_1_K, p_2_1, ...), each component block normalized to
    sum 1. W holds the weight draws, log_lik the observed-data mixture
    log-likelihood at each kept state, deviance its -2 multiple, seed the
    run's int seed if it was given one.
    """

    P: np.ndarray
    W: np.ndarray
    log_lik: np.ndarray
    deviance: np.ndarray
    seed: int | None = None

    @property
    def n_kept(self) -> int:
        return self.P.shape[0]

    @property
    def n_components(self) -> int:
        return self.W.shape[1]

    @property
    def n_items(self) -> int:
        return self.P.shape[1] // self.W.shape[1]

    def supports_3d(self) -> np.ndarray:
        return self.P.reshape(self.n_kept, self.n_components, self.n_items)


def init_from_map(fit: MapFit) -> dict:
    """Chain starting point from a MAP fit: its supports and the one-hot
    encoding of its classification."""
    return {
        "p": fit.supports.copy(),
        "z": binary_group_ind(fit.labels, fit.n_components),
    }


def _support_conditional(avail, member, u, times, hyper: Hyperparams):
    """Gamma (shape, rate) arrays of the support full conditional.

    member (G x rows) counts the units of each component in each row of
    float64 prefix indicators u (rows x K). times (sets x G) sums, per
    prefix set j (avail[j], 1 on the items not yet chosen) and component
    g, the stage times of the units of g at the stages they reach with the
    items of set j chosen.
    """
    return hyper.shape + member @ u, hyper.rate[:, None] + times.T @ avail


def _categorical(prob: np.ndarray, rng) -> np.ndarray:
    """One 0-based category per row of prob (rows x G, each row summing to
    1): one uniform through the inverse CDF of the row, that is the number
    of columns whose cumulative sum is at most the uniform, taken column by
    column as the uniform less the running sum. The last column takes the
    remainder, as in a multinomial."""
    u = rng.random(prob.shape[0])
    out = np.zeros(u.shape, dtype=np.int64)
    for h in range(prob.shape[1] - 1):
        u -= prob[:, h]
        out += u >= 0.0
    return out


def gibbs_run(
    data: Dataset,
    G: int,
    hyper: Hyperparams | None = None,
    init: dict | None = None,
    n_iter: int = DEFAULT_N_ITER,
    n_burn: int = DEFAULT_N_BURN,
    rng=None,
) -> GibbsChain:
    """Sample the mixture posterior.

    Args:
        data: partial ordering dataset.
        G: number of components.
        hyper: prior; defaults to flat (shape 1, rate 0, alpha 1). A zero
            rate is sampled as the limit of small positive rates.
        init: optional dict with "p" (G x K positive supports) and "z"
            (one-hot memberships or 1-based labels, one per dataset row:
            row s puts all counts[s] of its units in its component);
            missing pieces are drawn uniformly. See init_from_map for
            seeding a chain at a MAP fit.
        n_iter: total sweeps; n_burn: sweeps discarded from the front.
        rng: numpy Generator, or an int seed (recorded on the chain).

    Returns:
        GibbsChain with n_iter - n_burn kept sweeps.
    """
    N, K = data.orderings.shape
    hyper = _resolve_prior(hyper, G, K)
    if n_iter < 1 or n_burn < 0 or n_burn >= n_iter:
        raise ValidationError("need n_iter >= 1 and 0 <= n_burn < n_iter")
    seed = rng if isinstance(rng, (int, np.integer)) else None
    if rng is None or seed is not None:
        rng = np.random.default_rng(seed)

    init = init or {}
    if init.get("p") is None:
        p = rng.uniform(0.01, 1.0, (G, K))
    else:
        p = np.array(init["p"], dtype=np.float64)
        with np.errstate(over="ignore"):
            if p.shape != (G, K) or (p <= 0).any() or not np.isfinite(p.sum(axis=1)).all():
                raise ValidationError("init p must be G x K positive supports")
    z = init.get("z")
    if z is None:
        z = rng.integers(1, G + 1, size=N)
    z = np.asarray(z)
    # g0: each dataset row's 0-based component
    if z.ndim == 2:
        onehot = np.isin(z, (0, 1)).all() and (z.sum(axis=1) == 1).all()
        if z.shape != (N, G) or not onehot:
            raise ValidationError("init z must be one-hot N x G")
        g0 = np.argmax(z, axis=1)
    elif z.shape == (N,):
        g0 = _labels0(z, G)
    else:
        raise ValidationError("init z labels must have length N")
    w = np.full(G, 1.0 / G)

    # the membership state, per distinct row: a one-unit row's component as a
    # label, a repeated row's count of units in each component
    rows, index = data.patterns
    counts = rows.counts
    single, many = np.flatnonzero(counts == 1), np.flatnonzero(counts > 1)
    n_dg = np.bincount(index * G + g0, weights=data.counts, minlength=counts.size * G)
    n_dg = n_dg.astype(np.int64).reshape(-1, G)
    label = np.argmax(n_dg[single], axis=1)
    n_dg, n_many = n_dg[many], counts[many]

    # the likelihood reads only the normalized supports and the weights, whose
    # posterior is the same at every positive rate (a Gamma row normalizes to
    # a Dirichlet independent of its scale): a zero rate is sampled at rate 1
    rate = np.where(hyper.rate > 0, hyper.rate, 1.0)
    hyper = Hyperparams(hyper.shape, rate, hyper.alpha)

    # the ranked cells of the one-unit rows, then of the repeated rows, row
    # by row: their prefix sets as bins set * G + component of n_Sg; and
    # the rows' units in each component, in that order, with their u
    sets = rows._prefix_sets
    cell = sets.cell[:, single].T
    s_key, s_depth = cell[cell >= 0] * G, rows.nranked[single]
    cell = sets.cell[:, many].T
    m_key = ((cell[cell >= 0] * G)[:, None] + np.arange(G)).ravel()
    m_depth = rows.nranked[many]
    bins, eye = sets.avail.shape[0] * G, np.eye(G)
    member = np.empty((counts.size, G))
    u = rows._stages.u[np.concatenate((single, many))]
    kept = []
    for sweep in range(1, n_iter + 1):
        if sweep == 1 or G > 1:  # the memberships, which G = 1 never moves
            n_sg = np.bincount(m_key, np.repeat(n_dg, m_depth, axis=0).ravel(), bins)
            n_sg += np.bincount(s_key + np.repeat(label, s_depth), minlength=bins)
            n_sg = n_sg.reshape(-1, G)
            np.take(eye, label, axis=0, out=member[: single.size])
            member[single.size :] = n_dg

        # weights | memberships: every unit reaches the empty set, set 0
        if G > 1:
            w = rng.dirichlet(hyper.alpha + n_sg[0])

        # stage times | memberships, supports, summed per set and component
        times = rng.standard_gamma(n_sg) / (sets.avail @ p.T)

        # supports | times, memberships
        shape, rate = _support_conditional(sets.avail, member.T, u, times, hyper)
        p = np.maximum(rng.standard_gamma(shape) / rate, _TINY_SUPPORT)

        # memberships | weights, supports, and the log-likelihood
        zhat, per_row, _ = _mixture_scores(rows, p, w)
        ll = float(counts @ per_row)
        if G > 1:
            label = _categorical(np.take(zhat, single, axis=0), rng)
            n_dg = rng.multinomial(n_many, np.take(zhat, many, axis=0))

        if sweep > n_burn:
            kept.append(((p / p.sum(axis=1, keepdims=True)).ravel(), w, ll))

    P, W, log_lik = map(np.array, zip(*kept))
    return GibbsChain(
        P=P,
        W=W,
        log_lik=log_lik,
        deviance=-2.0 * log_lik,
        seed=int(seed) if seed is not None else None,
    )
