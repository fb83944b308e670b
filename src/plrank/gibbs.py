"""Posterior sampling via conjugate data augmentation.

Each observed sequence is augmented with independent exponential stage
times whose rates are the remaining support mass at each selection stage
(Caron & Doucet 2012); this makes every full conditional standard. Units
with the same ranking share their likelihood terms, so the state holds,
per distinct row d of the data (Dataset.patterns, n_d units), the counts
n_dg of its units in each component. One sweep updates, in order:

    weights     | memberships        ~ Dirichlet(alpha + sum_d n_dg)
    stage times | memberships, supp. ~ Gamma(n_dg) / rem[t, d, g] per cell
    supports    | times, memberships ~ Gamma
    memberships | weights, supports  ~ Multinomial(n_d, pi_d), times
                                       integrated out

rem is the membership step's stage table (model._stage_table); pi_d and
the log-likelihood share its mixture scores. The times are redrawn given
the new memberships before anything reads them, so the two form one exact
block move; with every count 1 the draws are the per-unit ones.

With a single component the weight and membership moves are skipped. The
recorded trace stores supports normalized within component (the sampler
itself runs on the unnormalized state), the mixture log-likelihood of the
current parameters after each sweep, and its deviance -2 log L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, binary_group_ind
from .em import Hyperparams, MapFit
from .errors import ValidationError
from .model import _availability_sums, _log_mixture, _one_row, _stage_table

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
    log-likelihood at each kept state, deviance its -2 multiple.
    """

    P: np.ndarray
    W: np.ndarray
    log_lik: np.ndarray
    deviance: np.ndarray
    n_iter: int
    n_burn: int
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


def stage_rates(ordering_row, supports) -> np.ndarray:
    """Exponential rates of the latent stage times for one unit: the
    remaining support mass before each of its n_s selections."""
    row, p = _one_row(ordering_row, supports)
    rem = _stage_table(Dataset.from_orderings(row[None, :]), p[None, :])[1]
    return rem[row != 0, 0, 0]


def init_from_map(fit: MapFit) -> dict:
    """Chain starting point from a MAP fit: its supports and the one-hot
    encoding of its classification."""
    return {
        "p": fit.supports.copy(),
        "z": binary_group_ind(fit.labels, fit.n_components),
    }


def _support_conditional(cells: Dataset, g, n, y, hyper: Hyperparams):
    """Gamma (shape, rate) arrays of the support full conditional.

    Column r of y (K x cells, stage-major) sums the stage times, zero
    beyond the depth, of the n[r] units that rank as row r of cells and
    belong to component g[r] (0-based); a dataset of units with n = 1
    gives the per-unit form. y is overwritten.
    """
    member = np.eye(hyper.n_components)[g].T
    shape = hyper.shape + member @ (n[:, None] * cells.u)
    avail = _availability_sums(cells._stages.pos, y)
    return shape, hyper.rate[:, None] + member @ avail


def gibbs_run(
    data: Dataset,
    G: int,
    hyper: Hyperparams | None = None,
    init: dict | None = None,
    n_iter: int = DEFAULT_N_ITER,
    n_burn: int = DEFAULT_N_BURN,
    rng=None,
    K: int | None = None,
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
        K: optional cross-check on the number of items.

    Returns:
        GibbsChain with n_iter - n_burn kept sweeps.
    """
    if G < 1:
        raise ValidationError("G must be >= 1")
    if K is not None and K != data.n_items:
        raise ValidationError(f"data has {data.n_items} items, not {K}")
    if n_iter < 1 or n_burn < 0 or n_burn >= n_iter:
        raise ValidationError("need n_iter >= 1 and 0 <= n_burn < n_iter")
    N, K = data.orderings.shape
    if hyper is None:
        hyper = Hyperparams.flat(G, K)
    if hyper.n_components != G or hyper.shape.shape[1] != K:
        raise ValidationError("hyper dimensions must match (G, K)")
    seed = rng if isinstance(rng, (int, np.integer)) else None
    if rng is None or seed is not None:
        rng = np.random.default_rng(seed)

    init = init or {}
    if init.get("p") is None:
        p = rng.uniform(0.01, 1.0, (G, K))
    else:
        p = np.array(init["p"], dtype=np.float64)
        if p.shape != (G, K) or (p <= 0).any() or not np.isfinite(p).all():
            raise ValidationError("init p must be G x K positive supports")
    z = init.get("z")
    if z is None:
        z = rng.integers(1, G + 1, size=N)
    z = np.asarray(z)
    if z.ndim == 2:
        onehot = np.isin(z, (0, 1)).all() and (z.sum(axis=1) == 1).all()
        if z.shape != (N, G) or not onehot:
            raise ValidationError("init z must be one-hot N x G")
        z = np.argmax(z, axis=1) + 1
    if z.shape != (N,):
        raise ValidationError("init z labels must have length N")
    w = np.full(G, 1.0 / G)

    # the membership state: per distinct row, its units' count per component
    rows, index = data.patterns
    counts = rows.counts
    g0 = np.argmax(binary_group_ind(z, G), axis=1)
    n_dg = np.bincount(index * G + g0, weights=data.counts, minlength=counts.size * G)
    n_dg = n_dg.astype(np.int64).reshape(-1, G)

    # the likelihood reads only the normalized supports and the weights, whose
    # posterior is the same at every positive rate (a Gamma row normalizes to
    # a Dirichlet independent of its scale): a zero rate is sampled at rate 1
    rate = np.where(hyper.rate > 0, hyper.rate, 1.0)
    hyper = Hyperparams(hyper.shape, rate, hyper.alpha)

    # stage-time cells: each row's top min(n_d, G) components by count hold
    # all its units, cell r ranking as row d[r]; a fixed cell count keeps
    # the arrays one size, so the heap does not fragment and peak memory
    # stays flat over a long chain, and the cells' index is built once
    top = np.arange(G) < np.minimum(counts, G)[:, None]
    d = np.nonzero(top)[0]
    cells = Dataset.from_orderings(rows.orderings[d])
    ranked = cells.orderings != 0
    rem = _stage_table(rows, p)[1]  # rebuilt by each membership step
    kept = []
    for sweep in range(1, n_iter + 1):
        # weights | memberships
        if G > 1:
            w = rng.dirichlet(hyper.alpha + n_dg.sum(axis=0))

        # stage times | memberships, supports, summed per cell (shape 0: 0)
        g = np.argsort(-n_dg, axis=1, kind="stable")[top]
        n = n_dg[d, g]
        # Gamma draws come cell-major, the cells' rates rem[:, d, g]
        # stage-major; y takes the rates' layout
        y = rem[:, d, g]
        np.divide(rng.standard_gamma(n[:, None] * ranked).T, y, out=y)

        # supports | times, memberships
        shape, rate = _support_conditional(cells, g, n, y, hyper)
        p = np.maximum(rng.standard_gamma(shape) / rate, _TINY_SUPPORT)

        # memberships | weights, supports, and the log-likelihood
        comp, rem = _stage_table(rows, p)
        scored, per_row = _log_mixture(comp, w)
        ll = float(counts @ per_row)
        if G > 1:
            n_dg = rng.multinomial(counts, np.exp(scored - per_row[:, None]))

        if sweep > n_burn:
            kept.append(((p / p.sum(axis=1, keepdims=True)).ravel(), w, ll))

    P, W, log_lik = map(np.array, zip(*kept))
    return GibbsChain(
        P=P,
        W=W,
        log_lik=log_lik,
        deviance=-2.0 * log_lik,
        n_iter=n_iter,
        n_burn=n_burn,
        seed=int(seed) if seed is not None else None,
    )
