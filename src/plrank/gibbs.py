"""Posterior sampling via conjugate data augmentation.

Each observed sequence is augmented with independent exponential stage
times whose rates are the remaining support mass at each selection stage;
this makes every full conditional standard. One sweep updates, in order:

    weights     | memberships           ~ Dirichlet
    stage times | memberships, supports ~ Exponential
    supports    | times, memberships    ~ Gamma
    memberships | everything else       ~ categorical per unit

With a single component the weight and membership moves are skipped. The
recorded trace stores supports normalized within component (the sampler
itself runs on the unnormalized state), the mixture log-likelihood of the
current parameters after each sweep, and its deviance -2 log L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data import Dataset, binary_group_ind
from .em import Hyperparams, MapFit
from .errors import NumericalError, ValidationError
from .model import (
    _availability_sums,
    _one_row,
    _remaining_mass,
    _stage_table,
    _table_logliks,
)

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
    n_s = int((row != 0).sum())
    return _unit_rates(Dataset.from_orderings(row[None, :]), p[None, :])[0, :n_s]


def _unit_rates(data: Dataset, p_unit: np.ndarray) -> np.ndarray:
    """Stage-time rates of every unit under its own support row.

    p_unit is N x K, one support row per unit; the result is N x K, the
    remaining mass before each stage, with the unranked mass beyond a
    unit's depth.
    """
    mask = data.stage_mask
    sel = np.take_along_axis(p_unit, np.where(mask, data.item_idx, 0), axis=1)
    sel[~mask] = 0.0
    return _remaining_mass(sel, ((1 - data.u) * p_unit).sum(axis=1))


def init_from_map(fit: MapFit) -> dict:
    """Chain starting point from a MAP fit: its supports and the one-hot
    encoding of its classification."""
    return {
        "p": fit.supports.copy(),
        "z": binary_group_ind(fit.labels, fit.n_components),
    }


def _support_conditional(data: Dataset, z, y: np.ndarray, hyper: Hyperparams):
    """Gamma (shape, rate) arrays of the support full conditional.

    z may be one-hot (N, G) or 1-based labels (N,); y holds the latent
    stage times, zero beyond each unit's depth.
    """
    z = np.asarray(z)
    if z.ndim == 2:
        g_of_s = np.argmax(z, axis=1)
    else:
        g_of_s = np.asarray(z, dtype=np.int64) - 1
    G = hyper.n_components
    K = data.n_items
    cell = (g_of_s[:, None] * K + np.arange(K)[None, :]).ravel()

    def by_cell(v):
        return np.bincount(cell, weights=v.ravel(), minlength=G * K).reshape(G, K)

    shape = hyper.shape + by_cell(data.u)
    rate = hyper.rate[:, None] + by_cell(_availability_sums(data, y))
    return shape, rate


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
        hyper: prior; defaults to flat (shape 1, rate 0, alpha 1).
        init: optional dict with "p" (G x K positive supports) and "z"
            (N x G one-hot memberships or length-N 1-based labels); missing
            pieces are drawn uniformly. See init_from_map for seeding a
            chain at a MAP fit.
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

    p = None
    g_of_s = None
    if init is not None:
        if "p" in init and init["p"] is not None:
            p = np.array(init["p"], dtype=np.float64)
            if p.shape != (G, K) or (p <= 0).any() or not np.isfinite(p).all():
                raise ValidationError("init p must be G x K positive supports")
        if "z" in init and init["z"] is not None:
            z0 = np.asarray(init["z"])
            if z0.ndim == 2:
                ok = (
                    z0.shape == (N, G)
                    and np.isin(z0, (0, 1)).all()
                    and (z0.sum(axis=1) == 1).all()
                )
                if not ok:
                    raise ValidationError("init z must be one-hot N x G")
                g_of_s = np.argmax(z0, axis=1)
            else:
                lab = np.asarray(z0, dtype=np.int64)
                if lab.shape != (N,) or lab.min() < 1 or lab.max() > G:
                    raise ValidationError("init z labels must be 1..G, length N")
                g_of_s = lab - 1
    if p is None:
        p = rng.uniform(0.01, 1.0, (G, K))
    if g_of_s is None:
        g_of_s = rng.integers(0, G, size=N) if G > 1 else np.zeros(N, dtype=np.int64)
    w = np.full(G, 1.0 / G)

    # with every rate zero the posterior leaves the overall scale of the
    # supports free and the raw chain random-walks in it; the sweep kernel
    # commutes with a global rescaling then, so projecting the state back
    # to mean row total one between sweeps is exact, not an approximation
    free_scale = bool(np.all(hyper.rate == 0.0))

    L = n_iter - n_burn
    P_out = np.empty((L, G * K))
    W_out = np.empty((L, G))
    ll_out = np.empty(L)

    for sweep in range(1, n_iter + 1):
        if free_scale:
            p = p * (G / p.sum())

        # weights | memberships
        if G > 1:
            counts = np.bincount(g_of_s, minlength=G)
            w = rng.dirichlet(hyper.alpha + counts)

        # stage times | memberships, supports
        y = rng.standard_exponential((N, K)) / _unit_rates(data, p[g_of_s])
        y[~data.stage_mask] = 0.0

        # supports | times, memberships
        shape, rate = _support_conditional(data, g_of_s + 1, y, hyper)
        bad = rate <= 0
        if bad.any():
            g_b, i_b = np.argwhere(bad)[0]
            raise NumericalError(
                f"degenerate support conditional at sweep {sweep}: rate "
                f"{rate[g_b, i_b]:.3g} for component {g_b + 1}, item {i_b + 1}"
            )
        p = np.maximum(rng.standard_gamma(shape) / rate, _TINY_SUPPORT)

        # memberships | weights, times, supports (and the log-likelihood,
        # which shares the per-component stage tables)
        log_num, rem = _stage_table(data, p)
        comp = _table_logliks(log_num, rem)
        if G > 1:
            B = np.einsum("sk,skg->sg", y, rem)
            with np.errstate(divide="ignore"):
                log_w = np.log(w)
            log_m = log_w[None, :] + log_num - B
            g_of_s = np.argmax(log_m + rng.gumbel(size=(N, G)), axis=1)
            ll = float(logsumexp(comp + log_w[None, :], axis=1).sum())
        else:
            ll = float(comp[:, 0].sum())

        if sweep > n_burn:
            k = sweep - n_burn - 1
            P_out[k] = (p / p.sum(axis=1, keepdims=True)).reshape(-1)
            W_out[k] = w
            ll_out[k] = ll

    return GibbsChain(
        P=P_out,
        W=W_out,
        log_lik=ll_out,
        deviance=-2.0 * ll_out,
        n_iter=n_iter,
        n_burn=n_burn,
        seed=int(seed) if seed is not None else None,
    )
