"""Pivot-based repair of label switching in mixture chains.

Symmetric posteriors make component labels drift across sweeps, which
destroys componentwise summaries. Each kept sweep is therefore matched to
a pivot (normally the MAP fit): among all G! relabelings of the sweep,
pick the one whose component vectors, normalized supports concatenated
with the weight, sit closest to the pivot's in squared Euclidean
distance. Likelihood-based traces are label-free and pass through
untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .em import MapFit
from .errors import ValidationError
from .gibbs import GibbsChain
from .model import MixtureParams, NormalizedParams

MAX_COMPONENTS = 8
_SWEEP_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class RelabeledChain(GibbsChain):
    """Chain traces after per-sweep component realignment.

    permutations[l] is the 0-based source index each component slot was
    filled from: relabeled component g of sweep l is draw component
    permutations[l, g] of the input chain.
    """

    permutations: np.ndarray = field(kw_only=True)


def _pivot_matrix(pivot, G: int, K: int) -> np.ndarray:
    if isinstance(pivot, (MapFit, NormalizedParams)):
        p, w = pivot.supports, pivot.weights
    elif isinstance(pivot, MixtureParams):
        norm = pivot.normalized()
        p, w = norm.supports, norm.weights
    else:
        raise ValidationError("pivot must be a MapFit or mixture parameters")
    if p.shape != (G, K):
        raise ValidationError("pivot dimensions do not match the chain")
    p = p / p.sum(axis=1, keepdims=True)
    return np.concatenate([p, np.asarray(w)[:, None]], axis=1)


def pra_relabel(chain, pivot) -> RelabeledChain:
    """Align a chain's component labels to a pivot, sweep by sweep.

    Args:
        chain: GibbsChain (or RelabeledChain) to repair.
        pivot: MapFit or mixture parameters acting as the reference.

    Returns:
        RelabeledChain with permuted P and W, untouched log_lik and
        deviance, and the applied permutation per sweep. Distance ties
        resolve to the lexicographically first permutation, so running
        the repair twice is a no-op.
    """
    G, K, L = chain.n_components, chain.n_items, chain.n_kept
    if G > MAX_COMPONENTS:
        raise ValidationError(
            f"exhaustive relabeling is limited to G <= {MAX_COMPONENTS}"
        )
    ref = _pivot_matrix(pivot, G, K)
    P3 = chain.supports_3d()
    W = chain.W
    perms = np.array(list(itertools.permutations(range(G))), dtype=np.int64)
    slots = np.arange(G)

    P_new = np.empty_like(P3)
    W_new = np.empty_like(W)
    chosen = np.empty((L, G), dtype=np.int64)
    for lo in range(0, L, _SWEEP_CHUNK):
        hi = min(lo + _SWEEP_CHUNK, L)
        blk = P3[lo:hi]
        blk_norm = blk / blk.sum(axis=2, keepdims=True)
        vec = np.concatenate([blk_norm, W[lo:hi, :, None]], axis=2)
        diff = vec[:, None, :, :] - ref[None, :, None, :]
        cost = np.einsum("lghd,lghd->lgh", diff, diff)
        totals = cost[:, slots[None, :], perms].sum(axis=2)
        best = np.argmin(totals, axis=1)
        sigma = perms[best]
        rows = np.arange(hi - lo)[:, None]
        P_new[lo:hi] = blk[rows, sigma]
        W_new[lo:hi] = W[lo:hi][rows, sigma]
        chosen[lo:hi] = sigma
    return RelabeledChain(
        P=P_new.reshape(L, G * K),
        W=W_new,
        log_lik=np.asarray(chain.log_lik).copy(),
        deviance=np.asarray(chain.deviance).copy(),
        permutations=chosen,
        n_iter=chain.n_iter,
        n_burn=chain.n_burn,
        seed=chain.seed,
    )
