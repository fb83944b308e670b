"""Pivot-based repair of label switching in mixture chains.

Symmetric posteriors make component labels drift across sweeps, which
destroys componentwise summaries. Each kept sweep is therefore matched to
a pivot (normally the MAP fit): among all G! relabelings of the sweep,
pick the one whose component vectors, normalized supports concatenated
with the weight, sit closest to the pivot's in squared Euclidean
distance. The best relabeling is found exactly by dynamic programming
over subsets of components rather than by listing the G! candidates.
Likelihood-based traces are label-free and pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .em import MapFit
from .errors import ValidationError
from .gibbs import GibbsChain
from .model import MixtureParams, NormalizedParams

MAX_COMPONENTS = 8  # the assignment table holds L * 2^G values


@dataclass(frozen=True, eq=False)
class RelabeledChain(GibbsChain):
    """Chain traces after per-sweep component realignment.

    permutations[l] is the 0-based source index each component slot was
    filled from: relabeled component g of sweep l is draw component
    permutations[l, g] of the input chain.
    """

    permutations: np.ndarray = field(kw_only=True)


def _pivot_matrix(pivot, G: int, K: int) -> np.ndarray:
    """The pivot's component vectors (G x K+1): each support row divided
    once by its sum, then the weight."""
    if not isinstance(pivot, (MapFit, MixtureParams, NormalizedParams)):
        raise ValidationError("pivot must be a MapFit or mixture parameters")
    p, w = pivot.supports, pivot.weights
    if p.shape != (G, K):
        raise ValidationError("pivot dimensions do not match the chain")
    p = p / p.sum(axis=1, keepdims=True)
    return np.concatenate([p, np.asarray(w)[:, None]], axis=1)


def _best_assignment(cost: np.ndarray) -> np.ndarray:
    """(L, G) least-cost permutations: cost[l, g, h] is the cost of
    filling slot g of draw l from source h. With slots filled in order, a
    suffix pass over the sets of used sources (Held-Karp, O(G 2^G) per
    draw) gives rest[used], the least cost of the slots left; a forward
    pass gives each slot the first free source that attains it, so ties
    go to the lexicographically first optimal permutation.
    """
    L, G, _ = cost.shape
    cost = np.ascontiguousarray(np.moveaxis(cost, 0, -1))  # slot, source, draw
    bit = 1 << np.arange(G)
    rest = np.zeros((1 << G, L))
    for used in range(rest.shape[0] - 2, -1, -1):
        free = np.nonzero((used & bit) == 0)[0]
        slot = G - free.size
        rest[used] = (cost[slot, free] + rest[used | bit[free]]).min(axis=0)
    draws = np.arange(L)
    used = np.zeros(L, dtype=np.int64)
    sigma = np.empty((L, G), dtype=np.int64)
    for g in range(G):
        tot = cost[g] + rest[used | bit[:, None], draws]
        tot[(used & bit[:, None]) != 0] = np.inf
        sigma[:, g] = np.argmin(tot, axis=0)
        used |= bit[sigma[:, g]]
    return sigma


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
        raise ValidationError(f"relabeling is limited to G <= {MAX_COMPONENTS}")
    ref = _pivot_matrix(pivot, G, K)
    P3, W = chain.supports_3d(), chain.W
    vec = np.concatenate([P3 / P3.sum(axis=2, keepdims=True), W[:, :, None]], axis=2)
    cost = np.empty((L, G, G))
    for g in range(G):
        diff = vec - ref[g]
        cost[:, g] = np.einsum("lhd,lhd->lh", diff, diff)
    if not np.isfinite(cost).all():
        raise ValidationError("chain draws must be finite")
    sigma = _best_assignment(cost)
    return RelabeledChain(
        P=np.take_along_axis(P3, sigma[:, :, None], axis=1).reshape(L, G * K),
        W=np.take_along_axis(W, sigma, axis=1),
        log_lik=np.asarray(chain.log_lik).copy(),
        deviance=np.asarray(chain.deviance).copy(),
        permutations=sigma,
        seed=chain.seed,
    )
