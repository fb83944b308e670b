"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (python loops, sets,
enumeration, explicit availability indicators) on purpose, and none of it
calls the library's stage, availability or mixture kernels, so agreement
with the vectorized library code is meaningful. The *_rows_major
functions are the exception by design: they keep the library's former
row-major kernels, against which the current ones are pinned bit for bit.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp


def random_partial_matrix(rng, n, K, allow_complete=True):
    """Random top-t ordering matrix with depths in {1..K-2, K}.

    Depth K-1 is avoided so the raw matrix is already in the normalized
    form the library stores, keeping round-trip comparisons exact.
    """
    depths = [d for d in range(1, K - 1)] + ([K] if allow_complete else [])
    rows = np.zeros((n, K), dtype=np.int64)
    out_d = np.zeros(n, dtype=np.int64)
    for s in range(n):
        perm = rng.permutation(K) + 1
        d = int(depths[rng.integers(len(depths))])
        rows[s, :d] = perm[:d]
        out_d[s] = d
    return rows, out_d


def ordering_row_loglik(items, p):
    """Stagewise log-probability of one top-t ordering, by explicit sets.

    items: 1-based item labels in preference order; p: positive supports.
    """
    K = len(p)
    avail = set(range(1, K + 1))
    ll = 0.0
    for it in items:
        denom = sum(p[j - 1] for j in avail)
        ll += math.log(p[it - 1] / denom)
        avail.remove(it)
    return ll


def stage_remainders_direct(items, p):
    """Support mass still available before each stage of one top-t
    ordering, as a correctly rounded sum (math.fsum) over the explicit
    set of items not yet chosen.

    items: 1-based item labels in preference order; p: positive supports.
    """
    avail = set(range(1, len(p) + 1))
    out = []
    for it in items:
        out.append(math.fsum(float(p[j - 1]) for j in sorted(avail)))
        avail.remove(it)
    return np.array(out)


def mixture_loglik_direct(supports, weights, orderings, nranked):
    """Observed-data mixture log-likelihood by brute force."""
    supports = np.asarray(supports, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    for s in range(orderings.shape[0]):
        items = [int(v) for v in orderings[s, : nranked[s]]]
        lik = sum(
            w * math.exp(ordering_row_loglik(items, supports[g]))
            for g, w in enumerate(weights)
        )
        total += math.log(lik)
    return total


def all_complete_orderings(K):
    return [list(perm) for perm in itertools.permutations(range(1, K + 1))]


def em_update_single(p, orderings, nranked, shape=None, rate=0.0):
    """One homogeneous minorize-maximize support update, by explicit loops.

    With shape=None a flat prior is used (shape 1, rate 0), giving the
    maximum-likelihood update.
    """
    N, K = orderings.shape
    p = np.asarray(p, dtype=float)
    if shape is None:
        shape = np.ones(K)
    gamma = np.zeros(K)
    denom = np.zeros(K)
    for s in range(N):
        avail = set(range(1, K + 1))
        for t in range(nranked[s]):
            it = int(orderings[s, t])
            gamma[it - 1] += 1.0
            rem = sum(p[j - 1] for j in avail)
            for j in avail:
                denom[j - 1] += 1.0 / rem
            avail.remove(it)
    return (np.asarray(shape) - 1.0 + gamma) / (rate + denom)


def responsibilities_direct(supports, weights, orderings, nranked):
    """Posterior component membership probabilities, by brute force."""
    G = len(weights)
    N = orderings.shape[0]
    z = np.zeros((N, G))
    for s in range(N):
        items = [int(v) for v in orderings[s, : nranked[s]]]
        for g in range(G):
            z[s, g] = weights[g] * math.exp(
                ordering_row_loglik(items, supports[g])
            )
        z[s] /= z[s].sum()
    return z


def support_conditional_direct(orderings, nranked, z_onehot, y, shape, rate):
    """Gamma full-conditional parameters for the supports, by explicit
    stage loops over the availability indicators."""
    N, K = orderings.shape
    G = z_onehot.shape[1]
    a = np.array(shape, dtype=float, copy=True)
    b = np.tile(np.asarray(rate, dtype=float)[:, None], (1, K))
    for s in range(N):
        g = int(np.argmax(z_onehot[s]))
        avail = set(range(1, K + 1))
        for t in range(nranked[s]):
            it = int(orderings[s, t])
            a[g, it - 1] += 1.0
            for j in avail:
                b[g, j - 1] += y[s, t]
            avail.remove(it)
    return a, b


def paired_counts_direct(orderings, nranked):
    """Pairwise preference counts by explicit rank comparison."""
    N, K = orderings.shape
    tau = np.zeros((K, K), dtype=np.int64)
    for s in range(N):
        rank = {int(orderings[s, t]): t + 1 for t in range(nranked[s])}
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                if i == j:
                    continue
                ri = rank.get(i, K + 1)
                rj = rank.get(j, K + 1)
                if ri < rj:
                    tau[i - 1, j - 1] += 1
    return tau


def best_permutation_cost(vecs, ref):
    """Minimum total squared distance over all component permutations,
    via scipy's assignment solver (independent of the library's dynamic
    program and of best_permutation_exhaustive)."""
    from scipy.optimize import linear_sum_assignment

    G = ref.shape[0]
    cost = np.zeros((G, G))
    for g in range(G):
        for h in range(G):
            cost[g, h] = ((vecs[h] - ref[g]) ** 2).sum()
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum(), cols


def best_permutation_exhaustive(cost):
    """Every permutation sigma of one draw's G x G cost matrix, listed in
    lexicographic order, with its total sum_g cost[g, sigma[g]]. Returns
    (first permutation of least total, sorted totals), so callers can see
    how close the runner-up comes."""
    G = cost.shape[0]
    perms = list(itertools.permutations(range(G)))
    totals = [sum(cost[g, sigma[g]] for g in range(G)) for sigma in perms]
    best = totals.index(min(totals))
    return np.array(perms[best]), np.sort(totals)


def gibbs_run_units(data, G, hyper, init, n_iter, n_burn, rng):
    """Reference sampler: the unit-level sweep the pattern sampler replaced.

    Same target and block order (weights, stage times, supports,
    memberships), but one exponential stage time per unit and stage, and
    memberships drawn per unit given the stage times. init holds "p"
    (G x K) and "z" (1-based labels); returns (P normalized per component,
    W, log_lik) over the kept sweeps.
    """
    N, K = data.orderings.shape
    p = np.array(init["p"], dtype=float)
    g_of_s = np.asarray(init["z"]) - 1
    w = np.full(G, 1.0 / G)
    free_scale = bool(np.all(hyper.rate == 0.0))
    ranked = data.orderings != 0
    avail = stage_availability(data)
    rem = stage_remainders_units(avail, ranked, p)
    units = np.arange(N)
    P, W, ll_out = [], [], []
    for sweep in range(1, n_iter + 1):
        if free_scale:
            scale = G / p.sum()
            p, rem = p * scale, rem * scale
        if G > 1:
            w = rng.dirichlet(hyper.alpha + np.bincount(g_of_s, minlength=G))
        y = rng.standard_exponential((N, K)) / rem[units, :, g_of_s]
        y[~ranked] = 0.0
        member = np.eye(G)[g_of_s].T
        shape = hyper.shape + member @ data.u
        rate = hyper.rate[:, None] + member @ np.einsum("sti,st->si", avail, y)
        if (rate <= 0).any():
            raise ValueError(f"empty component at sweep {sweep}")
        p = np.maximum(rng.standard_gamma(shape) / rate, 1e-300)
        rem = stage_remainders_units(avail, ranked, p)
        comp = data.u @ np.log(p).T - np.log(rem).sum(axis=1)
        with np.errstate(divide="ignore"):
            ll = float(logsumexp(comp + np.log(w), axis=1).sum())
        if G > 1:
            log_num = data.u @ np.log(p).T
            B = np.einsum("sk,skg->sg", y, rem)
            with np.errstate(divide="ignore"):
                log_m = np.log(w)[None, :] + log_num - B
            g_of_s = np.argmax(log_m + rng.gumbel(size=(N, G)), axis=1)
        if sweep > n_burn:
            P.append((p / p.sum(axis=1, keepdims=True)).ravel())
            W.append(w)
            ll_out.append(ll)
    return np.array(P), np.array(W), np.array(ll_out)


def stage_availability(data):
    """(N, K, K) indicators A[s, t, i]: item i is still available at stage
    t of unit s, t below its depth. From the rank positions: item i is
    available at stage t when its 0-based position, K if unranked, is at
    least t."""
    K = data.n_items
    pos = data.to_rank_positions(K + 1) - 1
    stage = np.arange(K)[None, :, None]
    ranked = data.orderings != 0
    return ((pos[:, None, :] >= stage) & ranked[:, :, None]).astype(float)


def stage_remainders_units(avail, ranked, p):
    """(N, K, G) support mass rem[s, t, g] = sum_i p[g, i] A[s, t, i]
    still available before stage t of unit s, 1 beyond its depth (where
    ranked[s, t] is False)."""
    rem = np.einsum("sti,gi->stg", avail, p)
    rem[~ranked] = 1.0
    return rem


def stage_table_rows_major(data, p):
    """The engine's (comp, rem) stage table as the library built it
    before rem became stage-major: rem is (D, K, G), its unranked items
    filled into the pad on every call, one reversed cumsum along the
    stages. Kept so that the stage-major engine can be pinned to it bit
    for bit."""
    ranked = data.orderings != 0
    idx = data.orderings - 1
    idx[~ranked] = np.nonzero(data.u == 0)[1]
    rem = np.cumsum(p.T[idx[:, ::-1]], axis=1)[:, ::-1]
    rem[~ranked] = 1.0
    return data.u @ np.log(p).T - np.log(rem).sum(axis=1), rem


def availability_sums_rows_major(item_idx, x):
    """Former availability sums, stages on axis 1 of x: prefix sums
    scattered by item with put_along_axis, the -1 pad writing to a spare
    column K that is dropped."""
    cum = np.cumsum(x, axis=1)
    out = np.repeat(cum[:, -1:], x.shape[1] + 1, axis=1)
    idx = item_idx.reshape(item_idx.shape + (1,) * (x.ndim - 2))
    np.put_along_axis(out, idx, cum, axis=1)
    return out[:, :-1]


def log_mixture_rows_major(comp, weights):
    """Former log mixture density: every reduction over the last
    (component) axis of the (N, G) scores."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scored = comp + np.log(weights)[None, :]
        top = scored.max(axis=1, keepdims=True)
        is_top = scored == top
        m = is_top.sum(axis=1, keepdims=True, dtype=np.float64)
        rest = np.where(is_top, 0.0, np.exp(scored - top))
        rest = rest.sum(axis=1, keepdims=True) / m
        per_unit = np.log1p(rest) + np.log(m) + top
    return scored, per_unit[:, 0]


def em_step_units(p, w, data, hyper):
    """Reference EM iteration over every unit (no pattern grouping):
    returns (supports, weights, responsibilities, log-likelihood), the
    last two at the incoming parameters."""
    avail = stage_availability(data)
    ranked = data.orderings != 0
    rem = stage_remainders_units(avail, ranked, p)
    comp = data.u @ np.log(p).T - np.log(rem).sum(axis=1)
    with np.errstate(divide="ignore"):
        scored = comp + np.log(w)
    per_unit = logsumexp(scored, axis=1)
    zhat = np.exp(scored - per_unit[:, None])
    N, G = zhat.shape
    numer = hyper.shape - 1.0 + zhat.T @ data.u
    r = np.where(ranked[:, :, None], 1.0 / rem, 0.0)
    denom = hyper.rate[:, None] + np.einsum("sg,sti,stg->gi", zhat, avail, r)
    w_new = (hyper.alpha - 1.0 + zhat.sum(axis=0)) / (hyper.alpha.sum() - G + N)
    return numer / denom, w_new / w_new.sum(), zhat, float(per_unit.sum())


def ppcheck_stats_simulated(data, chain, rng):
    """Reference predictive-check statistics that simulate every unit: the
    (2, 4, n_kept) array of plain then conditional top1 obs/rep and paired
    obs/rep, one replicate per kept draw, simulated and counted stratum by
    stratum in ascending depth (the form the library keeps for strata it
    does not enumerate).
    """
    from plrank.assessment import _replicate_orderings, chi2_paired, chi2_top1
    from plrank.data import _pair_counts, rank_positions_of

    N, K = data.orderings.shape
    depths = np.unique(data.nranked)
    strata = [np.nonzero(data.nranked == m)[0] for m in depths]
    obs_ranks = data.to_rank_positions()
    obs_r = [np.bincount(data.orderings[idx, 0] - 1, minlength=K) for idx in strata]
    obs_tau = [_pair_counts(obs_ranks[idx]) for idx in strata]
    sizes = [idx.shape[0] for idx in strata]

    stats = np.zeros((2, 4, chain.n_kept))
    for l, (p, w) in enumerate(zip(chain.supports_3d(), chain.W)):
        p = p / p.sum(axis=1, keepdims=True)
        pbar = w @ p
        rep_r, rep_tau = [], []
        for m, n in zip(depths, sizes):
            rep = _replicate_orderings(p, w, np.full(n, m), rng)
            rep_r.append(np.bincount(rep[:, 0] - 1, minlength=K))
            rep_tau.append(_pair_counts(rank_positions_of(rep, K + 1)))
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
