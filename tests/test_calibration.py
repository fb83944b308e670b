"""Simulation-based calibration of the sampler (Cook, Gelman & Rubin 2006;
Talts et al. 2018, arXiv 1804.06788).

Draw theta from the prior, data from theta, then run the chain on the data:
for any statistic f, the rank of f(theta) among the thinned posterior draws
is uniform. The statistics are label-invariant, so label switching does not
matter: the marginal supports pbar_i = sum_g w_g p_gi (all but the last,
which the others fix), the sorted weights (all but the largest) and the
data log-likelihood at the parameters. Each statistic's ranks are binned
into 10 bins and scored by a chi-squared test at alpha = 1e-3,
Bonferroni-corrected over every statistic of every case; the seeds and the
bound were fixed before the first run.

Both cases have two components and partial rankings of mixed depth; the
second is a weighted dataset whose rows repeat many times, so that the
membership step draws multinomial counts above 1 per row.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from plrank import (
    Dataset,
    Hyperparams,
    MixtureParams,
    gibbs_run,
    make_partial,
    mixture_loglik,
    sample_mixture,
    unit_to_freq,
)

SHAPE, RATE, ALPHA = 2.0, 1.0, 2.0
N_BURN, THIN, N_DRAWS = 50, 3, 49
BINS = 10

# name: (K, G, units, censoring probabilities, weighted rows, replications,
# seed)
CASES = {
    "K4-G2": (4, 2, 100, [1 / 3, 1 / 3, 1 / 3], False, 250, 302),
    "K3-G2-weighted": (3, 2, 200, [0.5, 0.5], True, 150, 303),
}
N_STATS = sum(K + G - 1 for K, G, *_ in CASES.values())
BOUND = chi2.isf(1e-3 / N_STATS, BINS - 1)


def _statistics(p, w, ll):
    """Label-invariant statistics per draw: pbar without its last entry,
    the sorted weights without the largest, and the log-likelihood;
    p is (draws, G, K) normalized within component, w (draws, G)."""
    pbar = np.einsum("lg,lgk->lk", w, p)[:, :-1]
    return np.column_stack([pbar, np.sort(w, axis=1)[:, :-1], ll])


def _ranks(case, rng):
    """Rank of each statistic at the true parameters among the thinned
    draws of one chain, in 0..N_DRAWS."""
    K, G, n, probcens, weighted, _, _ = case
    supports = rng.gamma(SHAPE, 1.0 / RATE, (G, K))
    theta = MixtureParams(supports, rng.dirichlet(np.full(G, ALPHA)))
    _, data = sample_mixture(n, K, G, theta, rng)
    data, _ = make_partial(data, probcens=probcens, rng=rng)
    if weighted:
        freq = unit_to_freq(data)
        data = Dataset.from_orderings(freq.sequences, counts=freq.counts)
    chain = gibbs_run(
        data,
        G,
        hyper=Hyperparams.expand(SHAPE, RATE, ALPHA, G, K),
        n_iter=N_BURN + THIN * N_DRAWS,
        n_burn=N_BURN,
        rng=int(rng.integers(2**31)),
    )
    keep = slice(THIN - 1, None, THIN)
    draws = _statistics(chain.supports_3d()[keep], chain.W[keep], chain.log_lik[keep])
    norm = theta.normalized()
    truth = _statistics(
        norm.supports[None], norm.weights[None], [mixture_loglik(theta, data)]
    )
    return (draws < truth).sum(axis=0)


@pytest.mark.parametrize("name", list(CASES))
def test_sampler_is_calibrated(name):
    case = CASES[name]
    rng = np.random.default_rng(case[-1])
    reps = case[-2]
    ranks = np.array([_ranks(case, rng) for _ in range(reps)])
    assert ranks.shape[1] == case[0] + case[1] - 1
    counts = np.stack(
        [np.bincount(r * BINS // (N_DRAWS + 1), minlength=BINS) for r in ranks.T]
    )
    expected = reps / BINS
    stats = ((counts - expected) ** 2 / expected).sum(axis=1)
    print(f"{name}: chi2(9) per statistic {np.round(stats, 1).tolist()}, "
          f"bound {BOUND:.1f}")
    assert (stats <= BOUND).all(), (stats.tolist(), BOUND)
