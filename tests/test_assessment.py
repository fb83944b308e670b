import numpy as np
import pytest

from plrank import (
    Dataset,
    MixtureParams,
    ValidationError,
    gibbs_run,
    ppcheck,
    ppcheck_cond,
    sample_mixture,
)
from plrank.assessment import (
    _replicate_orderings,
    chi2_paired,
    chi2_top1,
    paired_discrepancy,
    top1_counts,
    top1_discrepancy,
)
from oracles import random_partial_matrix


def test_chi2_top1_hand():
    # K=2, N=10, counts (7,3) against a fair split
    val = chi2_top1(np.array([7, 3]), 10, np.array([0.5, 0.5]))
    assert val == pytest.approx(1.6, abs=1e-12)
    # expected counts scale with the marginal worths
    val = chi2_top1(np.array([6, 4]), 10, np.array([0.6, 0.4]))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_chi2_paired_hand():
    # tau12=7 of n=10 decided pairs against a fair split: two mirrored
    # cells contributing 0.8 each
    tau = np.array([[0, 7], [3, 0]])
    val = chi2_paired(tau, np.array([0.5, 0.5]))
    assert val == pytest.approx(1.6, abs=1e-12)


def test_chi2_paired_skips_empty_pairs():
    tau = np.zeros((3, 3), dtype=np.int64)
    tau[0, 1], tau[1, 0] = 4, 2
    val = chi2_paired(tau, np.array([1 / 3, 1 / 3, 1 / 3]))
    # only the (1,2) pair is decided: n=6, expected 3 each
    assert val == pytest.approx((4 - 3) ** 2 / 3 + (2 - 3) ** 2 / 3, abs=1e-12)
    assert chi2_paired(np.zeros((3, 3), dtype=np.int64), np.ones(3) / 3) == 0.0


def test_top1_counts():
    data = Dataset.from_orderings(np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]]))
    assert top1_counts(data).tolist() == [2, 1, 0]


def test_discrepancy_wrappers():
    data = Dataset.from_orderings(np.array([[1, 2, 0], [1, 0, 0], [2, 3, 1]]))
    params = MixtureParams(
        np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]), np.array([0.5, 0.5])
    )
    norm = params.normalized()
    pbar = norm.marginal
    want_top1 = chi2_top1(top1_counts(data), 3, pbar)
    assert top1_discrepancy(data, params) == pytest.approx(want_top1, abs=1e-12)
    from plrank import paired_comparisons

    want_paired = chi2_paired(paired_comparisons(data), pbar)
    assert paired_discrepancy(data, params) == pytest.approx(want_paired, abs=1e-12)


def test_replicates_preserve_depths():
    rng = np.random.default_rng(0)
    mat, depths = random_partial_matrix(rng, 80, 5)
    p = np.array([[0.4, 0.25, 0.2, 0.1, 0.05]])
    rep = _replicate_orderings(p, np.array([1.0]), depths, rng)
    out = Dataset.from_orderings(rep)
    assert np.array_equal(np.sort(out.nranked), np.sort(depths))
    # depths are matched per unit, not merely as a multiset
    assert np.array_equal(out.nranked, depths)


def test_ppcheck_values_and_determinism():
    rng = np.random.default_rng(1)
    params = MixtureParams(np.array([[0.5, 0.3, 0.2]]), np.array([1.0]))
    _, data = sample_mixture(120, 3, 1, params, rng)
    chain = gibbs_run(data, 1, n_iter=80, n_burn=30, rng=3)
    a = ppcheck(data, [chain], np.random.default_rng(9))
    b = ppcheck(data, [chain], np.random.default_rng(9))
    assert a.p_top1[0] == b.p_top1[0]
    assert a.p_paired[0] == b.p_paired[0]
    assert 0.0 <= a.p_top1[0] <= 1.0
    assert 0.0 <= a.p_paired[0] <= 1.0
    assert not a.conditional
    assert a.g_values.tolist() == [1]
    L = chain.n_kept
    for arr in (a.top1_obs[0], a.top1_rep[0], a.paired_obs[0], a.paired_rep[0]):
        assert arr.shape == (L,)
    # p-values recompute from the stored draws with a weak inequality
    assert a.p_top1[0] == (a.top1_rep[0] >= a.top1_obs[0]).mean()
    assert a.p_paired[0] == (a.paired_rep[0] >= a.paired_obs[0]).mean()
    # complete data form a single depth stratum, so both variants agree
    c = ppcheck_cond(data, [chain], np.random.default_rng(9))
    for name in ("top1_obs", "top1_rep", "paired_obs", "paired_rep"):
        assert np.array_equal(getattr(a, name)[0], getattr(c, name)[0])
    assert a.p_top1[0] == c.p_top1[0] and a.p_paired[0] == c.p_paired[0]


def test_ppcheck_conditional_stratifies():
    rng = np.random.default_rng(2)
    mat, depths = random_partial_matrix(rng, 100, 4)
    data = Dataset.from_orderings(mat)
    chain = gibbs_run(data, 1, n_iter=40, n_burn=20, rng=5)
    cond = ppcheck_cond(data, [chain], np.random.default_rng(11))
    assert cond.conditional
    # observed statistic at each draw is the sum over depth strata of the
    # per-stratum discrepancies at that draw's parameters
    P3 = chain.supports_3d()
    l = 7
    p = P3[l] / P3[l].sum(axis=1, keepdims=True)
    params = MixtureParams(p, chain.W[l])
    want = 0.0
    for m in np.unique(data.nranked):
        sub = Dataset.from_orderings(data.orderings[data.nranked == m])
        want += top1_discrepancy(sub, params)
    assert cond.top1_obs[0][l] == pytest.approx(want, abs=1e-10)


def test_ppcheck_multiple_chains_and_validation():
    rng = np.random.default_rng(3)
    mat, _ = random_partial_matrix(rng, 50, 3)
    data = Dataset.from_orderings(mat)
    c1 = gibbs_run(data, 1, n_iter=30, n_burn=10, rng=1)
    c2 = gibbs_run(data, 2, n_iter=30, n_burn=10, rng=2)
    rep = ppcheck(data, [c1, c2], np.random.default_rng(4))
    assert rep.g_values.tolist() == [1, 2]
    with pytest.raises(ValidationError):
        ppcheck(data, [], np.random.default_rng(4))
    other = Dataset.from_orderings(np.array([[1, 2, 3, 4]]))
    with pytest.raises(ValidationError):
        ppcheck(other, [c1], np.random.default_rng(4))
