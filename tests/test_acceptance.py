"""Acceptance gate: one test per published guarantee of the package.

Each test prints its own [PASS]/[FAIL] line (to the real stdout, so the
lines survive pytest capture into piped logs) and then asserts.
"""

import math
import os
import sys
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid
from scipy.optimize import minimize

from plrank import (
    Dataset,
    FreqTable,
    Hyperparams,
    MixtureParams,
    cli,
    fit_map,
    fit_map_multistart,
    freq_to_unit,
    gibbs_run,
    init_from_map,
    make_complete,
    make_partial,
    mixture_logliks_per_unit,
    ord_rank_switch,
    ppcheck,
    pra_relabel,
    rank_summaries,
    read_sequence_csv,
    sample_mixture,
    selection_criteria,
    unit_to_freq,
    write_sequence_csv,
)
from plrank.assessment import _replicate_counts, _replicate_orderings, _strata
from plrank.fileio import (
    format_preflib,
    parse_preflib,
    parse_preflib_text,
    write_preflib,
)
from plrank.gibbs import GibbsChain, _support_conditional
from oracles import (
    all_complete_orderings,
    mixture_loglik_direct,
    random_partial_matrix,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    # let _line punch through pytest's output capture so the per-criterion
    # verdict lines land in piped logs next to the test's own -v line
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _line(name, ok, detail):
    msg = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(msg, flush=True)
    else:
        print(msg, file=sys.__stdout__, flush=True)
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------ criterion 1


def test_c01_round_trip_exactness(tmp_path):
    rng = np.random.default_rng(202608)
    t0 = time.perf_counter()
    for i in range(1000):
        # fresh paths: rewriting one file truncates it, and a file truncated
        # to zero is flushed to disk when it is closed (ext4), a cost that
        # varies with the machine's load
        ord_path = tmp_path / f"o{i}.csv"
        rank_path = tmp_path / f"r{i}.csv"
        pl_path = tmp_path / f"p{i}.txt"
        K = int(rng.integers(3, 11))
        n = int(rng.integers(2, 22))
        mat, _ = random_partial_matrix(rng, n, K)
        # ordering <-> ranking involution
        assert np.array_equal(
            ord_rank_switch(ord_rank_switch(mat, "ordering"), "ranking"), mat
        )
        data = Dataset.from_orderings(mat)
        # unit <-> freq
        table = unit_to_freq(data)
        expanded = freq_to_unit(table)
        assert sorted(expanded.tolist()) == sorted(mat.tolist())
        back = unit_to_freq(expanded)
        assert np.array_equal(back.sequences, table.sequences)
        assert np.array_equal(back.counts, table.counts)
        # ordering and ranking CSV round trips, row-exact
        write_sequence_csv(ord_path, mat)
        assert np.array_equal(read_sequence_csv(ord_path), mat)
        rmat = ord_rank_switch(mat, "ordering")
        write_sequence_csv(rank_path, rmat)
        assert np.array_equal(read_sequence_csv(rank_path), rmat)
        # preflib round trip: multiset of rows, then canonical idempotence
        write_preflib(pl_path, data)
        got = parse_preflib(pl_path)
        units = np.repeat(got.orderings, got.counts, axis=0)
        assert sorted(units.tolist()) == sorted(mat.tolist())
        text = format_preflib(got)
        assert format_preflib(parse_preflib_text(text)) == text
    elapsed = time.perf_counter() - t0
    _line(
        "criterion 1",
        elapsed < 5.0,
        f"1000 datasets, every round trip exact, {elapsed:.2f}s (< 5s)",
    )


# ------------------------------------------------------------ criterion 2


def test_c02_probability_normalization():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst = 0.0
    for K in (3, 4, 5, 6):
        data = Dataset.from_orderings(all_complete_orderings(K))
        for j in range(50):
            G = j % 3 + 1
            params = MixtureParams(
                rng.gamma(1.5, 1.0, size=(G, K)) + 0.05,
                rng.dirichlet(np.full(G, 2.0)),
            )
            total = np.exp(mixture_logliks_per_unit(params, data)).sum()
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    _line(
        "criterion 2",
        worst <= 1e-10 and elapsed < 30.0,
        f"sum over K! orderings: worst |1 - total| {worst:.2e} "
        f"(<= 1e-10), {elapsed:.1f}s (< 30s)",
    )


# ------------------------------------------------------------ criterion 3

DUBLIN_HEAD = np.array(
    [
        [7, 9, 4, 2, 8, 0, 0, 0, 0],
        [5, 3, 7, 6, 0, 0, 0, 0, 0],
        [5, 7, 3, 0, 0, 0, 0, 0, 0],
        [9, 2, 7, 0, 0, 0, 0, 0, 0],
        [3, 2, 0, 0, 0, 0, 0, 0, 0],
        [5, 3, 2, 0, 0, 0, 0, 0, 0],
    ]
)

DUBLIN_HEAD_RANKS = np.array(
    [
        [0, 4, 0, 3, 0, 0, 1, 5, 2],
        [0, 0, 2, 0, 1, 4, 3, 0, 0],
        [0, 0, 3, 0, 1, 0, 2, 0, 0],
        [0, 2, 0, 0, 0, 0, 3, 0, 1],
        [0, 2, 1, 0, 0, 0, 0, 0, 0],
        [0, 3, 2, 0, 1, 0, 0, 0, 0],
    ]
)

GOAL_SEQUENCES = np.array(
    [
        [1, 2, 3, 4], [1, 2, 4, 3], [1, 3, 2, 4], [1, 3, 4, 2],
        [1, 4, 2, 3], [1, 4, 3, 2], [2, 1, 3, 4], [2, 1, 4, 3],
        [2, 3, 1, 4], [2, 3, 4, 1], [2, 4, 1, 3], [2, 4, 3, 1],
        [3, 1, 2, 4], [3, 1, 4, 2], [3, 2, 1, 4], [3, 2, 4, 1],
        [3, 4, 1, 2], [3, 4, 2, 1], [4, 1, 2, 3], [4, 1, 3, 2],
        [4, 2, 1, 3], [4, 2, 3, 1], [4, 3, 1, 2], [4, 3, 2, 1],
    ]
)

GOAL_COUNTS = np.array(
    [137, 29, 309, 52, 255, 93, 48, 23, 330, 21, 294, 30,
     61, 33, 117, 29, 70, 35, 55, 59, 69, 52, 34, 27]
)


def test_c03_embedded_goldens(tmp_path):
    # head-rows conversion, library and CLI
    assert np.array_equal(ord_rank_switch(DUBLIN_HEAD, "ordering"), DUBLIN_HEAD_RANKS)
    src = tmp_path / "head.csv"
    out = tmp_path / "head_ranks.csv"
    write_sequence_csv(src, DUBLIN_HEAD)
    code = cli.main(
        ["convert", "--input", str(src), "--format", "ordering", "--out", str(out)]
    )
    assert code == 0
    assert np.array_equal(read_sequence_csv(out), DUBLIN_HEAD_RANKS)

    # toy frequency expansion, replicated in table order
    toy = FreqTable(
        np.array([[0, 0, 1, 0], [0, 1, 0, 2], [4, 1, 2, 3]]), np.array([2, 1, 3])
    )
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 1, 0], [0, 1, 0, 2],
         [4, 1, 2, 3], [4, 1, 2, 3], [4, 1, 2, 3]]
    )
    assert np.array_equal(freq_to_unit(toy), expected)

    # four-goal survey table: aggregation is an exact fixed point, and
    # random censoring lands within binomial 3-sigma of the target split
    units = freq_to_unit(FreqTable(GOAL_SEQUENCES, GOAL_COUNTS))
    table = unit_to_freq(units)
    assert np.array_equal(table.sequences, GOAL_SEQUENCES)
    assert np.array_equal(table.counts, GOAL_COUNTS)
    data = Dataset.from_orderings(units)
    N = data.n_units
    assert N == 2262
    probcens = (0.3, 0.3, 0.4)
    _, depths = make_partial(data, probcens=probcens, rng=np.random.default_rng(4))
    realized = {d: int((depths == d).sum()) for d in (1, 2, 4)}
    sigma_ok = True
    for q, d in zip(probcens, (1, 2, 4)):
        lim = 3.0 * math.sqrt(N * q * (1 - q))
        sigma_ok &= abs(realized[d] - N * q) <= lim
    _line(
        "criterion 3",
        sigma_ok,
        f"conversion + expansion goldens exact; censored depth counts "
        f"{realized} vs target {tuple(round(N * q) for q in probcens)} "
        f"within 3-sigma",
    )


# ------------------------------------------------------------ criterion 4


def test_c04a_em_monotone():
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(100):
        K = int(rng.integers(3, 7))
        n = int(rng.integers(10, 41))
        mat, _ = random_partial_matrix(rng, n, K)
        data = Dataset.from_orderings(mat)
        G = int(rng.integers(1, 4))
        hyper = (
            Hyperparams.expand(1.5, 0.3, 2.0, G, K) if i % 3 == 0 else None
        )
        fit = fit_map(data, G, hyper=hyper, max_iter=80, rng=rng)
        diffs = np.diff(fit.log_post_trace)
        if diffs.size:
            worst = min(worst, float(diffs.min()))
    _line(
        "criterion 4a",
        worst >= -1e-8,
        f"log posterior monotone over 100 instances, worst step {worst:.2e} "
        f"(>= -1e-8)",
    )


def _oracle_single_mle(data):
    """Brute-force K=3 single-component MLE on the softmax scale."""
    orderings, nranked = data.orderings, data.nranked

    def neg(theta):
        p = np.exp(np.array([theta[0], theta[1], 0.0]))
        return -mixture_loglik_direct(p[None, :], np.array([1.0]), orderings, nranked)

    best = None
    for start in ([0.0, 0.0], [1.0, -1.0], [-1.0, 1.0], [2.0, 2.0]):
        res = minimize(
            neg,
            np.array(start),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    p = np.exp(np.array([best.x[0], best.x[1], 0.0]))
    return p / p.sum()


def _interior_mle_exists(data):
    """Strong connectivity of the decided-preference digraph: the
    classical condition for a finite, interior maximum."""
    from scipy.sparse.csgraph import connected_components

    from plrank import paired_comparisons

    wins = paired_comparisons(data) > 0
    n, _ = connected_components(wins, directed=True, connection="strong")
    return n == 1


def test_c04b_single_component_vs_optimizer():
    rng = np.random.default_rng(77)
    worst = 0.0
    done = 0
    while done < 5:
        n = int(rng.integers(8, 21))
        mat, _ = random_partial_matrix(rng, n, 3)
        data = Dataset.from_orderings(mat)
        if not _interior_mle_exists(data):
            continue
        done += 1
        fit = fit_map_multistart(
            data, 1, n_start=3, rng=rng, tol=1e-12, max_iter=5000
        )
        oracle = _oracle_single_mle(data)
        worst = max(worst, float(np.abs(fit.supports[0] - oracle).max()))
    _line(
        "criterion 4b",
        worst <= 1e-4,
        f"flat single-component fit vs brute-force optimizer, worst "
        f"L-inf {worst:.2e} (<= 1e-4)",
    )


TRUE_2COMP = MixtureParams(
    np.array([[0.55, 0.25, 0.12, 0.08], [0.08, 0.12, 0.25, 0.55]]),
    np.array([0.6, 0.4]),
)


def _aligned_error(fit, true):
    best = np.inf
    for perm in ((0, 1), (1, 0)):
        idx = list(perm)
        err = max(
            float(np.abs(fit.supports[idx] - true.supports).max()),
            float(np.abs(fit.weights[idx] - true.weights).max()),
        )
        best = min(best, err)
    return best


def test_c04c_two_component_recovery():
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        _, data = sample_mixture(3000, 4, 2, TRUE_2COMP, rng)
        fit = fit_map_multistart(data, 2, n_start=4, rng=rng)
        err = _aligned_error(fit, TRUE_2COMP)
        worst = max(worst, err)
        hits += err <= 0.05
    elapsed = time.perf_counter() - t0
    _line(
        "criterion 4c",
        hits >= 18 and elapsed < 120.0,
        f"{hits}/20 seeds recover within L-inf 0.05 (need 18), worst "
        f"{worst:.3f}, {elapsed:.0f}s (< 120s)",
    )


# ------------------------------------------------------------ criterion 5

_C5_ELAPSED = {}


def test_c05a_conditional_moments():
    _t0 = time.perf_counter()
    orderings = np.array([[1, 2, 0], [2, 0, 0], [3, 1, 2], [1, 3, 0], [2, 1, 3]])
    data = Dataset.from_orderings(orderings)
    z0 = np.array([1, 1, 2, 2, 2])
    p0 = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])

    # weight conditional: the first sweep's weight draw, from a fixed
    # membership state, across an ensemble of independent one-sweep chains
    M = 4000
    W = np.empty(M)
    for m in range(M):
        ch = gibbs_run(
            data, 2, n_iter=1, n_burn=0, rng=7_000_000 + m, init={"p": p0, "z": z0}
        )
        W[m] = ch.W[0, 0]
    a, b = 3.0, 4.0  # flat 1 + membership counts (2, 3)
    A = a + b
    mean_th = a / A
    var_th = a * b / (A**2 * (A + 1))
    z_mean = abs(W.mean() - mean_th) / math.sqrt(var_th / M)
    # fourth central moment of the first-coordinate marginal, for SE(s^2)
    bd = stats.beta(a, b)
    mu = bd.mean()
    mu4 = (
        bd.moment(4)
        - 4 * bd.moment(3) * mu
        + 6 * bd.moment(2) * mu**2
        - 3 * mu**4
    )
    se_var = math.sqrt((mu4 - var_th**2 * (M - 3) / (M - 1)) / M)
    z_var = abs(W.var(ddof=1) - var_th) / se_var

    # support conditional: library (shape, rate) on a hand-fixed latent
    # state, given as the sweep gives it (one cell per unit, 0-based
    # components, stage-major times), then the sweep's own draw form at
    # n = 10^4
    hyper = Hyperparams.expand(1.5, 0.7, 1.0, 2, 3)
    yrng = np.random.default_rng(12)
    y = yrng.exponential(0.7, size=(5, 3))
    y[data.orderings == 0] = 0.0
    shape, rate = _support_conditional(data, z0 - 1, np.ones(5), y.T.copy(), hyper)
    n = 10_000
    draws = np.random.default_rng(314159).standard_gamma(
        np.broadcast_to(shape, (n, 2, 3))
    ) / rate
    zg_mean = np.abs(draws.mean(axis=0) - shape / rate) / (np.sqrt(shape / n) / rate)
    zg_var = np.abs(draws.var(axis=0, ddof=1) - shape / rate**2) / (
        np.sqrt((2 * shape**2 + 6 * shape) / n) / rate**2
    )
    worst = max(z_mean, z_var, float(zg_mean.max()), float(zg_var.max()))
    _C5_ELAPSED["a"] = time.perf_counter() - _t0
    _line(
        "criterion 5a",
        worst <= 3.0,
        f"weight and support conditionals: worst moment z-score "
        f"{worst:.2f} (<= 3)",
    )


def _two_item_posterior_cdf():
    """CDF of the identified share after one top-1 win, by nested
    quadrature of the unnormalized posterior over the winning region."""
    U = 40.0
    p2 = np.concatenate(
        [np.geomspace(1e-6, 0.1, 400), np.linspace(0.1, U, 1600)[1:]]
    )
    s = np.linspace(0.0, 1.0, 801)
    t_grid = np.linspace(0.0005, 0.9995, 199)
    cdf = np.empty_like(t_grid)
    for j, t in enumerate(t_grid):
        c = t / (1.0 - t)
        hi = np.minimum(c * p2, U)
        p1 = s[None, :] * hi[:, None]
        integ = (p1 / (p1 + p2[:, None])) * np.exp(-p1)
        inner = trapezoid(integ, dx=1.0 / (s.size - 1), axis=1) * hi
        cdf[j] = trapezoid(np.exp(-p2) * inner, x=p2)
    x = np.concatenate([np.geomspace(1e-6, 0.1, 400), np.linspace(0.1, U, 1600)[1:]])
    rows = trapezoid(
        (x[:, None] / (x[:, None] + p2[None, :]))
        * np.exp(-x[:, None] - p2[None, :]),
        x=x,
        axis=0,
    )
    cdf /= trapezoid(rows, x=p2)
    return t_grid, cdf


def test_c05b_two_item_posterior_vs_quadrature():
    _t0 = time.perf_counter()
    t_grid, cdf = _two_item_posterior_cdf()
    data = Dataset.from_orderings(np.array([[1, 0]]))
    hyper = Hyperparams.expand(1.0, 1.0, 1.0, 1, 2)
    chain = gibbs_run(data, 1, hyper=hyper, n_iter=110_000, n_burn=10_000, rng=5150)
    phi = np.sort(chain.P[:, 0])
    L = phi.size
    F = np.interp(phi, t_grid, cdf, left=0.0, right=1.0)
    i = np.arange(1, L + 1)
    D = max(np.max(np.abs(F - i / L)), np.max(np.abs(F - (i - 1) / L)))
    _C5_ELAPSED["b"] = time.perf_counter() - _t0
    _line(
        "criterion 5b",
        L == 100_000 and D <= 0.02,
        f"Kolmogorov distance to quadrature posterior {D:.4f} (<= 0.02) "
        f"at L = {L}",
    )


def test_c05c_posterior_mean_vs_mle():
    _t0 = time.perf_counter()
    rng = np.random.default_rng(1000)
    _, data = sample_mixture(3000, 4, 2, TRUE_2COMP, rng)
    fit = fit_map_multistart(data, 2, n_start=4, rng=rng)
    mle = np.concatenate([fit.supports.ravel(), fit.weights])
    chain = gibbs_run(
        data, 2, n_iter=2000, n_burn=500, rng=77, init=init_from_map(fit)
    )
    L = chain.n_kept
    B = 25
    m = L // B
    draws = np.concatenate([chain.P, chain.W], axis=1)
    batches = draws[: B * m].reshape(B, m, -1).mean(axis=1)
    mcse = batches.std(axis=0, ddof=1) / np.sqrt(B)
    z = np.abs(draws.mean(axis=0) - mle) / mcse
    _C5_ELAPSED["c"] = time.perf_counter() - _t0
    _line(
        "criterion 5c",
        float(z.max()) <= 3.0,
        f"posterior means vs flat-prior mode: worst z {z.max():.2f} over "
        f"{draws.shape[1]} coordinates (<= 3 batch-means MCSE)",
    )


def test_c05d_wall_budget():
    total = sum(_C5_ELAPSED.values())
    parts = ", ".join(f"{k} {v:.0f}s" for k, v in sorted(_C5_ELAPSED.items()))
    _line(
        "criterion 5 budget",
        len(_C5_ELAPSED) == 3 and total < 300.0,
        f"sampler checks ({parts}) total {total:.0f}s (< 300s)",
    )


# ------------------------------------------------------------ criterion 6


def test_c06_selection_arithmetic():
    # 100 identical two-item rows with first-place share exp(-0.005)
    # give a plug-in deviance of exactly 1
    a = math.exp(-0.005)
    mat = np.tile([1, 2], (100, 1))
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 1, max_iter=2, rng=np.random.default_rng(0))
    import dataclasses

    fit = dataclasses.replace(
        fit, supports=np.array([[a, 1.0 - a]]), weights=np.array([1.0])
    )
    report = selection_criteria([np.array([2.0, 4.0])], [fit], data)
    logN = math.log(100.0)
    expected = {
        "D_bar": 3.0,
        "D_hat": 1.0,
        "var_D": 2.0,
        "DIC1": 5.0,
        "DIC2": 4.0,
        "BPIC1": 7.0,
        "BPIC2": 5.0,
        "BICM1": 3.0 + (logN - 1.0),
        "BICM2": 1.0 + logN,
    }
    row = report.to_rows()[0]
    worst = max(abs(row[k] - v) for k, v in expected.items())

    # label-permutation invariance on a two-component report
    rng = np.random.default_rng(3)
    mat2, _ = random_partial_matrix(rng, 40, 4)
    data2 = Dataset.from_orderings(mat2)
    fit2 = fit_map_multistart(data2, 2, n_start=2, rng=rng)
    trace = rng.uniform(50.0, 60.0, size=30)
    rep_a = selection_criteria([trace], [fit2], data2)
    flipped = dataclasses.replace(
        fit2, supports=fit2.supports[::-1].copy(), weights=fit2.weights[::-1].copy()
    )
    rep_b = selection_criteria([trace], [flipped], data2)
    invariant = all(
        getattr(rep_a, f)[0] == getattr(rep_b, f)[0]
        for f in ("dic1", "dic2", "bpic1", "bpic2", "bicm1", "bicm2")
    )
    _line(
        "criterion 6",
        worst <= 1e-12 and invariant,
        f"hand-computed criteria exact (worst dev {worst:.1e} <= 1e-12), "
        f"label permutation invariant: {invariant}",
    )


# ------------------------------------------------------------ criterion 7


def test_c07_ppc_calibration():
    inside = 0
    all_in_range = True
    depths_ok = True
    totals_ok = True
    for rep in range(20):
        rng = np.random.default_rng(4000 + rep)
        supports = rng.dirichlet(np.full(4, 3.0))[None, :]
        true = MixtureParams(supports, np.array([1.0]))
        _, complete = sample_mixture(260, 4, 1, true, rng)
        data, _ = make_partial(complete, probcens=(0.2, 0.3, 0.5), rng=rng)
        chain = gibbs_run(data, 1, n_iter=600, n_burn=100, rng=rng)
        out = ppcheck(data, [chain], rng)
        p1 = float(out.p_top1[0])
        p2 = float(out.p_paired[0])
        all_in_range &= 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
        inside += 0.05 < p1 < 0.95 and 0.05 < p2 < 0.95
        # replicated datasets keep each unit's censoring depth
        p, w = chain.supports_3d()[-1], chain.W[-1]
        rep_ord = _replicate_orderings(p, w, data.nranked, rng)
        depths_ok &= np.array_equal((rep_ord > 0).sum(axis=1), data.nranked)
        # the replicate that ppcheck scores holds, per depth-m stratum, n_m
        # first places and m(m-1)/2 + m(K-m) decided pairs per unit
        strata, table = _strata(data)
        out = _replicate_counts(strata, table, p / p.sum(axis=1)[:, None], w, rng)
        for s, (r, tau) in zip(strata, out):
            m = s.depth
            pairs = s.size * (m * (m - 1) // 2 + m * (4 - m))
            totals_ok &= r.sum() == s.size and tau.sum() == pairs
    _line(
        "criterion 7",
        inside >= 18 and all_in_range and depths_ok and totals_ok,
        f"{inside}/20 replications give interior p-values (need 18); "
        f"p in [0,1]: {all_in_range}; replicate depths preserved: {depths_ok}; "
        f"replicate stratum totals: {totals_ok}",
    )


# ------------------------------------------------------------ criterion 8


def test_c08_relabel_half_swap():
    rng = np.random.default_rng(21)
    base_P = np.array([[0.62, 0.24, 0.14], [0.10, 0.33, 0.57]])
    base_W = np.array([0.7, 0.3])
    L = 40
    P = np.empty((L, 6))
    W = np.empty((L, 2))
    for l in range(L):
        jitter = rng.normal(0.0, 0.01, size=(2, 3))
        rows = np.clip(base_P + jitter, 0.02, None)
        rows /= rows.sum(axis=1, keepdims=True)
        w = np.clip(base_W + rng.normal(0.0, 0.01, size=2), 0.05, None)
        w /= w.sum()
        if l >= L // 2:  # swap the labels on the back half
            rows = rows[::-1]
            w = w[::-1]
        P[l] = rows.reshape(-1)
        W[l] = w
    ll = rng.normal(-50.0, 1.0, size=L)
    chain = GibbsChain(
        P=P, W=W, log_lik=ll, deviance=-2.0 * ll, n_iter=L, n_burn=0, seed=None
    )
    pivot = MixtureParams(base_P, base_W)
    out = pra_relabel(chain, pivot)
    back = out.supports_3d()[L // 2 :]
    restored = np.array_equal(out.P[: L // 2], chain.P[: L // 2]) and np.array_equal(
        back, chain.supports_3d()[L // 2 :][:, ::-1]
    )
    ll_dev = float(np.abs(out.log_lik - chain.log_lik).max())
    again = pra_relabel(out, pivot)
    idempotent = np.array_equal(again.P, out.P) and np.array_equal(again.W, out.W)
    perm_ok = np.array_equal(
        out.permutations,
        np.vstack([np.tile([0, 1], (L // 2, 1)), np.tile([1, 0], (L // 2, 1))]),
    )
    _line(
        "criterion 8",
        restored and perm_ok and ll_dev <= 1e-10 and idempotent,
        f"half-swapped chain restored exactly: {restored and perm_ok}; "
        f"log-lik deviation {ll_dev:.1e} (<= 1e-10); idempotent: {idempotent}",
    )


# ------------------------------------------------------------ criterion 9


def test_c09_performance():
    import subprocess

    # likelihood timing in a fresh single-threaded process
    code = (
        "import time\n"
        "import numpy as np\n"
        "from plrank import MixtureParams, mixture_loglik, sample_mixture\n"
        "params = MixtureParams(np.random.default_rng(5).gamma(2.0, 1.0, (3, 6)),\n"
        "                       np.array([0.5, 0.3, 0.2]))\n"
        "_, data = sample_mixture(15000, 6, 3, params, np.random.default_rng(8))\n"
        "best = float('inf')\n"
        "for _ in range(5):\n"
        "    t0 = time.perf_counter()\n"
        "    ll = mixture_loglik(params, data)\n"
        "    best = min(best, time.perf_counter() - t0)\n"
        "assert ll < 0.0\n"
        "print(f'ms={best * 1e3:.3f}')\n"
    )
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    ms = float(proc.stdout.strip().split("=")[1])

    params = MixtureParams(
        np.random.default_rng(5).gamma(2.0, 1.0, (3, 6)),
        np.array([0.5, 0.3, 0.2]),
    )
    _, data = sample_mixture(15000, 6, 3, params, np.random.default_rng(8))
    t0 = time.perf_counter()
    chain = gibbs_run(data, 3, n_iter=22_000, n_burn=2_000, rng=606)
    gibbs_s = time.perf_counter() - t0
    _line(
        "criterion 9",
        ms <= 50.0 and gibbs_s <= 600.0 and chain.n_kept == 20_000,
        f"likelihood {ms:.1f}ms single-threaded (<= 50ms); 22000-sweep "
        f"three-component sampler {gibbs_s:.0f}s (<= 600s)",
    )


# ------------------------------------------------------------ criterion 10

DATA_DIR = os.environ.get("PLRANK_DATA_DIR", "data")
APA_PATH = os.path.join(DATA_DIR, "d_apa.csv")
CARCONF_PATH = os.path.join(DATA_DIR, "d_carconf.csv")

needs_apa = pytest.mark.skipif(
    not os.path.exists(APA_PATH),
    reason=f"{APA_PATH} not present (set PLRANK_DATA_DIR to enable)",
)
needs_carconf = pytest.mark.skipif(
    not os.path.exists(CARCONF_PATH),
    reason=f"{CARCONF_PATH} not present (set PLRANK_DATA_DIR to enable)",
)

APA_SUPPORTS = np.array(
    [
        [0.06247449, 0.03295813, 0.01664217, 0.51188738, 0.37603783],
        [0.27331708, 0.04903217, 0.61671929, 0.02382562, 0.03710584],
        [0.18807113, 0.22080423, 0.14093403, 0.22727853, 0.22291209],
    ]
)
APA_WEIGHTS = np.array([0.1035369, 0.2732693, 0.6231937])
APA_DIC1 = np.array([103204.4, 100771.9, 100591.1])


def _load_apa():
    return Dataset.from_orderings(read_sequence_csv(APA_PATH))


def _apa_map(data, G, rng_seed=7):
    return fit_map_multistart(
        data,
        G,
        n_start=30,
        centered_start=True,
        max_iter=400 * G,
        rng=np.random.default_rng(rng_seed),
        n_jobs=os.cpu_count() or 1,
    )


def _align_to(ref_P, P, W):
    import itertools

    G = P.shape[0]
    best = None
    for perm in itertools.permutations(range(G)):
        idx = list(perm)
        err = np.abs(P[idx] - ref_P).max()
        if best is None or err < best[0]:
            best = (err, idx)
    return P[best[1]], W[best[1]]


@needs_apa
def test_c10a_ballot_map_fit():
    data = _load_apa()
    fit = _apa_map(data, 3)
    P, W = _align_to(APA_SUPPORTS, fit.supports, fit.weights)
    dev = max(float(np.abs(P - APA_SUPPORTS).max()), float(np.abs(W - APA_WEIGHTS).max()))
    _line(
        "criterion 10a",
        dev <= 0.01,
        f"three-component MAP supports/weights within {dev:.4f} (<= 0.01)",
    )


@needs_apa
def test_c10b_ballot_selection_trend():
    data = _load_apa()
    fits, traces = [], []
    for G in (1, 2, 3):
        fit = _apa_map(data, G)
        chain = gibbs_run(
            data, G, n_iter=22_000, n_burn=2_000, rng=G, init=init_from_map(fit)
        )
        fits.append(fit)
        traces.append(chain.deviance)
    report = selection_criteria(traces, fits, data)
    dic1 = report.dic1
    decreasing = bool(dic1[0] > dic1[1] > dic1[2])
    rel = np.abs(dic1 - APA_DIC1) / APA_DIC1
    _line(
        "criterion 10b",
        decreasing and float(rel.max()) <= 0.005,
        f"DIC trend {np.round(dic1, 1).tolist()} decreasing: {decreasing}; "
        f"worst relative gap {rel.max():.4f} (<= 0.005)",
    )


@needs_apa
def test_c10c_ballot_ppcheck_pattern():
    data = _load_apa()
    rng = np.random.default_rng(11)
    chains = []
    for G in (1, 2, 3):
        fit = _apa_map(data, G)
        chains.append(
            gibbs_run(
                data, G, n_iter=22_000, n_burn=2_000, rng=100 + G,
                init=init_from_map(fit),
            )
        )
    out = ppcheck(data, chains, rng)
    top1_zero = bool(np.all(out.p_top1 <= 1e-3))
    paired_g2 = float(out.p_paired[1])
    _line(
        "criterion 10c",
        top1_zero and abs(paired_g2 - 0.63) <= 0.03,
        f"top1 p-values {np.round(out.p_top1, 4).tolist()} all zero: "
        f"{top1_zero}; paired p at G=2 {paired_g2:.3f} (0.63 +/- 0.03)",
    )


@needs_carconf
def test_c10d_carconf_homogeneous_bic():
    data = Dataset.from_orderings(read_sequence_csv(CARCONF_PATH))
    top1 = rank_summaries(data).marginal_rank_distr[0].astype(np.float64)
    completed = make_complete(data, probitems=top1, rng=np.random.default_rng(9))
    fit = fit_map_multistart(
        completed,
        1,
        n_start=30,
        max_iter=400,
        rng=np.random.default_rng(13),
        n_jobs=os.cpu_count() or 1,
    )
    _line(
        "criterion 10d",
        abs(fit.bic - 5475.685) <= 0.5,
        f"homogeneous completed-data BIC {fit.bic:.3f} (5475.685 +/- 0.5)",
    )
