import math

import numpy as np
import pytest

from plrank import (
    Dataset,
    MixtureParams,
    ValidationError,
    fit_map,
    gibbs_run,
    mixture_loglik,
    selection_criteria,
)
from oracles import random_partial_matrix


def _tiny_fit(data, G, seed=0):
    return fit_map(data, G, rng=np.random.default_rng(seed))


def test_hand_arithmetic():
    rng = np.random.default_rng(0)
    mat, _ = random_partial_matrix(rng, 100, 3)
    data = Dataset.from_orderings(mat)
    fit = _tiny_fit(data, 1)
    report = selection_criteria([np.array([2.0, 4.0])], [fit], data)
    d_hat = -2.0 * mixture_loglik(fit.params(), data)
    d_bar, var = 3.0, 2.0
    pe = d_bar - d_hat
    logn = math.log(100)
    assert report.D_bar[0] == pytest.approx(d_bar, abs=1e-12)
    assert report.var_D[0] == pytest.approx(var, abs=1e-12)
    assert report.D_hat[0] == pytest.approx(d_hat, abs=1e-12)
    assert report.dic1[0] == pytest.approx(d_bar + pe, abs=1e-12)
    assert report.dic2[0] == pytest.approx(d_bar + var / 2, abs=1e-12)
    assert report.bpic1[0] == pytest.approx(d_bar + 2 * pe, abs=1e-12)
    assert report.bpic2[0] == pytest.approx(d_bar + var, abs=1e-12)
    assert report.bicm1[0] == pytest.approx(d_bar + (var / 2) * (logn - 1), abs=1e-12)
    assert report.bicm2[0] == pytest.approx(d_hat + (var / 2) * logn, abs=1e-12)
    # BPIC1 − DIC1 equals the effective complexity by construction
    assert report.bpic1[0] - report.dic1[0] == pytest.approx(pe, abs=1e-12)


def test_label_permutation_invariance():
    import dataclasses

    rng = np.random.default_rng(1)
    mat, _ = random_partial_matrix(rng, 60, 4)
    data = Dataset.from_orderings(mat)
    fit = _tiny_fit(data, 2, seed=3)
    trace = rng.uniform(100, 120, size=50)
    a = selection_criteria([trace], [fit], data)
    swapped = dataclasses.replace(
        fit,
        supports=fit.supports[::-1].copy(),
        weights=fit.weights[::-1].copy(),
    )
    b = selection_criteria([trace], [swapped], data)
    for field in ("dic1", "dic2", "bpic1", "bpic2", "bicm1", "bicm2", "D_hat"):
        assert getattr(a, field)[0] == getattr(b, field)[0]


def test_single_draw_trace_has_zero_variance():
    rng = np.random.default_rng(2)
    mat, _ = random_partial_matrix(rng, 20, 3)
    data = Dataset.from_orderings(mat)
    fit = _tiny_fit(data, 1)
    report = selection_criteria([np.array([5.0])], [fit], data)
    assert report.var_D[0] == 0.0
    assert report.dic2[0] == report.D_bar[0]


def test_point_estimate_mean_and_median():
    rng = np.random.default_rng(3)
    mat, _ = random_partial_matrix(rng, 40, 3)
    data = Dataset.from_orderings(mat)
    fit = _tiny_fit(data, 2, seed=5)
    chain = gibbs_run(data, 2, n_iter=60, n_burn=10, rng=7)
    for point, agg in (("mean", np.mean), ("median", np.median)):
        report = selection_criteria(
            [chain.deviance], [fit], data, point_estimate=point, chains=[chain]
        )
        p = agg(chain.supports_3d(), axis=0)
        w = agg(chain.W, axis=0)
        w = w / w.sum()
        want = -2.0 * mixture_loglik(MixtureParams(p, w), data)
        assert report.D_hat[0] == pytest.approx(want, abs=1e-10)
        assert report.point_estimate == point
    with pytest.raises(ValidationError):
        selection_criteria(
            [chain.deviance], [fit], data, point_estimate="mean", chains=None
        )
    with pytest.raises(ValidationError):
        selection_criteria(
            [chain.deviance], [fit], data, point_estimate="mode", chains=[chain]
        )
    # an unknown name is named as such, with or without chains
    with pytest.raises(ValidationError, match="must be map, mean, or median"):
        selection_criteria([chain.deviance], [fit], data, point_estimate="bogus")


def test_row_layout_and_alignment_checks():
    rng = np.random.default_rng(4)
    mat, _ = random_partial_matrix(rng, 30, 3)
    data = Dataset.from_orderings(mat)
    f1 = _tiny_fit(data, 1)
    f2 = _tiny_fit(data, 2, seed=9)
    report = selection_criteria(
        [np.array([3.0, 5.0]), np.array([4.0, 4.5])], [f1, f2], data
    )
    rows = report.to_rows()
    assert [r["G"] for r in rows] == [1, 2]
    assert set(rows[0]) == {
        "G", "D_bar", "D_hat", "var_D", "DIC1", "DIC2",
        "BPIC1", "BPIC2", "BICM1", "BICM2", "complexity_ok",
    }
    with pytest.raises(ValidationError):
        selection_criteria([np.array([1.0])], [f1, f2], data)
    with pytest.raises(ValidationError):
        selection_criteria([], [], data)
    with pytest.raises(ValidationError, match="chains must align"):
        selection_criteria([np.array([1.0])], [f1], data, chains=[None, None])


def test_complexity_flag():
    rng = np.random.default_rng(5)
    mat, _ = random_partial_matrix(rng, 50, 3)
    data = Dataset.from_orderings(mat)
    fit = _tiny_fit(data, 1)
    d_hat = -2.0 * mixture_loglik(fit.params(), data)
    good = selection_criteria([np.array([d_hat + 1, d_hat + 3])], [fit], data)
    assert bool(good.complexity_ok[0])
    bad = selection_criteria([np.array([d_hat - 5, d_hat - 3])], [fit], data)
    assert not bool(bad.complexity_ok[0])


def test_selection_takes_g_from_the_fits():
    import inspect

    assert list(inspect.signature(selection_criteria).parameters) == [
        "deviance_traces", "map_fits", "data", "point_estimate", "chains",
    ]
    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 30, 3)
    data = Dataset.from_orderings(mat)
    fits = [_tiny_fit(data, 2, seed=1), _tiny_fit(data, 1)]
    report = selection_criteria([np.array([3.0]), np.array([4.0])], fits, data)
    assert report.g_values.tolist() == [2, 1]
