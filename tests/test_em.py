import math
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from plrank import (
    Dataset,
    Hyperparams,
    MixtureParams,
    ValidationError,
    bic,
    em_step,
    fit_map,
    fit_map_multistart,
    mixture_loglik,
    sample_mixture,
)
from oracles import (
    em_update_single,
    random_partial_matrix,
    responsibilities_direct,
)


def test_hyperparams_expand_and_flags():
    h = Hyperparams.expand(2.0, 0.5, 1.5, 3, 4)
    assert h.shape.shape == (3, 4) and np.all(h.shape == 2.0)
    assert h.rate.tolist() == [0.5] * 3
    assert h.alpha.tolist() == [1.5] * 3
    assert not h.is_flat
    assert Hyperparams.flat(2, 5).is_flat
    with pytest.raises(ValidationError):
        Hyperparams.expand(-1.0, 0.0, 1.0, 2, 3)


def test_single_component_update_matches_loop_oracle():
    mat = np.array([[2, 1, 3], [3, 0, 0], [1, 3, 2]])
    depths = np.array([3, 1, 3])
    data = Dataset.from_orderings(mat)
    p0 = np.array([0.4, 0.9, 0.7])
    params = MixtureParams(p0[None, :], np.array([1.0]))
    new, resp = em_step(params, data, Hyperparams.flat(1, 3))
    want = em_update_single(p0, mat, depths)
    assert np.allclose(new.supports[0], want, atol=1e-12)
    assert np.allclose(resp, 1.0)
    # a prior or params over other items than the data's are refused
    with pytest.raises(ValidationError, match="hyper dimensions must match"):
        em_step(params, data, Hyperparams.flat(1, 4))
    with pytest.raises(ValidationError, match="params cover 4 items but data has 3"):
        em_step(MixtureParams.uniform(1, 4), data, Hyperparams.flat(1, 4))


def test_update_exact_at_extreme_supports():
    # the remaining mass at late stages is 1e-17 scale; a running
    # difference from the total rounds it to 0 and the update divides by it
    data = Dataset.from_orderings(np.array([[1, 2, 3], [1, 3, 2]]))
    params = MixtureParams(np.array([[1.0, 1e-17, 1e-17]]), np.array([1.0]))
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="invalid value")
        warnings.filterwarnings("ignore", message="support estimate hit")
        new, _ = em_step(params, data, Hyperparams.flat(1, 3))
    assert new.supports[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_single_component_update_with_prior():
    rng = np.random.default_rng(0)
    mat, depths = random_partial_matrix(rng, 20, 4)
    data = Dataset.from_orderings(mat)
    p0 = rng.uniform(0.2, 1.0, size=4)
    shape = np.full((1, 4), 2.5)
    hyper = Hyperparams(shape=shape, rate=np.array([1.2]), alpha=np.array([1.0]))
    params = MixtureParams(p0[None, :], np.array([1.0]))
    new, _ = em_step(params, data, hyper)
    want = em_update_single(p0, mat, depths, shape=shape[0], rate=1.2)
    assert np.allclose(new.supports[0], want, atol=1e-12)


def test_responsibilities_match_direct():
    rng = np.random.default_rng(1)
    mat, depths = random_partial_matrix(rng, 25, 4)
    data = Dataset.from_orderings(mat)
    sup = rng.uniform(0.1, 1.5, size=(3, 4))
    w = rng.dirichlet(np.ones(3))
    params = MixtureParams(sup, w)
    _, resp = em_step(params, data, Hyperparams.flat(3, 4))
    want = responsibilities_direct(sup, w, mat, depths)
    assert np.allclose(resp, want, atol=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_monotone_log_posterior():
    rng = np.random.default_rng(2)
    for _ in range(30):
        K = int(rng.integers(3, 6))
        G = int(rng.integers(1, 4))
        N = int(rng.integers(8, 40))
        mat, _ = random_partial_matrix(rng, N, K)
        data = Dataset.from_orderings(mat)
        if rng.uniform() < 0.5:
            hyper = Hyperparams.flat(G, K)
        else:
            hyper = Hyperparams.expand(
                rng.uniform(1.0, 3.0), rng.uniform(0.0, 1.0),
                rng.uniform(1.0, 2.0), G, K,
            )
        fit = fit_map(data, G, hyper=hyper, max_iter=60, rng=rng)
        steps = np.diff(fit.log_post_trace)
        assert steps.min() > -1e-9


def test_flat_fit_matches_direct_optimizer():
    from scipy.optimize import minimize

    rng = np.random.default_rng(3)
    mat, depths = random_partial_matrix(rng, 15, 3)
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 1, max_iter=4000, tol=1e-13, rng=rng)

    def neg_ll(theta):
        p = np.exp(np.concatenate([theta, [0.0]]))
        return -mixture_loglik(MixtureParams(p[None, :], np.array([1.0])), data)

    best = None
    for s in range(4):
        res = minimize(
            neg_ll,
            np.random.default_rng(s).normal(size=2),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000},
        )
        if best is None or res.fun < best.fun:
            best = res
    p_opt = np.exp(np.concatenate([best.x, [0.0]]))
    p_opt /= p_opt.sum()
    assert np.abs(fit.supports[0] - p_opt).max() < 1e-5
    assert fit.log_lik == pytest.approx(-best.fun, abs=1e-8)


def test_flat_fit_reports_mle_quantities():
    rng = np.random.default_rng(4)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 2, rng=rng)
    assert fit.bic == pytest.approx(bic(fit.log_lik, 4, 2, 30), abs=1e-12)
    assert np.allclose(fit.supports.sum(axis=1), 1.0)
    assert fit.weights.shape == (2,)
    assert np.isclose(fit.weights.sum(), 1.0)
    assert fit.labels.shape == (30,)
    assert fit.labels.min() >= 1 and fit.labels.max() <= 2
    assert np.array_equal(fit.labels, np.argmax(fit.responsibilities, 1) + 1)
    assert fit.log_post == fit.log_post_trace[-1]
    # flat prior: log posterior kernel equals the log likelihood
    assert fit.log_post == pytest.approx(fit.log_lik, abs=1e-9)


def test_bic_arithmetic():
    val = bic(-10.0, 3, 2, 50)
    assert val == pytest.approx(20.0 + 5 * math.log(50), abs=1e-12)
    # one component, K items: K-1 free support parameters, no free weight
    assert bic(-1.0, 4, 1, 10) == pytest.approx(2.0 + 3 * math.log(10), abs=1e-12)


def test_informative_prior_has_no_bic():
    rng = np.random.default_rng(5)
    mat, _ = random_partial_matrix(rng, 20, 3)
    data = Dataset.from_orderings(mat)
    hyper = Hyperparams.expand(2.0, 1.0, 2.0, 1, 3)
    fit = fit_map(data, 1, hyper=hyper, rng=rng)
    assert fit.bic is None
    assert fit.log_post != pytest.approx(fit.log_lik)


def test_multistart_deterministic_and_parallel_equivalent(monkeypatch, fan_outs):
    from plrank import em

    # the data are far too small to pay for a pool: lift the work gate
    monkeypatch.setattr(em, "_POOL_MIN_WORK", 0)
    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 40, 4)
    data = Dataset.from_orderings(mat)
    a = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9))
    b = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9))
    c = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9), n_jobs=2)
    assert fan_outs == [("pool", 2)]
    for other in (b, c):
        assert np.array_equal(a.supports, other.supports)
        assert np.array_equal(a.weights, other.weights)
        assert np.array_equal(a.final_log_posts, other.final_log_posts)
        assert a.best_start == other.best_start
    assert a.final_log_posts.shape == (3,)
    assert a.log_post == pytest.approx(a.final_log_posts.max(), abs=0)


def test_multistart_parallel_under_spawn(monkeypatch, fan_outs):
    # under spawn (and forkserver, the default from Python 3.14 on Linux)
    # the dataset is pickled once per worker through the pool initializer,
    # not once per job, and the fits are those of the serial run
    import concurrent.futures
    import multiprocessing

    from plrank import em

    monkeypatch.setattr(em, "_POOL_MIN_WORK", 0)

    class SpawnPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            super().__init__(mp_context=multiprocessing.get_context("spawn"), **kwargs)

    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 40, 4)
    data = Dataset.from_orderings(mat)
    serial = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9))
    pickled = []
    reduce_ex = Dataset.__reduce_ex__

    def counted(self, protocol):
        pickled.append(self is data)
        return reduce_ex(self, protocol)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
    monkeypatch.setattr(Dataset, "__reduce_ex__", counted)
    pooled = fit_map_multistart(data, 2, 3, rng=np.random.default_rng(9), n_jobs=2)
    assert fan_outs == [("pool", 2)]
    assert 1 <= sum(pickled) <= 2
    assert np.array_equal(serial.supports, pooled.supports)
    assert np.array_equal(serial.final_log_posts, pooled.final_log_posts)
    assert serial.best_start == pooled.best_start


def test_pool_starts_only_when_the_work_pays(monkeypatch, fan_outs):
    # the work a pool can save = (distinct-row cells + the per-step price)
    # x (the jobs' component-steps less the most that one worker must run:
    # the largest job, or an equal share of them all); 3 starts at G=1 on 2
    # workers save at most 3 - 1.5 = 1.5 x max_iter steps. The cap bounds
    # the work, and these fits converge long before it (at G=2 one start of
    # these data runs past the ~900 iterations where the gate flips)
    import concurrent.futures

    from plrank import em

    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 40, 4)
    data = Dataset.from_orderings(mat)
    price = data.patterns.rows.orderings.size + em._STEP_CELLS
    above = -(-2 * em._POOL_MIN_WORK // (3 * price))
    below = above - 1
    assert price * 3 * below < 2 * em._POOL_MIN_WORK <= price * 3 * above

    def fits(max_iter):
        return fit_map_multistart(data, 1, 3, max_iter=max_iter,
                                  rng=np.random.default_rng(9), n_jobs=2)

    pooled = fits(above)
    assert fan_outs == [("pool", 2)]

    class NoPool:
        def __init__(self, **kwargs):
            raise AssertionError("a pool started below the work gate")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    serial = fits(below)
    assert serial.converged and serial.n_iter_used < below
    assert np.array_equal(serial.supports, pooled.supports)
    assert np.array_equal(serial.final_log_posts, pooled.final_log_posts)


def _tagged(data, job):
    return job, data.n_units


def test_pool_is_priced_by_the_work_outside_the_largest_job(
    monkeypatch, fan_outs
):
    # the same total work pools when it splits evenly over 2 workers, and
    # stays in process when one job holds so much of it that the rest is
    # below the gate
    import concurrent.futures

    from plrank import em

    data = Dataset.from_orderings(np.array([[1, 2, 3], [2, 1, 3], [3, 1, 2]]))
    price = data.patterns.rows.orderings.size + em._STEP_CELLS
    unit = -(-em._POOL_MIN_WORK // price)  # the fewest steps that reach the gate
    even = [unit, unit]
    assert em._fan_out(_tagged, data, [0, 1], 2, even, [1, 1]) == [(0, 3), (1, 3)]
    assert fan_outs == [("pool", 2)]

    class NoPool:
        def __init__(self, **kwargs):
            raise AssertionError("a pool started for a list dominated by one job")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    dominated = [2 * unit, unit - 1]
    assert price * sum(dominated) >= em._POOL_MIN_WORK
    assert em._fan_out(_tagged, data, [0, 1], 2, dominated, [1, 1]) == [(0, 3), (1, 3)]


def test_wide_tables_take_threads_where_the_pool_would_not_pay(fan_outs):
    # a list the pool would not pay for runs on threads when every job's
    # table (distinct-row cells x its G) reaches the crossover; one narrower
    # job keeps it serial, and a list the pool pays for takes the pool
    from plrank import em

    rng = np.random.default_rng(3)
    data = Dataset.from_orderings(np.array([rng.permutation(10) + 1 for _ in range(400)]))
    cells = data.patterns.rows.orderings.size
    G = -(-em._THREAD_MIN_CELLS // cells)  # the fewest components that reach it
    assert cells * (G - 1) < em._THREAD_MIN_CELLS <= cells * G
    unit = -(-em._POOL_MIN_WORK // (cells + em._STEP_CELLS))
    want = [(j, 400) for j in range(3)]
    assert em._fan_out(_tagged, data, [0, 1, 2], 2, [1] * 3, [G] * 3) == want
    assert fan_outs == [("threads", 2)]
    assert em._fan_out(_tagged, data, [0, 1, 2], 3, [1] * 3, [G, G - 1, G]) == want
    assert em._fan_out(_tagged, data, [0, 1, 2], 1, [unit] * 3, [G] * 3) == want
    assert fan_outs == [("threads", 2)]
    assert em._fan_out(_tagged, data, [0, 1, 2], 2, [unit] * 3, [G] * 3) == want
    assert fan_outs == [("threads", 2), ("pool", 2)]


def test_thread_map_shares_the_jobs_with_the_calling_thread():
    # jobs 0 and 1 each wait for the other, so they must run at once, one
    # of them on this thread; the results come in job order
    from plrank import em

    both = threading.Barrier(2, timeout=10)
    ran = {}

    def fn(data, job):
        if job < 2:
            both.wait()
        ran[job] = threading.current_thread()
        return data + job

    assert em._thread_map(fn, 100, list(range(6)), 2) == [100, 101, 102, 103, 104, 105]
    assert threading.current_thread() in (ran[0], ran[1]) and ran[0] is not ran[1]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy keeps errstate in a context variable from 2.0")
def test_thread_map_runs_every_job_under_the_callers_errstate():
    # jobs 0 and 1 run at once on both threads, and each sees the errstate
    # the caller set around the fan-out
    from plrank import em

    both = threading.Barrier(2, timeout=10)

    def fn(data, job):
        if job < 2:
            both.wait()
        return np.geterr()["divide"], threading.current_thread()

    with np.errstate(divide="raise"):
        out = em._thread_map(fn, None, list(range(4)), 2)
    assert [e for e, _ in out] == ["raise"] * 4
    assert out[0][1] is not out[1][1]
    assert np.geterr()["divide"] != "raise"


def test_thread_map_takes_each_job_once_under_stress():
    # more threads than cores, switching as often as the interpreter allows:
    # a job taken twice or skipped would show in the runs or the results
    from plrank import em

    runs = []

    def fn(data, job):
        runs.append(job)
        return -job

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            runs.clear()
            assert em._thread_map(fn, None, list(range(200)), 8) == [-j for j in range(200)]
            assert sorted(runs) == list(range(200))
    finally:
        sys.setswitchinterval(interval)


def test_thread_map_raises_the_lowest_index_error():
    # job 3 fails while job 2 runs; job 2 then fails too. The serial loop
    # would meet job 2's error first, and no job after a failure starts
    from plrank import em

    failed = threading.Event()
    started = []

    def fn(data, job):
        started.append(job)
        if job == 2:
            assert failed.wait(10)
            raise ValueError("job 2")
        if job == 3:
            failed.set()
            raise ValueError("job 3")
        return job

    with pytest.raises(ValueError, match="job 2"):
        em._thread_map(fn, None, list(range(8)), 2)
    assert sorted(started) == [0, 1, 2, 3]
    # one failure alone is raised as the serial loop raises it
    with pytest.raises(ValueError, match="job 3"):
        em._thread_map(fn, None, [0, 1, 3, 4], 2)


def test_thread_map_stops_taking_jobs_on_an_interrupt():
    # an interrupt on the calling thread is raised at once, while the other
    # thread's job still runs, and that thread takes no job after it
    from plrank import em

    release = threading.Event()
    started = []

    def fn(data, job):
        started.append(job)
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        assert release.wait(10)

    with pytest.raises(KeyboardInterrupt):
        em._thread_map(fn, None, list(range(8)), 2)
    running = list(started)
    release.set()
    for t in threading.enumerate():
        if t is not threading.current_thread():
            t.join(10)
            assert not t.is_alive()
    assert started == running and len(running) <= 2


def test_small_fit_never_imports_the_pool(tmp_path):
    # 3 rows at the default cap, and the CLI's fit-map (2 G values x 3
    # starts) and fit-gibbs (2 chains) on n=200, K=4 data, all at 2 workers
    sim, fit, gibbs = (str(tmp_path / d) for d in ("sim", "fit", "gibbs"))
    code = (
        "import sys, numpy as np\n"
        "from plrank import Dataset, fit_map_multistart\n"
        "from plrank.cli import main\n"
        "data = Dataset.from_orderings(np.array([[1, 2, 3], [2, 1, 3], [3, 1, 2]]))\n"
        "fit_map_multistart(data, 2, 3, rng=np.random.default_rng(1), n_jobs=2)\n"
        f"sim, fit, gibbs = {sim!r}, {fit!r}, {gibbs!r}\n"
        "assert main([*'simulate --n 200 --K 4 --G 2 --seed 1 --out'.split(), sim]) == 0\n"
        "src = ['--input', sim + '/orderings.csv', '--format', 'ordering',\n"
        "       '--G', '1', '--G-max', '2', '--parallel', '2']\n"
        "fit_args = '--n-start 3 --max-iter 50 --seed 2 --out'.split()\n"
        "assert main(['fit-map', *src, *fit_args, fit]) == 0\n"
        "gibbs_args = '--n-iter 60 --n-burn 10 --seed 3 --init-from'.split()\n"
        "assert main(['fit-gibbs', *src, *gibbs_args, fit, '--out', gibbs]) == 0\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the last line, after the CLI's own reports
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_centered_start_runs():
    rng = np.random.default_rng(7)
    params = MixtureParams(
        np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]), np.array([0.5, 0.5])
    )
    _, data = sample_mixture(300, 3, 2, params, rng)
    fit = fit_map_multistart(
        data, 2, 4, centered_start=True, rng=np.random.default_rng(8)
    )
    assert fit.converged
    assert np.isfinite(fit.log_post)


def test_centered_start_reads_stage_zero():
    # weighted partial data: the centered start jitters the first-place
    # shares that the stage-0 counts of the distinct rows give, which are
    # the units' first places
    from plrank.em import _draw_centered_init

    rng = np.random.default_rng(21)
    mat, _ = random_partial_matrix(rng, 300, 6)
    counts = rng.integers(1, 50, size=300)
    data = Dataset.from_orderings(mat, counts)
    N = data.n_units
    first = np.bincount(mat[:, 0] - 1, weights=counts, minlength=6)
    init = _draw_centered_init(np.random.default_rng(3), data, 2)
    jitter = np.random.default_rng(3).uniform(0.5, 1.5, (2, 6))
    assert np.allclose(init.supports / jitter, first / N + 0.5 / N, rtol=1e-14, atol=0)


def test_degenerate_data_warns_and_floors():
    # every unit reports only item 1 first: the MLE pushes the other
    # supports to zero, which the floor catches with a warning
    mat = np.zeros((12, 3), dtype=np.int64)
    mat[:, 0] = 1
    data = Dataset.from_orderings(mat)
    with pytest.warns(RuntimeWarning):
        fit = fit_map(data, 1, max_iter=2000, rng=np.random.default_rng(0))
    assert np.isfinite(fit.log_post_trace).all()
    assert fit.supports[0, 0] > 0.999


def test_classification_scale_invariance_flat():
    rng = np.random.default_rng(10)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    sup = rng.uniform(0.1, 1.0, size=(2, 4))
    w = np.array([0.45, 0.55])
    h = Hyperparams.flat(2, 4)
    _, r1 = em_step(MixtureParams(sup, w), data, h)
    _, r2 = em_step(MixtureParams(sup * np.array([[3.0], [0.2]]), w), data, h)
    assert np.allclose(r1, r2, atol=1e-10)


def test_convergence_flag():
    rng = np.random.default_rng(11)
    mat, _ = random_partial_matrix(rng, 25, 3)
    data = Dataset.from_orderings(mat)
    done = fit_map(data, 1, rng=np.random.default_rng(1))
    assert done.converged and done.n_iter_used < 400
    capped = fit_map(data, 1, max_iter=1, rng=np.random.default_rng(1))
    assert not capped.converged and capped.n_iter_used == 1


def test_explicit_init_used():
    rng = np.random.default_rng(12)
    mat, _ = random_partial_matrix(rng, 20, 3)
    data = Dataset.from_orderings(mat)
    init = MixtureParams(np.array([[0.2, 0.3, 0.5]]), np.array([1.0]))
    fit = fit_map(data, 1, init=init, max_iter=0)
    # the init sums to 1, so its normalized supports are the init itself
    assert np.allclose(fit.supports[0], init.supports[0], atol=0)
    assert fit.n_iter_used == 0


def test_map_fit_holds_only_what_is_read():
    # the fit keeps normalized supports, and labels are derived from the
    # responsibilities rather than stored beside them
    import dataclasses
    import inspect

    from plrank import MapFit

    assert [f.name for f in dataclasses.fields(MapFit)] == [
        "supports", "weights", "responsibilities", "log_post_trace", "log_lik",
        "converged", "n_iter_used", "bic", "hyper", "final_log_posts",
        "best_start",
    ]
    assert isinstance(MapFit.labels, property)
    rng = np.random.default_rng(13)
    mat, _ = random_partial_matrix(rng, 25, 4)
    fit = fit_map(Dataset.from_orderings(mat), 3, max_iter=20, rng=rng)
    assert np.array_equal(fit.labels, np.argmax(fit.responsibilities, axis=1) + 1)
    assert list(inspect.signature(fit_map).parameters) == [
        "data", "G", "hyper", "init", "max_iter", "tol", "rng",
    ]
