"""MAP and maximum likelihood fitting by EM-style ascent.

The conjugate prior takes independent Gamma(shape c_gi, rate d_g) supports,
Dirichlet(alpha) weights, and multinomial component membership. Each
iteration computes membership responsibilities at the current parameters,
then applies closed-form updates:

    w_g  <- (alpha_g - 1 + sum_s zhat_sg) / (sum(alpha) - G + N)
    p_gi <- (c_gi - 1 + gammahat_gi) / (d_g + sum_s zhat_sg A_sgi)

where gammahat_gi weights the prefix-membership indicators by the
responsibilities and A_sgi accumulates, over the stages of unit s at which
item i was still available, the reciprocal remaining support mass at the
previous parameter value. The update is a minorize-maximize step, so the
log posterior never decreases. With the flat prior (c = 1, d = 0,
alpha = 1) the fit is plain maximum likelihood. The responsibilities come
from model._mixture_scores, the sampler's membership step too, and the
private steps run on plain (supports, weights) arrays.

Supports are kept unnormalized throughout the iterations (a positive rate
d breaks scale invariance); reported fits carry rows rescaled to sum 1.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Patterns, _order_counts
from .errors import NumericalError, ValidationError
from .model import (
    MixtureParams,
    _availability_sums,
    _check_params_data,
    _mixture_scores,
)

SUPPORT_FLOOR = 1e-12
DEFAULT_TOL = 1e-6


def default_max_iter(G: int) -> int:
    return 400 * G


@dataclass(frozen=True, eq=False)
class Hyperparams:
    """Gamma shapes (G x K), Gamma rates (G,), Dirichlet alphas (G,).

    The constructor takes full arrays; Hyperparams.expand(2.0, 0.5, 1.0,
    G=3, K=4) broadcasts scalars, expanding shape to a full matrix and
    rate/alpha to vectors.
    """

    shape: np.ndarray
    rate: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.shape, dtype=np.float64)
        d = np.asarray(self.rate, dtype=np.float64)
        a = np.asarray(self.alpha, dtype=np.float64)
        if c.ndim != 2 or d.ndim != 1 or a.ndim != 1:
            raise ValidationError("shape must be G x K; rate and alpha length G")
        G = c.shape[0]
        if d.shape[0] != G or a.shape[0] != G:
            raise ValidationError("rate and alpha must match shape's G rows")
        for name, arr in (("shape", c), ("rate", d), ("alpha", a)):
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValidationError(f"{name} entries must be finite and >= 0")
        c, d, a = c.copy(), d.copy(), a.copy()
        for arr in (c, d, a):
            arr.setflags(write=False)
        object.__setattr__(self, "shape", c)
        object.__setattr__(self, "rate", d)
        object.__setattr__(self, "alpha", a)

    @classmethod
    def flat(cls, G: int, K: int) -> "Hyperparams":
        return cls(np.ones((G, K)), np.zeros(G), np.ones(G))

    @classmethod
    def expand(cls, shape, rate, alpha, G: int, K: int) -> "Hyperparams":
        c = np.broadcast_to(np.asarray(shape, dtype=np.float64), (G, K))
        d = np.broadcast_to(np.asarray(rate, dtype=np.float64), (G,))
        a = np.broadcast_to(np.asarray(alpha, dtype=np.float64), (G,))
        return cls(c.copy(), d.copy(), a.copy())

    @property
    def n_components(self) -> int:
        return self.shape.shape[0]

    @property
    def is_flat(self) -> bool:
        return (
            bool((self.shape == 1.0).all())
            and bool((self.rate == 0.0).all())
            and bool((self.alpha == 1.0).all())
        )


def _resolve_prior(hyper: Hyperparams | None, G: int, K: int) -> Hyperparams:
    """The prior of a G-component fit to K items: the flat prior when hyper
    is None, else hyper, which must be G x K; G must be >= 1."""
    if G < 1:
        raise ValidationError("G must be >= 1")
    if hyper is None:
        return Hyperparams.flat(G, K)
    if hyper.shape.shape != (G, K):
        raise ValidationError("hyper dimensions must match (G, K)")
    return hyper


def log_prior(p: np.ndarray, w: np.ndarray, hyper: Hyperparams) -> float:
    """Unnormalized log prior density at supports p and weights w.

    Normalizing constants are dropped; only differences along an
    optimization path are meaningful.
    """
    c, d, a = hyper.shape, hyper.rate, hyper.alpha
    logp = np.log(p)
    sup = np.where(c != 1.0, (c - 1.0) * logp, 0.0).sum() - (d[:, None] * p).sum()
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    wterm = np.where(a != 1.0, (a - 1.0) * logw, 0.0).sum()
    return float(sup + wterm)


def _e_step(p: np.ndarray, w: np.ndarray, pat: Patterns):
    """Responsibilities (D x G), log-likelihood and stage-major
    remaining-mass table (K x D x G) of supports p and weights w, on the
    D distinct rows of the pattern view pat (model._mixture_scores); a
    row no component supports is an error."""
    zhat, per_row, rem = _mixture_scores(pat.rows, p, w)
    if not np.isfinite(per_row).all():
        bad = int(np.nonzero(~np.isfinite(per_row[pat.index]))[0][0])
        raise NumericalError(f"row {bad} has no support under any component")
    return zhat, float(pat.rows.counts @ per_row), rem


def _m_step(data: Dataset, hyper: Hyperparams, zhat, rem):
    """Closed-form update (supports, weights) from an _e_step on the
    distinct rows data (descending depth, see Dataset.patterns) at the
    previous parameters, whose rem table it overwrites; each row's terms
    count once per unit showing it."""
    zhat = zhat * data.counts[:, None]
    N, G = data.n_units, zhat.shape[1]
    stages = data._stages
    numer = hyper.shape - 1.0 + zhat.T @ stages.u
    if (numer < 0).any():
        g, i = np.argwhere(numer < 0)[0]
        raise ValidationError(
            f"support update numerator negative for component {g + 1}, "
            f"item {i + 1}: shape {hyper.shape[g, i]} too small for the data"
        )
    r = np.divide(1.0, rem, out=rem)
    for t, e in enumerate(stages.ends):  # zero beyond each row's depth
        r[t, e:] = 0.0
    avail = _availability_sums(stages.at, r)
    # sum_s zhat[s, g] avail[s, i, g] as one matmul over the rows, whose
    # (g, i, g) diagonal holds it
    cross = (zhat.T @ avail.reshape(avail.shape[0], -1)).reshape(G, -1, G)
    denom = hyper.rate[:, None] + np.diagonal(cross, axis1=0, axis2=2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        p_new = numer / denom
    tiny = ~np.isfinite(p_new) | (p_new <= SUPPORT_FLOOR)
    if tiny.any():
        warnings.warn(
            "support estimate hit the numerical floor; item mass is "
            "vanishing at the boundary",
            RuntimeWarning,
            stacklevel=3,
        )
        p_new = np.where(tiny, SUPPORT_FLOOR, p_new)
    alpha0 = float(hyper.alpha.sum())
    denom_w = alpha0 - G + N
    if denom_w <= 0:
        raise ValidationError("sum(alpha) - G + N must be positive")
    w_new = (hyper.alpha - 1.0 + zhat.sum(axis=0)) / denom_w
    if (w_new < 0).any():
        raise NumericalError(
            "weight update went negative; alpha < 1 with an empty component"
        )
    return p_new, w_new / w_new.sum()


def em_step(params: MixtureParams, data: Dataset, hyper: Hyperparams):
    """One EM iteration.

    Returns (updated params, responsibilities), the responsibilities being
    those computed at the *incoming* parameters, one row per dataset row.
    """
    _check_params_data(params, data.n_items)
    hyper = _resolve_prior(hyper, params.n_components, data.n_items)
    pat = data.patterns
    zhat, _, rem = _e_step(params.supports, params.weights, pat)
    return MixtureParams(*_m_step(pat.rows, hyper, zhat, rem)), zhat[pat.index]


@dataclass(frozen=True, eq=False)
class MapFit:
    """Result of a MAP / ML fit.

    supports rows are normalized to sum 1; em_step returns the
    unnormalized iterate. responsibilities have one row per dataset row,
    shared by its counts[s] units, so they give the same component sizes
    as one label per unit; labels is their 1-based argmax.
    log_post_trace holds the log posterior at the initial point and after
    every iteration, up to an additive constant.
    """

    supports: np.ndarray
    weights: np.ndarray
    responsibilities: np.ndarray
    log_post_trace: np.ndarray
    log_lik: float
    converged: bool
    n_iter_used: int
    bic: float | None
    hyper: Hyperparams
    final_log_posts: np.ndarray | None = None
    best_start: int | None = None

    @property
    def n_components(self) -> int:
        return self.supports.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.responsibilities, axis=1) + 1

    @property
    def log_post(self) -> float:
        return float(self.log_post_trace[-1])

    def params(self) -> MixtureParams:
        return MixtureParams(self.supports, self.weights)


def bic(log_lik: float, K: int, G: int, N: int) -> float:
    """Bayesian information criterion: -2 log L plus the parameter count
    G(K-1) + (G-1) times log N."""
    if K < 2 or G < 1 or N < 1:
        raise ValidationError("need K >= 2, G >= 1, N >= 1")
    nu = G * (K - 1) + (G - 1)
    return -2.0 * log_lik + nu * float(np.log(N))


def _draw_init(rng, G: int, K: int) -> MixtureParams:
    return MixtureParams(rng.uniform(0.01, 1.0, (G, K)), np.full(G, 1.0 / G))


def _draw_centered_init(rng, data: Dataset, G: int) -> MixtureParams:
    """Starting supports jittered around observed first-place shares."""
    N, K, rows = data.n_units, data.n_items, data.patterns.rows
    base = _order_counts(rows._stages.items, 0, rows.counts)[0] / N + 0.5 / N
    supports = base[None, :] * rng.uniform(0.5, 1.5, (G, K))
    return MixtureParams(supports, np.full(G, 1.0 / G))


def fit_map(
    data: Dataset,
    G: int,
    hyper: Hyperparams | None = None,
    init: MixtureParams | None = None,
    max_iter: int | None = None,
    tol: float = DEFAULT_TOL,
    rng=None,
) -> MapFit:
    """Fit a G-component mixture by EM ascent of the log posterior.

    Args:
        data: partial ordering dataset.
        G: number of components, >= 1.
        hyper: prior hyperparameters; defaults to the flat prior, making
            this a maximum likelihood fit.
        init: starting parameters; when absent, supports are drawn
            uniformly with `rng` and weights start equal.
        max_iter: iteration cap, default 400 * G.
        tol: stop when the log posterior moves less than this.
        rng: numpy Generator used only to draw a missing init.

    Returns:
        MapFit with normalized supports, responsibilities and labels at
        the final parameters, the log-posterior trace, and BIC when the
        prior is flat.
    """
    hyper = _resolve_prior(hyper, G, data.n_items)
    if max_iter is None:
        max_iter = default_max_iter(G)
    if max_iter < 0:
        raise ValidationError("max_iter must be >= 0")
    if np.isnan(tol):
        raise ValidationError("tol must be a number, not nan")
    if init is None:
        if rng is None:
            rng = np.random.default_rng()
        init = _draw_init(rng, G, data.n_items)
    elif init.n_components != G or init.n_items != data.n_items:
        raise ValidationError("init dimensions must match (G, K)")

    p, w = init.supports, init.weights
    pat = data.patterns
    trace = []
    converged = False
    n_done = 0
    prev = None
    for it in range(max_iter + 1):
        zhat, log_lik, rem = _e_step(p, w, pat)
        lp = log_lik + log_prior(p, w, hyper)
        if not np.isfinite(lp):
            raise NumericalError(f"log posterior not finite at iteration {it}")
        trace.append(lp)
        if prev is not None and abs(lp - prev) < tol:
            converged = True
            break
        if it == max_iter:
            break
        prev = lp
        p, w = _m_step(pat.rows, hyper, zhat, rem)
        n_done = it + 1

    fit_bic = bic(log_lik, data.n_items, G, data.n_units) if hyper.is_flat else None
    return MapFit(
        supports=p / p.sum(axis=1, keepdims=True),
        weights=w.copy(),
        responsibilities=zhat[pat.index],
        log_post_trace=np.asarray(trace),
        log_lik=log_lik,
        converged=converged,
        n_iter_used=n_done,
        bic=fit_bic,
        hyper=hyper,
    )


def _one_start(data, job) -> MapFit:
    G, hyper, centered, max_iter, tol, rng = job
    init = _draw_centered_init(rng, data, G) if centered else _draw_init(rng, G, data.n_items)
    return fit_map(data, G, hyper=hyper, init=init, max_iter=max_iter, tol=tol)


def fit_map_multistart(
    data: Dataset,
    G: int,
    n_start: int,
    hyper: Hyperparams | None = None,
    centered_start: bool = False,
    max_iter: int | None = None,
    tol: float = DEFAULT_TOL,
    rng=None,
    n_jobs: int = 1,
) -> MapFit:
    """Run fit_map from n_start random inits and keep the best ending.

    One child RNG stream per start is derived up front from `rng`, so the
    selected fit is identical at any parallelism degree; ties on the final
    log posterior go to the lowest start index. centered_start draws the
    initial supports around the observed first-place shares instead of
    uniformly. n_jobs is the most workers the starts may use: processes
    when the fit pays for a pool's start, else threads when the data's
    distinct rows times K times G make a wide table, else none, the starts
    running in turn in this process (see _fan_out).
    """
    if rng is None:
        rng = np.random.default_rng()
    return _best_fits(
        data, [(G, hyper, rng)], n_start, centered_start, max_iter, tol, n_jobs
    )[0]


# what a pool worker runs each job with: fn(data, job) bound to its data,
# set once per worker by _pool_init
_pool_fn = None


def _pool_init(fn, data) -> None:
    global _pool_fn
    _pool_fn = functools.partial(fn, data)


def _pool_call(job):
    return _pool_fn(job)


# How _fan_out runs a job list on several workers. A pool of processes runs
# it when the work the pool saves pays for its start, priced in cells: each
# job's component-steps times the cells of the distinct rows plus
# _STEP_CELLS. Spread over the workers, the jobs end no sooner than the
# largest one alone, or an equal share of them all, so the workers save at
# most the rest; when that reaches _POOL_MIN_WORK a pool starts. On a 2-core
# box (numpy 2.4, Python 3.11) an EM iteration at G components cost ~12 ns
# per cell-step (wide and K=8
# data, 5,000-16,000 distinct rows, G=2-4) plus ~0.1-0.25 ms of calls shared
# by its G steps: 27-55 us per step at G=4, 2,200-4,600 cells' worth. A
# sweep cost 20-36 ns per cell-step (28-35 ns on n=20000, K=8 data), so a
# chain counts _SWEEP_STEPS steps per sweep and component, the low end.
# Importing the pool took 21-28 ms, starting and shutting down 2 workers
# 14-23 ms, and a whole CLI stage paid ~0.06-0.12 s more at --parallel 2, so
# the pool pays from about 0.12 s / 12 ns = 10 M cells saved. The steps are
# counted at the iteration cap, so a fit that converges early is priced
# high: a larger step price would pool a fit of a few rows at the default
# cap, which stops after a few iterations. Ballot-shaped fit-map at the
# defaults (G=1..3, 205 distinct rows of K=5) spends 3,600 of its 5,600
# capped steps in G=3, so 2 workers save at most 9 M cells: pooled, it ran
# 1.073x slower than in process. Chains of 60 sweeps at G=1 and 2 on
# n=20000, K=8 data save up to 16 M: pooled, they took 0.52-0.57 s, and in
# process 0.70 s.
#
# A list the pool would not pay for runs on threads when every job's table
# (distinct rows x K x its G) reaches _THREAD_MIN_CELLS; one it pays for
# keeps the pool. Ballot-shaped chains of 3000 sweeps at G=1..3 took
# 2.1-2.7 s pooled, 2.6-3.6 s serially and 3.4-5.0 s on threads, and long
# wide-row runs were not timed on threads against the pool. Threads share the
# dataset and start in ~0.1 ms, and numpy drops the interpreter lock inside
# each pass over a table, so they pay once the passes outweigh the Python
# between them. On the same box with BLAS on one thread, 2 EM starts of 30
# iterations took, on threads against serially, 1.11-1.14x the time at
# 42-45 k cells (K=10, G=2-3), 1.00 at 54 k, 0.79-0.86 at 62-86 k and
# 0.58-0.77 from 100 k (K=8, ~12,500-15,800 rows, G=1-2); c9-shaped tables
# (720 rows of 6, G=2-4) took 1.4-2.6x. Chains cross over lower, near
# 30-45 k cells. As a CLI stage the benchmark's wide fit-map (2 starts at
# G=4 on ~5,100 distinct rows of 10) took 273 ms on threads against 289 ms
# serially with OpenBLAS at its default thread count, and 282 against
# 301 ms with it on one thread (medians of 20 alternating pairs).
# ThreadPoolExecutor is not used: its module pulls in logging, ~9.5 ms per
# CLI stage. Each job keeps its own seed and shares no mutable state, so
# results are the serial ones. Each thread runs in a copy of the caller's
# context, which holds numpy's errstate from numpy 2.0 on; before 2.0
# errstate was kept per thread, so there the other threads run under
# numpy's default errstate, not the caller's.
_THREAD_MIN_CELLS = 60_000
_STEP_CELLS = 3_500
_SWEEP_STEPS = 2
_POOL_MIN_WORK = 10_000_000


def _fan_out(fn, data: Dataset, jobs: list, n_jobs: int, steps: list,
             comps: list) -> list:
    """fn(data, job) over jobs, in job order, on up to n_jobs workers when
    there is more than one of each: a pool of processes when the work it
    can save pays for its start, else threads when every job's table is
    wide, else serially in this process. Every job's result is the same
    wherever it runs.

    comps[i] is job i's number of components G, so that its per-pass
    table holds the cells of data's distinct rows times G; when the pool
    would not pay and each job's table reaches _THREAD_MIN_CELLS, the jobs
    run on threads (_thread_map).

    steps[i] is job i's component-steps: G times its iterations (the EM
    cap, or _SWEEP_STEPS per sweep, see _chain_steps). A job's work is its
    steps times the cells of data's distinct rows plus a per-step price
    (_STEP_CELLS). The workers save at most the total work less the largest
    job's, or less an equal share of the total where that is more; below
    _POOL_MIN_WORK the pool's start would cost more than that, and its
    module is not even imported. The cap bounds the iterations from above,
    so a job list that would really pay for a pool never runs serially.

    Either kind of worker gets data with its distinct rows and their stage
    index already built here. A pool's workers receive it once each,
    through the pool's initializer (inherited under fork, pickled once per
    worker otherwise); the jobs carry only their own arguments.
    """
    workers = min(n_jobs, len(jobs))
    if workers > 1:
        rows = data.patterns.rows
        rows._stages  # built once here, not in each worker
        cells = rows.orderings.size
        total = sum(steps)
        saved = total - max(*steps, total / workers)
        if (cells + _STEP_CELLS) * saved >= _POOL_MIN_WORK:
            # imported here: the process pool module costs every CLI start-up
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init, initargs=(fn, data)
            ) as pool:
                return list(pool.map(_pool_call, jobs))
        if cells * min(comps) >= _THREAD_MIN_CELLS:
            return _thread_map(fn, data, jobs, workers)
    return [fn(data, j) for j in jobs]


def _thread_map(fn, data: Dataset, jobs: list, workers: int) -> list:
    """fn(data, job) over jobs on `workers` threads, this one among them,
    each taking the next job in order; the results come in job order.

    After a job fails no thread takes another, and once the running ones
    end, the failure of the lowest-index job is raised here: the error the
    serial loop would meet first, since every job before it was taken
    already. An interrupt on this thread also stops the takes, and is
    raised at once; the other threads are daemons that end with their
    running job.
    """
    results = [None] * len(jobs)
    errors = {}
    lock = threading.Lock()
    todo = iter(range(len(jobs)))

    def work(catch):
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(data, jobs[i])
            except catch as e:
                with lock:
                    errors[i] = e

    threads = [  # each in a copy of this thread's context, numpy's errstate too
        threading.Thread(target=contextvars.copy_context().run,
                         args=(work, BaseException), daemon=True)
        for _ in range(workers - 1)
    ]
    for t in threads:
        t.start()
    try:
        work(Exception)
        for t in threads:
            t.join()
    except BaseException as e:
        with lock:
            errors[len(jobs)] = e  # stops the takes
        raise
    if errors:
        raise errors[min(errors)]
    return results


def _chain_steps(g_list, n_sweeps: int) -> list:
    """_fan_out's steps for one chain of n_sweeps sweeps at each G."""
    return [_SWEEP_STEPS * n_sweeps * G for G in g_list]


def _best_fits(data, runs, n_start, centered_start, max_iter, tol, n_jobs):
    """Multistart fits for several (G, hyper, rng) runs at once.

    Every start of every run goes to one _fan_out; each run keeps its best
    ending as in fit_map_multistart, which is this with one run.
    """
    if n_start < 1:
        raise ValidationError("n_start must be >= 1")
    jobs = [
        (G, hyper, centered_start, max_iter, tol, s)
        for G, hyper, rng in runs
        for s in rng.spawn(n_start)
    ]
    steps = [G * (default_max_iter(G) if max_iter is None else max_iter)
             for G, *_ in jobs]
    fits = _fan_out(_one_start, data, jobs, n_jobs, steps, [G for G, *_ in jobs])
    best_fits = []
    for lo in range(0, len(fits), n_start):
        group = fits[lo : lo + n_start]
        finals = np.array([f.log_post for f in group])
        best = int(np.argmax(finals))  # the first of tied maxima
        best_fits.append(
            dataclasses.replace(group[best], final_log_posts=finals, best_start=best)
        )
    return best_fits
