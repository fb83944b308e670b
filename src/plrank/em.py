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
alpha = 1) the fit is plain maximum likelihood.

Supports are kept unnormalized throughout the iterations (a positive rate
d breaks scale invariance); reported fits carry rows rescaled to sum 1.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Patterns
from .errors import NumericalError, ValidationError
from .model import MixtureParams, _availability_sums, _log_mixture, _stage_table

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


def log_prior(params: MixtureParams, hyper: Hyperparams) -> float:
    """Unnormalized log prior density at the given parameters.

    Normalizing constants are dropped; only differences along an
    optimization path are meaningful.
    """
    p, w = params.supports, params.weights
    c, d, a = hyper.shape, hyper.rate, hyper.alpha
    logp = np.log(p)
    sup = np.where(c != 1.0, (c - 1.0) * logp, 0.0).sum() - (d[:, None] * p).sum()
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    wterm = np.where(a != 1.0, (a - 1.0) * logw, 0.0).sum()
    return float(sup + wterm)


def _e_step(params: MixtureParams, pat: Patterns):
    """Responsibilities (D x G), log-likelihood and stage-major
    remaining-mass table (K x D x G) of the parameters, on the D distinct
    rows of the pattern view pat."""
    comp, rem = _stage_table(pat.rows, params.supports)
    scored, per_row = _log_mixture(comp, params.weights)
    if not np.isfinite(per_row).all():
        bad = int(np.nonzero(~np.isfinite(per_row[pat.index]))[0][0])
        raise NumericalError(f"row {bad} has no support under any component")
    return np.exp(scored - per_row[:, None]), float(pat.rows.counts @ per_row), rem


def _m_step(data: Dataset, hyper: Hyperparams, zhat, rem) -> MixtureParams:
    """Closed-form update from an _e_step on the distinct rows data at the
    previous parameters, whose rem table it overwrites; each row's terms
    count once per unit showing it."""
    zhat = zhat * data.counts[:, None]
    N, G = data.n_units, zhat.shape[1]
    numer = hyper.shape - 1.0 + zhat.T @ data.u
    if (numer < 0).any():
        g, i = np.argwhere(numer < 0)[0]
        raise ValidationError(
            f"support update numerator negative for component {g + 1}, "
            f"item {i + 1}: shape {hyper.shape[g, i]} too small for the data"
        )
    stages = data._stages
    r = np.divide(1.0, rem, out=rem)
    r.reshape(-1, G)[stages.pad] = 0.0
    avail = _availability_sums(stages.pos, r)
    denom = hyper.rate[:, None] + np.einsum("sg,sig->gi", zhat, avail)
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
    w_new = w_new / w_new.sum()
    return MixtureParams(p_new, w_new)


def em_step(params: MixtureParams, data: Dataset, hyper: Hyperparams):
    """One EM iteration.

    Returns (updated params, responsibilities), the responsibilities being
    those computed at the *incoming* parameters, one row per dataset row.
    """
    if hyper.n_components != params.n_components:
        raise ValidationError("hyper and params disagree on G")
    pat = data.patterns
    zhat, _, rem = _e_step(params, pat)
    return _m_step(pat.rows, hyper, zhat, rem), zhat[pat.index]


@dataclass(frozen=True, eq=False)
class MapFit:
    """Result of a MAP / ML fit.

    supports rows are normalized to sum 1 for reporting; supports_raw
    keeps the final unnormalized state (meaningful when rate > 0).
    responsibilities and labels have one row per dataset row, shared by
    its counts[s] units, so they give the same component sizes as one
    label per unit.
    log_post_trace holds the log posterior at the initial point and after
    every iteration, up to an additive constant.
    """

    supports: np.ndarray
    weights: np.ndarray
    supports_raw: np.ndarray
    responsibilities: np.ndarray
    labels: np.ndarray
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
    N, K = data.n_units, data.n_items
    first = np.bincount(data.orderings[:, 0] - 1, weights=data.counts, minlength=K) / N
    base = first + 0.5 / N
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
    K: int | None = None,
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
        K: optional cross-check on the number of items.

    Returns:
        MapFit with normalized supports, responsibilities and labels at
        the final parameters, the log-posterior trace, and BIC when the
        prior is flat.
    """
    if G < 1:
        raise ValidationError("G must be >= 1")
    if K is not None and K != data.n_items:
        raise ValidationError(f"data has {data.n_items} items, not {K}")
    if hyper is None:
        hyper = Hyperparams.flat(G, data.n_items)
    if hyper.n_components != G or hyper.shape.shape[1] != data.n_items:
        raise ValidationError("hyper dimensions must match (G, K)")
    if max_iter is None:
        max_iter = default_max_iter(G)
    if max_iter < 0:
        raise ValidationError("max_iter must be >= 0")
    if np.isnan(tol):
        raise ValidationError("tol must be a number, not nan")
    if init is None:
        if rng is None:
            rng = np.random.default_rng()
        params = _draw_init(rng, G, data.n_items)
    else:
        if init.n_components != G or init.n_items != data.n_items:
            raise ValidationError("init dimensions must match (G, K)")
        params = init

    pat = data.patterns
    trace = []
    converged = False
    n_done = 0
    prev = None
    for it in range(max_iter + 1):
        zhat, log_lik, rem = _e_step(params, pat)
        lp = log_lik + log_prior(params, hyper)
        if not np.isfinite(lp):
            raise NumericalError(f"log posterior not finite at iteration {it}")
        trace.append(lp)
        if prev is not None and abs(lp - prev) < tol:
            converged = True
            break
        if it == max_iter:
            break
        prev = lp
        params = _m_step(pat.rows, hyper, zhat, rem)
        n_done = it + 1

    zhat = zhat[pat.index]
    labels = np.argmax(zhat, axis=1) + 1
    norm = params.supports / params.supports.sum(axis=1, keepdims=True)
    fit_bic = bic(log_lik, data.n_items, G, data.n_units) if hyper.is_flat else None
    return MapFit(
        supports=norm,
        weights=params.weights.copy(),
        supports_raw=params.supports.copy(),
        responsibilities=zhat,
        labels=labels,
        log_post_trace=np.asarray(trace),
        log_lik=log_lik,
        converged=converged,
        n_iter_used=n_done,
        bic=fit_bic,
        hyper=hyper,
    )


def _one_start(args) -> MapFit:
    data, G, hyper, centered, max_iter, tol, rng = args
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
    uniformly.
    """
    if rng is None:
        rng = np.random.default_rng()
    return _best_fits(
        data, [(G, hyper, rng)], n_start, centered_start, max_iter, tol, n_jobs
    )[0]


def _fan_out(fn, jobs: list, n_jobs: int) -> list:
    """fn over jobs, in job order: across a pool of up to n_jobs processes
    when there is more than one of each, else serially in this process."""
    if n_jobs > 1 and len(jobs) > 1:
        # imported here: the process pool module costs every CLI start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs))) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


def _best_fits(data, runs, n_start, centered_start, max_iter, tol, n_jobs):
    """Multistart fits for several (G, hyper, rng) runs at once.

    Every start of every run goes to one process pool; each run keeps its
    best ending as in fit_map_multistart, which is this with one run.
    """
    if n_start < 1:
        raise ValidationError("n_start must be >= 1")
    jobs = [
        (data, G, hyper, centered_start, max_iter, tol, s)
        for G, hyper, rng in runs
        for s in rng.spawn(n_start)
    ]
    fits = _fan_out(_one_start, jobs, n_jobs)
    best_fits = []
    for lo in range(0, len(fits), n_start):
        group = fits[lo : lo + n_start]
        finals = np.array([f.log_post for f in group])
        best = int(max(range(n_start), key=lambda i: (finals[i], -i)))
        best_fits.append(
            dataclasses.replace(group[best], final_log_posts=finals, best_start=best)
        )
    return best_fits
