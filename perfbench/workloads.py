"""Workload definitions: truth parameters, input sizes and run lengths.

Every workload fixes its G range, EM starts and iteration cap, and sweep
and draw counts, so each timing is for a fixed amount of work. Only the
data (and the seeds handed to the program) depend on the benchmark's
--seed argument.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

# Worker processes passed to fit-map and fit-gibbs as --parallel. Fixed so
# that timings are comparable across commits; never the CLI default.
PARALLEL = 2

# EM stopping rule on the log posterior, as in the CLI default.
EM_TOL = 1e-6

# Gamma(shape, rate) prior on the supports and Dirichlet(alpha) on the
# weights, for fit-map and fit-gibbs alike: the defaults of the paper's
# software. The rate must be positive: under the CLI's flat default
# (rate 0) a chain started from a MAP whose classification leaves a
# component empty has an improper support conditional, and fit-gibbs
# exits with code 4 (2 of 30 c9 seeds at these run lengths).
PRIOR_SHAPE = 1.0
PRIOR_RATE = 0.001
PRIOR_ALPHA = 1.0

# EM ascends the log posterior; a step may lose at most this share of it
# to rounding
EM_ASCENT_RTOL = 1e-10

# Published three-component APA estimates (also in tests/test_acceptance.py).
APA_SUPPORTS = [
    [0.06247449, 0.03295813, 0.01664217, 0.51188738, 0.37603783],
    [0.27331708, 0.04903217, 0.61671929, 0.02382562, 0.03710584],
    [0.18807113, 0.22080423, 0.14093403, 0.22727853, 0.22291209],
]
APA_WEIGHTS = [0.1035369, 0.2732693, 0.6231937]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    K: int
    g_min: int
    g_max: int
    true_G: int
    supports: tuple
    weights: tuple
    # censoring probabilities for make_partial (None: complete orderings)
    probcens: tuple | None
    n_start: int
    centered_start: bool
    max_iter: int
    n_iter: int
    n_burn: int

    @property
    def g_list(self) -> list[int]:
        return list(range(self.g_min, self.g_max + 1))

    @property
    def n_kept(self) -> int:
        return self.n_iter - self.n_burn

    def truth(self):
        """(supports G x K normalized per row, weights summing to 1)."""
        p = np.asarray(self.supports, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        return p / p.sum(axis=1, keepdims=True), w / w.sum()


def _rows(arr) -> tuple:
    return tuple(tuple(float(v) for v in row) for row in arr)


def _depths(K: int, shares: dict[int, float]) -> tuple:
    """make_partial's probcens vector putting the given shares on depths."""
    probs = [0.0] * (K - 1)
    for depth, share in shares.items():
        probs[K - 2 if depth == K else depth - 1] = share
    return tuple(probs)


WORKLOADS = {
    "c9": Workload(
        name="c9",
        why=(
            "criterion-9 shape (N=15000, K=6, G=3, complete, 4.8% distinct "
            "rows): sampler-dominated, exercises pattern compression"
        ),
        n=15000,
        K=6,
        g_min=3,
        g_max=3,
        true_G=3,
        supports=_rows(np.random.default_rng(5).gamma(2.0, 1.0, (3, 6))),
        weights=(0.5, 0.3, 0.2),
        probcens=None,
        n_start=2,
        centered_start=False,
        max_iter=30,
        n_iter=40,
        n_burn=10,
    ),
    "ballot": Workload(
        name="ballot",
        why=(
            "APA-shaped ballots (N=15449, K=5, depths 1/2/3/5, G=1..3): "
            "EM-dominated, process pool across G, stratified checks"
        ),
        n=15449,
        K=5,
        g_min=1,
        g_max=3,
        true_G=3,
        supports=_rows(APA_SUPPORTS),
        weights=tuple(APA_WEIGHTS),
        probcens=_depths(5, {1: 0.35, 2: 0.20, 3: 0.07, 5: 0.38}),
        n_start=2,
        centered_start=True,
        max_iter=30,
        n_iter=30,
        n_burn=10,
    ),
    "wide": Workload(
        name="wide",
        why=(
            "K=10, G=4, N=6000, depths 3/5/7/10, ~80% distinct rows: bypasses "
            "pattern compression; chain I/O and relabeling weigh most"
        ),
        n=6000,
        K=10,
        g_min=4,
        g_max=4,
        true_G=4,
        supports=_rows(np.random.default_rng(10).gamma(2.0, 1.0, (4, 10))),
        weights=(0.4, 0.3, 0.2, 0.1),
        probcens=_depths(10, {3: 0.25, 5: 0.25, 7: 0.25, 10: 0.25}),
        n_start=2,
        centered_start=False,
        max_iter=30,
        n_iter=60,
        n_burn=10,
    ),
}


def smoke(wl: Workload) -> Workload:
    """Tiny run lengths for a quick pass through every stage and check."""
    return dataclasses.replace(
        wl, n=min(wl.n, 2000), max_iter=10, n_iter=12, n_burn=4
    )


@dataclass(frozen=True)
class Seeds:
    """Seeds handed to the program, derived from the benchmark's --seed."""

    simulate: int
    censor: int
    fit_map: int
    fit_gibbs: int
    ppcheck: int
    probe: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        kids = np.random.SeedSequence(seed).spawn(6)
        return cls(*(int(k.generate_state(1)[0]) for k in kids))
