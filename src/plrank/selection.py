"""Deviance-based criteria for choosing the number of components.

All criteria are built from the deviance trace D = -2 log L over kept
posterior draws and a plug-in deviance at a point estimate. With D_bar
the trace mean, var_D its sample variance (denominator L - 1), and D_hat
the plug-in value:

    DIC1  = D_bar + (D_bar - D_hat)
    DIC2  = D_bar + var_D / 2
    BPIC1 = D_bar + 2 (D_bar - D_hat)
    BPIC2 = D_bar + var_D
    BICM1 = D_bar + (var_D / 2) (log N - 1)
    BICM2 = D_hat + (var_D / 2) log N

The default plug-in is the MAP fit, which makes every criterion invariant
to label switching in the chain (the likelihood ignores component order).
Plugging in a posterior mean or median instead is supported as an
interpretation: the same formulas are applied to a pointwise summary of a
chain, which should be relabeled first to make that summary meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .em import MapFit
from .errors import ValidationError
from .model import MixtureParams, mixture_loglik

COMPLEXITY_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Per-G criterion table; arrays are aligned with g_values."""

    g_values: np.ndarray
    D_bar: np.ndarray
    D_hat: np.ndarray
    var_D: np.ndarray
    dic1: np.ndarray
    dic2: np.ndarray
    bpic1: np.ndarray
    bpic2: np.ndarray
    bicm1: np.ndarray
    bicm2: np.ndarray
    complexity_ok: np.ndarray
    point_estimate: str

    def to_rows(self) -> list[dict]:
        rows = []
        for i, g in enumerate(self.g_values):
            rows.append(
                {
                    "G": int(g),
                    "D_bar": float(self.D_bar[i]),
                    "D_hat": float(self.D_hat[i]),
                    "var_D": float(self.var_D[i]),
                    "DIC1": float(self.dic1[i]),
                    "DIC2": float(self.dic2[i]),
                    "BPIC1": float(self.bpic1[i]),
                    "BPIC2": float(self.bpic2[i]),
                    "BICM1": float(self.bicm1[i]),
                    "BICM2": float(self.bicm2[i]),
                    "complexity_ok": bool(self.complexity_ok[i]),
                }
            )
        return rows


def _point_deviance(point_estimate, fit, chain, data) -> float:
    if point_estimate not in ("map", "mean", "median"):
        raise ValidationError("point_estimate must be map, mean, or median")
    if point_estimate == "map":
        params = MixtureParams(fit.supports, fit.weights)
    else:
        if chain is None:
            raise ValidationError(
                f"point_estimate {point_estimate!r} needs the matching chain"
            )
        agg = np.mean if point_estimate == "mean" else np.median
        w = agg(chain.W, axis=0)
        params = MixtureParams(agg(chain.supports_3d(), axis=0), w / w.sum())
    return -2.0 * mixture_loglik(params, data)


def selection_criteria(
    deviance_traces,
    map_fits,
    data: Dataset,
    point_estimate: str = "map",
    chains=None,
) -> SelectionReport:
    """Build the criterion table across candidate numbers of components.

    Args:
        deviance_traces: one deviance vector per candidate G.
        map_fits: matching MapFit per candidate, used for the plug-in.
        data: the dataset the traces were sampled on (for the plug-in
            deviance and N).
        point_estimate: "map" (default), or "mean"/"median" computed from
            `chains` (relabel those chains first; flagged interpretation).
        chains: per-candidate GibbsChain, only needed for mean/median.

    Returns:
        SelectionReport, one row per fit in the given order, with G taken
        from each fit. complexity_ok marks candidates whose effective
        complexity D_bar - D_hat is nonnegative (a failed flag usually
        means the plug-in is not the dominating mode).
    """
    traces = [np.asarray(t, dtype=np.float64) for t in deviance_traces]
    fits = list(map_fits)
    if len(traces) != len(fits) or not traces:
        raise ValidationError("need one deviance trace per fit")
    if any(t.ndim != 1 or t.size == 0 for t in traces):
        raise ValidationError("deviance traces must be nonempty vectors")
    chain_list = list(chains) if chains is not None else [None] * len(traces)
    if len(chain_list) != len(traces):
        raise ValidationError("chains must align with the traces")
    N = data.n_units

    D_bar = np.array([t.mean() for t in traces])
    var_D = np.array([t.var(ddof=1) if t.size > 1 else 0.0 for t in traces])
    D_hat = np.array(
        [
            _point_deviance(point_estimate, f, c, data)
            for f, c in zip(fits, chain_list)
        ]
    )
    pe = D_bar - D_hat
    logN = float(np.log(N))
    return SelectionReport(
        g_values=np.array([f.n_components for f in fits], dtype=np.int64),
        D_bar=D_bar,
        D_hat=D_hat,
        var_D=var_D,
        dic1=D_bar + pe,
        dic2=D_bar + var_D / 2.0,
        bpic1=D_bar + 2.0 * pe,
        bpic2=D_bar + var_D,
        bicm1=D_bar + (var_D / 2.0) * (logN - 1.0),
        bicm2=D_hat + (var_D / 2.0) * logN,
        complexity_ok=pe >= -COMPLEXITY_EPS,
        point_estimate=point_estimate,
    )
