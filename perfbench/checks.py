"""Output checks, and observations of fit quality.

Each check is one attempted operation; a check that raises (a missing or
corrupted file, say) counts as failed instead of stopping the benchmark.
Checks hold at any run length. How close the capped EM gets to the
simulating parameters depends on the cap, so it is observed and recorded,
not checked.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

from pipeline import STAGES, Layout
from workloads import EM_ASCENT_RTOL, Workload


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Checks:
    def __init__(self):
        self.items: list[Check] = []

    def run(self, name: str, fn) -> None:
        """Record fn() as a check; fn returns True, False or (bool, detail)."""
        try:
            res = fn()
            ok, detail = res if isinstance(res, tuple) else (res, "")
        except Exception as e:  # any failure of the output is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.items.append(Check(name, bool(ok), str(detail)))

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.items)

    def failures(self) -> list[dict]:
        return [c.__dict__ for c in self.items if not c.ok]


def _aligned_linf(ref: np.ndarray, est: np.ndarray) -> float:
    G = ref.shape[0]
    return min(
        float(np.abs(est[list(perm)] - ref).max())
        for perm in itertools.permutations(range(G))
    )


def check_exits(checks: Checks, runs: dict) -> None:
    """Every stage ran, and every run of it exited 0."""
    for name in STAGES:
        codes = [r.exit_code for r in runs.get(name, [])]
        checks.run(f"exit.{name}", lambda codes=codes: (
            bool(codes) and all(c == 0 for c in codes), f"exit codes {codes}"
        ))


def check_outputs(checks: Checks, runs: dict, lay: Layout, wl: Workload) -> None:
    """Every check the benchmark makes on one pipeline run's outputs."""
    from plrank import (
        mixture_loglik,
        pra_relabel,
        read_chain_csv,
        read_dataset,
        read_map_json,
    )

    check_exits(checks, runs)

    for G in wl.g_list:
        def em_ascends(G=G):
            fit = read_map_json(lay.map_json(G))
            trace = fit.log_post_trace
            steps = np.diff(trace)
            worst = float(steps.min()) if steps.size else 0.0
            finals = fit.final_log_posts
            return (
                bool(np.isfinite(trace).all())
                and worst >= -EM_ASCENT_RTOL * float(np.abs(trace).max())
                and fit.log_post == finals.max()
                and fit.best_start == int(np.argmax(finals)),
                f"largest drop {-worst:.3g}, best start {fit.best_start} of {finals}",
            )

        checks.run(f"map.G{G}", em_ascends)

    for G in wl.g_list:
        def chain_ok(G=G):
            ch = read_chain_csv(lay.chain_csv(G))
            finite = all(
                np.isfinite(a).all() for a in (ch.P, ch.W, ch.log_lik, ch.deviance)
            )
            return (
                ch.n_kept == wl.n_kept and ch.n_components == G and finite,
                f"kept {ch.n_kept} of {wl.n_kept}, finite={finite}",
            )

        checks.run(f"chain.G{G}", chain_ok)

    def selection_ok():
        data = read_dataset(lay.input, "ordering")
        with open(lay.select / "selection.json") as fh:
            rows = json.load(fh)["criteria"]
        if [r["G"] for r in rows] != wl.g_list:
            return False, f"rows for G={[r['G'] for r in rows]}"
        logN = np.log(data.n_units)
        for r in rows:
            dev = read_chain_csv(lay.chain_csv(r["G"])).deviance
            fit = read_map_json(lay.map_json(r["G"]))
            Db, Dh, vD = dev.mean(), -2.0 * mixture_loglik(fit.params(), data), dev.var(ddof=1)
            want = {
                "D_bar": Db, "D_hat": Dh, "var_D": vD,
                "DIC1": 2 * Db - Dh, "DIC2": Db + vD / 2, "BPIC1": 3 * Db - 2 * Dh,
                "BPIC2": Db + vD, "BICM1": Db + vD / 2 * (logN - 1),
                "BICM2": Dh + vD / 2 * logN,
            }
            for key, val in want.items():
                if not np.isclose(r[key], val, rtol=1e-9, atol=1e-9):
                    return False, f"G={r['G']} {key} {r[key]!r} != {val!r}"
            if r["complexity_ok"] != bool(r["D_bar"] - r["D_hat"] >= -1e-8):
                return False, f"G={r['G']} complexity_ok disagrees with D_bar - D_hat"
        return True

    checks.run("select.criteria", selection_ok)

    def pvalues_ok():
        with open(lay.ppcheck / "ppcheck.json") as fh:
            rows = json.load(fh)["checks"]
        vals = [v for r in rows for k, v in r.items() if k.startswith("post_pred")]
        return (
            [r["G"] for r in rows] == wl.g_list
            and len(vals) == 4 * len(rows)
            and all(0.0 <= v <= 1.0 for v in vals)
        )

    checks.run("ppcheck.pvalues_in_unit", pvalues_ok)

    G = wl.true_G

    def relabel_keeps_loglik():
        before = read_chain_csv(lay.chain_csv(G))
        after = read_chain_csv(lay.relabel / "relabeled_chain.csv")
        return np.array_equal(before.log_lik, after.log_lik) and np.array_equal(
            before.deviance, after.deviance
        )

    def permutations_valid():
        with open(lay.relabel / "permutations.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        body = [[int(v) for v in r] for r in rows[1:]]
        return (
            len(body) == wl.n_kept
            and [r[0] for r in body] == list(range(1, wl.n_kept + 1))
            and all(sorted(r[1:]) == list(range(1, G + 1)) for r in body)
        )

    def relabel_idempotent():
        again = pra_relabel(
            read_chain_csv(lay.relabel / "relabeled_chain.csv"),
            read_map_json(lay.map_json(G)),
        )
        return bool((again.permutations == np.arange(G)).all())

    checks.run("relabel.loglik_unchanged", relabel_keeps_loglik)
    checks.run("relabel.permutations_valid", permutations_valid)
    checks.run("relabel.idempotent", relabel_idempotent)


def check_repeat(checks: Checks, first: dict, again: dict) -> None:
    """A repeat with the same seeds must write byte-identical files."""
    for path in sorted(set(first) | set(again)):
        checks.run(f"identical.{path}", lambda path=path: first.get(path) == again.get(path))


def observe_fit(lay: Layout, wl: Workload) -> dict:
    """How far the capped EM got: at the true G, the MAP log-likelihood
    minus that of the simulating parameters (per unit), the aligned max-abs
    error of the normalized supports, and select's complexity_ok flags."""
    from plrank import MixtureParams, mixture_loglik, read_dataset, read_map_json

    data = read_dataset(lay.input, "ordering")
    supports, weights = wl.truth()
    fit = read_map_json(lay.map_json(wl.true_G))
    gap = fit.log_lik - mixture_loglik(MixtureParams(supports, weights), data)
    with open(lay.select / "selection.json") as fh:
        flags = {r["G"]: r["complexity_ok"] for r in json.load(fh)["criteria"]}
    return {
        "map_gap_per_unit": gap / data.n_units,
        "support_linf": _aligned_linf(supports, fit.supports),
        "converged": fit.converged,
        "complexity_ok": flags,
    }
