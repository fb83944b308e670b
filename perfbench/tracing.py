"""Traced run: the pipeline's library calls in one process, with a span
around each call into a layer of the package.

Spans are recorded here, around public library functions; nothing inside
the program is instrumented. Hence the blocks inside one Gibbs sweep
(weights, stage times, supports, memberships) and the E/M split inside
fit_map are not visible: see UNOBSERVED.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
import time
import warnings

import numpy as np

from pipeline import Layout, make_input, write_truth
from workloads import (
    EM_TOL,
    PARALLEL,
    PRIOR_ALPHA,
    PRIOR_RATE,
    PRIOR_SHAPE,
    Seeds,
    Workload,
)

# layers that own spans inside the pipeline (data is reached only through fileio)
LAYERS = ("fileio", "model", "em", "gibbs", "selection", "assessment", "relabel")
PROBE_G = (1, 2, 3, 4)
PROBE_SWEEPS = 10
UNOBSERVED = (
    "Spans wrap calls into the library from outside, so the four blocks of "
    "a Gibbs sweep (weights, stage times, supports, memberships) and the "
    "E-step/M-step split inside fit_map are not measured; they need "
    "tracing inside the program."
)


class Tracer:
    """In-memory spans: id, parent id, run id, name, start, end, attrs.

    A disabled tracer records nothing and hands out a no-op context.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext()
        return _Span(self, name, attrs)


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.rec = {
            "id": len(tracer.spans),
            "parent": tracer._open[-1] if tracer._open else None,
            "run": tracer.run_id,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        tracer.spans.append(self.rec)

    def __enter__(self):
        self.tracer._open.append(self.rec["id"])
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus its children's (children run serially)."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def _prior(G: int, K: int):
    from plrank import Hyperparams

    return Hyperparams.expand(PRIOR_SHAPE, PRIOR_RATE, PRIOR_ALPHA, G, K)


def library_pipeline(wl: Workload, seeds: Seeds, lay: Layout, tr: Tracer) -> dict:
    """The CLI pipeline's work as library calls, with the same seeds and
    run lengths, serially: each EM start and chain is the CLI's own. Returns
    counts the spans do not carry."""
    from plrank import (
        MixtureParams,
        fit_map_multistart,
        gibbs_run,
        init_from_map,
        ppcheck,
        ppcheck_cond,
        pra_relabel,
        read_chain_csv,
        read_dataset,
        read_map_json,
        sample_mixture,
        selection_criteria,
        write_chain_csv,
        write_map_json,
        write_sequence_csv,
    )
    from plrank import fileio

    for d in (lay.sim, lay.fit, lay.gibbs, lay.select, lay.ppcheck, lay.relabel):
        d.mkdir(parents=True, exist_ok=True)
    write_truth(lay.truth, wl)
    stats = {"em_iters": 0, "em_starts": 0, "em_converged": 0, "em_floor_hits": 0,
             "chain_bytes": 0, "relabel_sweeps": 0, "permuted": 0}

    def load():
        with tr.span("fileio.read_dataset"):
            return read_dataset(lay.input, "ordering")

    with tr.span("pipeline"):
        with tr.span("stage.simulate"):
            params = MixtureParams(*wl.truth())
            with tr.span("model.sample_mixture"):
                _, sim = sample_mixture(
                    wl.n, wl.K, wl.true_G, params, np.random.default_rng(seeds.simulate)
                )
            with tr.span("fileio.write_sequence_csv"):
                write_sequence_csv(lay.sim / "orderings.csv", sim.orderings)
        with tr.span("harness.make_input"):
            make_input(lay, wl, seeds)

        with tr.span("stage.fit-map"):
            data = load()
            per_g = np.random.SeedSequence(seeds.fit_map).spawn(len(wl.g_list))
            for G, ss in zip(wl.g_list, per_g):
                hyper = _prior(G, wl.K)
                fits = []
                for i in range(wl.n_start):
                    # fit_map_multistart draws its start from rng.spawn(1);
                    # this parent's next child is the CLI's i-th start stream
                    parent = np.random.SeedSequence(
                        ss.entropy, spawn_key=ss.spawn_key, n_children_spawned=i
                    )
                    with tr.span("em.fit_map_multistart", G=G, job=True):
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always", RuntimeWarning)
                            fit = fit_map_multistart(
                                data, G, 1, hyper=hyper,
                                centered_start=wl.centered_start,
                                max_iter=wl.max_iter, tol=EM_TOL,
                                rng=np.random.default_rng(parent), n_jobs=1,
                            )
                    fits.append(fit)
                    stats["em_iters"] += fit.n_iter_used
                    stats["em_starts"] += 1
                    stats["em_converged"] += int(fit.converged)
                    stats["em_floor_hits"] += sum(
                        issubclass(w.category, RuntimeWarning) for w in caught
                    )
                finals = np.array([f.log_post for f in fits])
                best = int(max(range(len(fits)), key=lambda i: (finals[i], -i)))
                fit = dataclasses.replace(fits[best], final_log_posts=finals, best_start=best)
                with tr.span("fileio.write_map_json"):
                    write_map_json(lay.map_json(G), fit)

        with tr.span("stage.fit-gibbs"):
            data = load()
            kids = np.random.SeedSequence(seeds.fit_gibbs).spawn(len(wl.g_list))
            for G, kid in zip(wl.g_list, kids):
                with tr.span("fileio.read_map_json"):
                    init = init_from_map(read_map_json(lay.map_json(G)))
                with tr.span("gibbs.gibbs_run", G=G, sweeps=wl.n_iter, job=True):
                    chain = gibbs_run(
                        data, G, hyper=_prior(G, wl.K), init=init,
                        n_iter=wl.n_iter, n_burn=wl.n_burn,
                        rng=int(kid.generate_state(1, np.uint64)[0]),
                    )
                with tr.span("fileio.write_chain_csv"):
                    write_chain_csv(lay.chain_csv(G), chain)
                stats["chain_bytes"] += os.path.getsize(lay.chain_csv(G))

        with tr.span("stage.select"):
            data = load()
            fits, chains = [], []
            for G in wl.g_list:
                with tr.span("fileio.read_map_json"):
                    fits.append(read_map_json(lay.map_json(G)))
                with tr.span("fileio.read_chain_csv"):
                    chains.append(read_chain_csv(lay.chain_csv(G)))
            with tr.span("selection.selection_criteria"):
                report = selection_criteria(
                    [c.deviance for c in chains], fits, data, chains=chains
                )
            with tr.span("fileio.write_selection"):
                fileio.write_selection_csv(lay.select / "selection.csv", report)
                fileio.write_selection_json(lay.select / "selection.json", report)

        with tr.span("stage.ppcheck"):
            data = load()
            chains = []
            for G in wl.g_list:
                with tr.span("fileio.read_chain_csv"):
                    chains.append(read_chain_csv(lay.chain_csv(G)))
            draws = sum(c.n_kept for c in chains)
            r_plain, r_cond = [
                np.random.default_rng(c)
                for c in np.random.SeedSequence(seeds.ppcheck).spawn(2)
            ]
            with tr.span("assessment.ppcheck", draws=draws):
                plain = ppcheck(data, chains, r_plain)
            with tr.span("assessment.ppcheck_cond", draws=draws):
                cond = ppcheck_cond(data, chains, r_cond)
            with tr.span("fileio.write_ppcheck"):
                fileio.write_ppcheck_csv(lay.ppcheck / "ppcheck.csv", plain, cond)
                fileio.write_ppcheck_json(lay.ppcheck / "ppcheck.json", plain, cond)

        with tr.span("stage.relabel"):
            G = wl.true_G
            with tr.span("fileio.read_chain_csv"):
                chain = read_chain_csv(lay.chain_csv(G))
            with tr.span("fileio.read_map_json"):
                pivot = read_map_json(lay.map_json(G))
            with tr.span("relabel.pra_relabel", sweeps=chain.n_kept):
                rel = pra_relabel(chain, pivot)
            with tr.span("fileio.write_chain_csv"):
                write_chain_csv(lay.relabel / "relabeled_chain.csv", rel)
            with tr.span("fileio.write_permutations_csv"):
                fileio.write_permutations_csv(lay.relabel / "permutations.csv", rel)
            stats["chain_bytes"] += os.path.getsize(lay.relabel / "relabeled_chain.csv")
            stats["relabel_sweeps"] = rel.n_kept
            stats["permuted"] = int(
                (rel.permutations != np.arange(G)).any(axis=1).sum()
            )
    return stats


def probes(wl: Workload, seeds: Seeds, lay: Layout, tr: Tracer) -> None:
    """Kernels timed alone on the workload's input, at every G in PROBE_G,
    so that each workload reports the same per-G metrics."""
    from plrank import Dataset, MixtureParams, em_step, gibbs_run
    from plrank import mixture_loglik, read_dataset

    data = read_dataset(lay.input, "ordering")
    rng = np.random.default_rng(seeds.probe)
    with tr.span("probe"):
        for _ in range(5):
            with tr.span("data.from_orderings"):
                Dataset.from_orderings(data.orderings)
        for G in PROBE_G:
            params = MixtureParams(rng.gamma(2.0, 1.0, (G, wl.K)), np.full(G, 1.0 / G))
            hyper = _prior(G, wl.K)
            for _ in range(5):
                with tr.span("model.mixture_loglik", G=G):
                    mixture_loglik(params, data)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for _ in range(3):
                    with tr.span("em.em_step", G=G):
                        em_step(params, data, hyper)
            with tr.span("gibbs.gibbs_run", G=G, sweeps=PROBE_SWEEPS):
                gibbs_run(data, G, hyper=hyper, n_iter=PROBE_SWEEPS, n_burn=0,
                          rng=seeds.probe)


def _roots(spans: list[dict]) -> dict[int, str]:
    """Name of the outermost span above each span (itself if top-level)."""
    ids = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = ids[s["parent"]]
        return s["name"]

    return {s["id"]: root(s) for s in spans}


def _named(spans, name, root=None):
    roots = _roots(spans)
    return [s for s in spans
            if s["name"] == name and root in (None, roots[s["id"]])]


def _stage_library_s(spans, stage: str) -> float:
    """Library time of one stage as the CLI would spend it with PARALLEL
    workers: serial parts plus the parallel jobs' makespan lower bound."""
    top = _named(spans, f"stage.{stage}", root="pipeline")[0]
    jobs = [duration(s) for s in spans
            if s["parent"] == top["id"] and s["attrs"].get("job")]
    serial = duration(top) - sum(jobs)
    if len(jobs) > 1:
        return serial + max(max(jobs), sum(jobs) / min(PARALLEL, len(jobs)))
    return serial + sum(jobs)


def layer_metrics(spans: list[dict], stats: dict, n_units: int,
                  distinct_rows: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced library run plus probes."""
    med = statistics.median
    ms = 1e3
    m: dict[str, tuple[float, str]] = {}
    m["data.ingest_ms"] = (med(map(duration, _named(spans, "data.from_orderings"))) * ms, "ms")
    m["data.distinct_share"] = (distinct_rows / n_units, "ratio")
    m["fileio.read_dataset_ms"] = (
        med(map(duration, _named(spans, "fileio.read_dataset", root="pipeline"))) * ms, "ms")
    m["fileio.write_chain_ms"] = (
        sum(map(duration, _named(spans, "fileio.write_chain_csv"))) * ms, "ms")
    m["fileio.read_chain_ms"] = (
        sum(map(duration, _named(spans, "fileio.read_chain_csv"))) * ms, "ms")
    m["fileio.chain_bytes"] = (stats["chain_bytes"], "bytes")
    for G in PROBE_G:
        at_g = lambda name: [s for s in _named(spans, name, root="probe")  # noqa: E731
                             if s["attrs"]["G"] == G]
        m[f"model.loglik_ms_G{G}"] = (med(map(duration, at_g("model.mixture_loglik"))) * ms, "ms")
        m[f"em.step_ms_G{G}"] = (med(map(duration, at_g("em.em_step"))) * ms, "ms")
        sweep = at_g("gibbs.gibbs_run")[0]
        m[f"gibbs.sweep_ms_G{G}"] = (duration(sweep) / sweep["attrs"]["sweeps"] * ms, "ms")
    m["model.sample_ms"] = (duration(_named(spans, "model.sample_mixture")[0]) * ms, "ms")
    m["em.iters"] = (stats["em_iters"], "count")
    m["em.converged_share"] = (stats["em_converged"] / stats["em_starts"], "ratio")
    m["em.floor_hits"] = (stats["em_floor_hits"], "count")
    m["selection.criteria_ms"] = (
        duration(_named(spans, "selection.selection_criteria")[0]) * ms, "ms")
    for name in ("ppcheck", "ppcheck_cond"):
        s = _named(spans, f"assessment.{name}")[0]
        m[f"assessment.{name}_draw_ms"] = (duration(s) / s["attrs"]["draws"] * ms, "ms")
    s = _named(spans, "relabel.pra_relabel")[0]
    m["relabel.sweep_us"] = (duration(s) / s["attrs"]["sweeps"] * 1e6, "us")
    m["relabel.permuted_share"] = (stats["permuted"] / stats["relabel_sweeps"], "ratio")
    own = self_times(spans)
    roots = _roots(spans)
    layer_self = dict.fromkeys(LAYERS + ("harness",), 0.0)
    for s in spans:
        if roots[s["id"]] != "pipeline":
            continue
        layer = s["name"].split(".")[0]
        if layer in ("stage", "pipeline"):
            layer = "harness"
        layer_self[layer] += own[s["id"]]
    for layer, secs in layer_self.items():
        m[f"self_ms.{layer}"] = (secs * ms, "ms")
    return m


def stage_overheads(spans: list[dict], cli_walls: dict[str, float]) -> dict:
    """CLI stage wall time minus the traced library time of that stage:
    process start, imports, pool start-up and argument/file plumbing."""
    return {
        f"cli.stage_overhead_s.{stage}": (wall - _stage_library_s(spans, stage), "s")
        for stage, wall in cli_walls.items()
    }
