"""Batch command-line front end.

Subcommands: convert, summarize, simulate, fit-map, fit-gibbs, select,
ppcheck, relabel. Every option can also come from an environment variable
(PLRANK_ plus the option name upper-snake, e.g. PLRANK_SEED) or from a
JSON config file passed with --config; explicit flags win over the
environment, which wins over the config file. Stochastic commands require
a seed and then produce byte-identical outputs across runs.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import fileio
from .data import Dataset, ORDERING, RANKING, rank_summaries
from .em import DEFAULT_TOL, Hyperparams, _best_fits, _chain_steps, _fan_out
from .errors import NumericalError, ValidationError
from .fileio import PREFLIB
from .gibbs import DEFAULT_N_BURN, DEFAULT_N_ITER, gibbs_run, init_from_map
from .model import MixtureParams, sample_mixture

# assessment, selection and relabel are imported by the commands that run
# them, so that every other stage skips compiling and loading them

ENV_PREFIX = "PLRANK_"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _as_bool(name: str, val) -> bool:
    """A JSON boolean, or one of the words of _BOOL_WORDS in any case."""
    if isinstance(val, bool):
        return val
    word = val.strip().lower() if isinstance(val, str) else None
    if word not in _BOOL_WORDS:
        raise ValidationError(f"--{name}: expected true or false, not {val!r}")
    return _BOOL_WORDS[word]


class _Options:
    """Flag / environment / config resolution for one invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = {}
        cfg_path = getattr(args, "config", None) or os.environ.get(
            ENV_PREFIX + "CONFIG"
        )
        if cfg_path:
            self.config = fileio._read_json(cfg_path)
            if not isinstance(self.config, dict):
                raise ValidationError(f"{cfg_path}: config must be an object")

    def get(self, name: str, default=None, cast=None, required: bool = False,
            least=None):
        key = name.replace("-", "_")
        val = getattr(self.args, key, None)
        if val is None:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                val = env
            elif key in self.config:
                val = self.config[key]
        if val is None:
            if required:
                raise ValidationError(f"missing required option --{name}")
            return default
        if cast is bool:
            return _as_bool(name, val)
        # a config value is checked as its flag would be, from its text:
        # JSON 20.9 or true is no integer, and 0 or a list is no path or name
        if cast is None:
            if not isinstance(val, str):
                raise ValidationError(f"--{name}: expected a string, not {val!r}")
            return val
        try:
            val = cast(str(val))
        except ValueError:
            raise ValidationError(f"--{name}: cannot parse {val!r}") from None
        if least is not None and val < least:
            raise ValidationError(f"--{name} must be >= {least}")
        return val

    def getlist(self, name: str, required: bool = False):
        key = name.replace("-", "_")
        val = getattr(self.args, key, None)
        if not val:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                val = [tok for tok in env.split(os.pathsep) if tok]
            elif key in self.config:
                val = self.config[key]
                strings = isinstance(val, list) and all(isinstance(v, str) for v in val)
                if not strings:
                    raise ValidationError(f"--{name}: expected a JSON list of strings")
        if not val:
            if required:
                raise ValidationError(f"missing required option --{name}")
            return []
        return val


def _load_data(opts: _Options) -> Dataset:
    path = opts.get("input", required=True)
    fmt = opts.get("format", default=ORDERING)
    K = opts.get("K", cast=int)
    return fileio.read_dataset(path, fmt, K=K)


def _out_dir(opts: _Options) -> str:
    out = opts.get("out", required=True)
    os.makedirs(out, exist_ok=True)
    return out


def _g_range(opts: _Options) -> list[int]:
    G = opts.get("G", cast=int, required=True, least=1)
    g_max = opts.get("G-max", cast=int)
    if g_max is None:
        return [G]
    if g_max < G:
        raise ValidationError("--G-max must be >= --G")
    return list(range(G, g_max + 1))


def _hyper(opts: _Options, G: int, K: int) -> Hyperparams:
    shape = opts.get("shape", default=1.0, cast=float)
    rate = opts.get("rate", default=0.0, cast=float)
    alpha = opts.get("alpha", default=1.0, cast=float)
    return Hyperparams.expand(shape, rate, alpha, G, K)


def _seed(opts: _Options) -> int:
    return opts.get("seed", cast=int, required=True, least=0)


def _parallel(opts: _Options) -> int:
    """Worker processes; by default the CPUs this process may run on (its
    affinity mask where the platform has one), not the host's CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return opts.get("parallel", default=cpus, cast=int, least=1)


# ------------------------------------------------------------- subcommands


def _cmd_convert(opts: _Options) -> int:
    path = opts.get("input", required=True)
    fmt = opts.get("format", required=True)
    out = opts.get("out", required=True)
    to = opts.get("to") or (RANKING if fmt == ORDERING else ORDERING)
    # checked here, not left to write_dataset, so that a bad --to fails
    # before a large input is read
    if to not in (ORDERING, RANKING, PREFLIB):
        raise ValidationError("--to must be ordering, ranking, or preflib")
    data = fileio.read_dataset(path, fmt)
    fileio.write_dataset(out, data, to)
    print(f"convert: {data.n_units} rows, {data.n_items} items, {fmt} -> {to}: {out}")
    return EXIT_OK


def _cmd_summarize(opts: _Options) -> int:
    data = _load_data(opts)
    summ = rank_summaries(data)
    doc = {
        "n_units": data.n_units,
        "n_items": data.n_items,
        "nranked_distr": {str(k): v for k, v in summ.nranked_distr.items()},
        "missing_pos": summ.missing_pos.tolist(),
        "mean_rank": [None if np.isnan(v) else v for v in summ.mean_rank],
        "marginal_rank_distr": summ.marginal_rank_distr.tolist(),
        "pairedcomparisons": summ.pairedcomparisons.tolist(),
    }
    out = opts.get("out")
    if out:
        fileio._write_json(out, doc)
    print(f"summarize: {data.n_units} units, {data.n_items} items")
    print("depth counts:", " ".join(f"{k}:{v}" for k, v in summ.nranked_distr.items()))
    print("times unranked:", " ".join(str(v) for v in summ.missing_pos))
    print(
        "mean rank:",
        " ".join("na" if np.isnan(v) else f"{v:.4f}" for v in summ.mean_rank),
    )
    return EXIT_OK


def _cmd_simulate(opts: _Options) -> int:
    n = opts.get("n", cast=int, required=True)
    K = opts.get("K", cast=int, required=True)
    G = opts.get("G", default=1, cast=int)
    seed = _seed(opts)
    out = _out_dir(opts)
    params_path = opts.get("params")
    if params_path:
        doc = fileio._read_json(params_path)
        try:
            params = MixtureParams(doc["supports"], doc["weights"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"{params_path}: not a params file ({e})")
    else:
        params = MixtureParams.uniform(G, K)
    labels, data = sample_mixture(n, K, G, params, np.random.default_rng(seed))
    fileio.write_sequence_csv(os.path.join(out, "orderings.csv"), data.orderings)
    fileio._write_csv(
        os.path.join(out, "components.csv"), ["component"], labels[:, None].tolist()
    )
    fileio._write_json(
        os.path.join(out, "params.json"),
        {
            "supports": params.supports.tolist(),
            "weights": params.weights.tolist(),
            "seed": seed,
        },
    )
    print(f"simulate: {n} orderings, K={K}, G={G}, seed={seed}: {out}")
    return EXIT_OK


def _cmd_fit_map(opts: _Options) -> int:
    data = _load_data(opts)
    g_list = _g_range(opts)
    n_start = opts.get("n-start", default=1, cast=int, least=1)
    centered = opts.get("centered-start", default=False, cast=bool)
    max_iter = opts.get("max-iter", cast=int)
    tol = opts.get("tol", default=DEFAULT_TOL, cast=float)
    seed = _seed(opts)
    jobs_n = _parallel(opts)
    out = _out_dir(opts)

    per_g = np.random.SeedSequence(seed).spawn(len(g_list))
    runs = [
        (G, _hyper(opts, G, data.n_items), np.random.default_rng(ss))
        for G, ss in zip(g_list, per_g)
    ]
    fits = _best_fits(data, runs, n_start, centered, max_iter, tol, jobs_n)
    for G, fit in zip(g_list, fits):
        path = os.path.join(out, f"map_G{G}.json")
        fileio.write_map_json(path, fit)
        bic_txt = "na" if fit.bic is None else f"{fit.bic:.3f}"
        print(
            f"fit-map: G={G} log_post={fit.log_post:.6f} bic={bic_txt} "
            f"converged={fit.converged} iters={fit.n_iter_used} "
            f"starts={n_start}: {path}"
        )
    return EXIT_OK


def _gibbs_job(data, job):
    G, hyper, init, n_iter, n_burn, seed = job
    return gibbs_run(
        data, G, hyper=hyper, init=init, n_iter=n_iter, n_burn=n_burn, rng=seed
    )


def _cmd_fit_gibbs(opts: _Options) -> int:
    data = _load_data(opts)
    g_list = _g_range(opts)
    n_iter = opts.get("n-iter", default=DEFAULT_N_ITER, cast=int)
    n_burn = opts.get("n-burn", default=DEFAULT_N_BURN, cast=int)
    seed = _seed(opts)
    jobs_n = _parallel(opts)
    init_from = opts.get("init-from")
    out = _out_dir(opts)

    inits = {}
    for G in g_list:
        if init_from:
            path = init_from
            if os.path.isdir(init_from):
                path = os.path.join(init_from, f"map_G{G}.json")
            fit = fileio.read_map_json(path)
            if fit.n_components != G:
                raise ValidationError(
                    f"{path}: fit has G={fit.n_components}, expected {G}"
                )
            inits[G] = init_from_map(fit)
        else:
            inits[G] = None

    master = np.random.SeedSequence(seed)
    child_seeds = [
        int(c.generate_state(1, np.uint64)[0]) for c in master.spawn(len(g_list))
    ]
    jobs = [
        (G, _hyper(opts, G, data.n_items), inits[G], n_iter, n_burn, s)
        for G, s in zip(g_list, child_seeds)
    ]
    steps = _chain_steps(g_list, n_iter)
    chains = _fan_out(_gibbs_job, data, jobs, jobs_n, steps)

    for G, chain in zip(g_list, chains):
        path = os.path.join(out, f"chain_G{G}.csv")
        fileio.write_chain_csv(path, chain)
        meta = {
            "n_components": G,
            "n_items": data.n_items,
            "n_units": data.n_units,
            "n_iter": n_iter,
            "n_burn": n_burn,
            "seed": chain.seed,
            "log_lik_mean": float(chain.log_lik.mean()),
            "deviance_mean": float(chain.deviance.mean()),
        }
        fileio._write_json(os.path.join(out, f"gibbs_G{G}.json"), meta)
        print(
            f"fit-gibbs: G={G} kept={chain.n_kept} "
            f"mean_deviance={meta['deviance_mean']:.3f}: {path}"
        )
    return EXIT_OK


def _cmd_select(opts: _Options) -> int:
    from .selection import selection_criteria

    data = _load_data(opts)
    map_paths = opts.getlist("map", required=True)
    chain_paths = opts.getlist("chain", required=True)
    if len(map_paths) != len(chain_paths):
        raise ValidationError("need one --chain per --map, in the same order")
    point = opts.get("point-estimate", default="map")
    fits = [fileio.read_map_json(p) for p in map_paths]
    chains = [fileio.read_chain_csv(p) for p in chain_paths]
    for p, f, c in zip(map_paths, fits, chains):
        if f.n_components != c.n_components:
            raise ValidationError(
                f"{p}: fit G={f.n_components} but paired chain has "
                f"G={c.n_components}"
            )
    report = selection_criteria(
        [c.deviance for c in chains],
        fits,
        data,
        point_estimate=point,
        chains=chains,
    )
    out = _out_dir(opts)
    fileio.write_selection_csv(os.path.join(out, "selection.csv"), report)
    fileio.write_selection_json(os.path.join(out, "selection.json"), report)
    for row in report.to_rows():
        print(
            f"select: G={row['G']} DIC1={row['DIC1']:.3f} DIC2={row['DIC2']:.3f} "
            f"BPIC1={row['BPIC1']:.3f} BPIC2={row['BPIC2']:.3f} "
            f"BICM1={row['BICM1']:.3f} BICM2={row['BICM2']:.3f}"
        )
    return EXIT_OK


def _cmd_ppcheck(opts: _Options) -> int:
    from .assessment import _ppchecks

    data = _load_data(opts)
    chain_paths = opts.getlist("chain", required=True)
    seed = _seed(opts)
    chains = [fileio.read_chain_csv(p) for p in chain_paths]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    plain, cond = _ppchecks(data, chains, rng)
    out = _out_dir(opts)
    fileio.write_ppcheck_csv(os.path.join(out, "ppcheck.csv"), plain, cond)
    fileio.write_ppcheck_json(os.path.join(out, "ppcheck.json"), plain, cond)
    for row in fileio.ppcheck_rows(plain, cond):
        print(
            f"ppcheck: G={row['G']} "
            f"top1={row['post_pred_pvalue_top1']:.4f} "
            f"paired={row['post_pred_pvalue_paired']:.4f} "
            f"top1_cond={row['post_pred_pvalue_top1_cond']:.4f} "
            f"paired_cond={row['post_pred_pvalue_paired_cond']:.4f}"
        )
    return EXIT_OK


def _cmd_relabel(opts: _Options) -> int:
    from .relabel import pra_relabel

    chain_paths = opts.getlist("chain", required=True)
    if len(chain_paths) != 1:
        raise ValidationError("relabel takes exactly one --chain")
    pivot_path = opts.get("pivot", required=True)
    chain = fileio.read_chain_csv(chain_paths[0])
    pivot = fileio.read_map_json(pivot_path)
    relabeled = pra_relabel(chain, pivot)
    out = _out_dir(opts)
    chain_out = os.path.join(out, "relabeled_chain.csv")
    fileio.write_chain_csv(chain_out, relabeled)
    fileio.write_permutations_csv(
        os.path.join(out, "permutations.csv"), relabeled
    )
    moved = int((relabeled.permutations != np.arange(chain.n_components)).any(axis=1).sum())
    print(
        f"relabel: {relabeled.n_kept} sweeps, {moved} permuted: {chain_out}"
    )
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    spec = {
        "input": dict(help="input data file"),
        "format": dict(help="ordering, ranking, or preflib"),
        "K": dict(help="expected number of items"),
        "G": dict(help="number of components"),
        "G-max": dict(help="fit every G up to this (with --G as the start)"),
        "n-start": dict(help="number of EM starting points"),
        "max-iter": dict(help="EM iteration cap (default 400*G)"),
        "tol": dict(help="EM convergence tolerance on the log posterior"),
        "n-iter": dict(help="total sweeps"),
        "n-burn": dict(help="burn-in sweeps discarded"),
        "seed": dict(help="RNG seed (required for stochastic commands)"),
        "shape": dict(help="Gamma prior shape (scalar, default 1)"),
        "rate": dict(help="Gamma prior rate (scalar, default 0)"),
        "alpha": dict(help="Dirichlet prior parameter (scalar, default 1)"),
        "centered-start": dict(
            help="draw EM starts around observed first-place shares",
            action="store_const",
            const=True,
        ),
        "parallel": dict(
            help="most worker processes (default: the CPUs this process may "
            "run on); jobs run in this process when the work that more "
            "workers could save would not pay for starting a pool"
        ),
        "out": dict(help="output file or directory"),
        "to": dict(help="conversion target format"),
        "params": dict(help="JSON file with supports and weights"),
        "n": dict(help="number of units to simulate"),
        "init-from": dict(help="map fit JSON (or directory of map_G*.json)"),
        "point-estimate": dict(help="plug-in for criteria: map, mean, median"),
        "map": dict(help="map fit JSON (repeatable)", action="append"),
        "chain": dict(help="chain trace CSV (repeatable)", action="append"),
        "pivot": dict(help="map fit JSON used as relabeling pivot"),
    }
    for name in names:
        kw = dict(spec[name])
        kw.setdefault("default", None)
        sub.add_argument(f"--{name}", **kw)
    sub.add_argument("--config", default=None, help="JSON config file")


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 as one JSON line (subparsers share the class)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plrank",
        description="Finite Plackett-Luce mixtures for partial top rankings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="switch dataset formats")
    _add_common(p, "input", "format", "to", "out")
    p = sub.add_parser("summarize", help="descriptive summaries")
    _add_common(p, "input", "format", "K", "out")
    p = sub.add_parser("simulate", help="sample a synthetic dataset")
    _add_common(p, "n", "K", "G", "params", "seed", "out")
    p = sub.add_parser("fit-map", help="EM fit (MAP / maximum likelihood)")
    _add_common(
        p, "input", "format", "K", "G", "G-max", "n-start", "centered-start",
        "max-iter", "tol", "shape", "rate", "alpha", "seed", "parallel", "out",
    )
    p = sub.add_parser("fit-gibbs", help="posterior sampling")
    _add_common(
        p, "input", "format", "K", "G", "G-max", "n-iter", "n-burn",
        "shape", "rate", "alpha", "seed", "init-from", "parallel", "out",
    )
    p = sub.add_parser("select", help="model choice criteria")
    _add_common(p, "input", "format", "K", "map", "chain", "point-estimate", "out")
    p = sub.add_parser("ppcheck", help="posterior predictive checks")
    _add_common(p, "input", "format", "K", "chain", "seed", "out")
    p = sub.add_parser("relabel", help="repair label switching")
    _add_common(p, "chain", "pivot", "out")
    return parser


_COMMANDS = {
    "convert": _cmd_convert,
    "summarize": _cmd_summarize,
    "simulate": _cmd_simulate,
    "fit-map": _cmd_fit_map,
    "fit-gibbs": _cmd_fit_gibbs,
    "select": _cmd_select,
    "ppcheck": _cmd_ppcheck,
    "relabel": _cmd_relabel,
}


def _fail(code: int, kind: str, exc: Exception) -> int:
    msg = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(msg), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        opts = _Options(args)
        return _COMMANDS[args.command](opts)
    except ValidationError as e:
        return _fail(EXIT_VALIDATION, "validation", e)
    except NumericalError as e:
        return _fail(EXIT_NUMERICAL, "numerical", e)
    except OSError as e:
        return _fail(EXIT_IO, "io", e)


def run() -> int:
    """The process entry point (`plrank`, `python -m plrank.cli`): main()
    after gc.freeze(), which moves every object alive at entry (the
    interpreter's, numpy's and plrank's start-up objects) out of the
    collector's reach, so that neither the stage's collections nor the
    interpreter's passes at exit scan them again. main() leaves the
    collector as it finds it, for callers in a longer-lived process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
