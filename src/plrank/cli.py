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
from typing import Callable, NamedTuple

import numpy as np

from . import fileio
from .data import ORDERING, RANKING, Dataset, rank_summaries
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

_FORMATS = (ORDERING, RANKING, PREFLIB)


class _Option(NamedTuple):
    type: type  # str, int, float, bool (a flag) or list (a repeatable str)
    default: object
    bound: object  # an int or float's least value, or a str's allowed words
    help: str


_OPTIONS = {
    "input": _Option(str, None, None, "input data file"),
    "format": _Option(str, ORDERING, _FORMATS, "input data format"),
    "K": _Option(int, None, 1, "expected number of items"),
    "G": _Option(int, 1, 1, "number of components"),
    "G-max": _Option(int, None, None, "fit every G from --G up to this"),
    "n-start": _Option(int, 1, 1, "number of EM starting points"),
    "centered-start": _Option(bool, False, None, "EM starts around first-place shares"),
    "max-iter": _Option(int, None, 0, "EM iteration cap, 400*G when unset"),
    "tol": _Option(float, DEFAULT_TOL, None, "EM tolerance on the log posterior"),
    "n-iter": _Option(int, DEFAULT_N_ITER, 1, "total sweeps"),
    "n-burn": _Option(int, DEFAULT_N_BURN, 0, "burn-in sweeps, fewer than --n-iter"),
    "seed": _Option(int, None, 0, "RNG seed"),
    "shape": _Option(float, 1.0, 0, "Gamma prior shape"),
    "rate": _Option(float, 0.0, 0, "Gamma prior rate"),
    "alpha": _Option(float, 1.0, 0, "Dirichlet prior parameter"),
    "parallel": _Option(
        int, None, 1,
        "most workers (processes where a pool pays, else threads for wide-row "
        "jobs), when unset the CPUs this process may run on",
    ),
    "out": _Option(str, None, None, "output file or directory"),
    "to": _Option(
        str, None, _FORMATS,
        "target format, when unset ranking from ordering, else ordering",
    ),
    "params": _Option(str, None, None, "JSON file with supports and weights"),
    "n": _Option(int, None, 1, "number of units to simulate"),
    "init-from": _Option(str, None, None, "map fit JSON, or a directory of map_G*.json"),
    "point-estimate": _Option(
        str, "map", ("map", "mean", "median"), "plug-in for criteria"
    ),
    "map": _Option(list, None, None, "map fit JSON (repeatable)"),
    "chain": _Option(list, None, None, "chain trace CSV (repeatable)"),
    "pivot": _Option(str, None, None, "map fit JSON used as relabeling pivot"),
}


def _words(words) -> str:
    return ", ".join(words[:-1]) + ", or " + words[-1]


def _cast(name: str, val):
    """One option's value from its flag, environment or config text, cast
    to its type and checked against its bound. A config value is checked as
    its flag would be, from its text: JSON 20.9 or true is no integer, and
    0 or a list is no path or name."""
    kind, _, bound, _ = _OPTIONS[name]
    if kind is list:
        if not (isinstance(val, list) and all(isinstance(v, str) for v in val)):
            raise ValidationError(f"--{name}: expected a JSON list of strings")
        return val
    if kind is bool:
        if isinstance(val, bool):
            return val
        word = val.strip().lower() if isinstance(val, str) else None
        if word not in _BOOL_WORDS:
            raise ValidationError(f"--{name}: expected true or false, not {val!r}")
        return _BOOL_WORDS[word]
    if kind is str:
        if not isinstance(val, str):
            raise ValidationError(f"--{name}: expected a string, not {val!r}")
        if bound is not None and val not in bound:
            raise ValidationError(f"--{name}={val}: expected {_words(bound)}")
        if name == "out":  # echoed on stdout and in a profile's title, as UTF-8
            try:
                val.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"--out: {val!r} is not a UTF-8 name") from None
        return val
    try:
        val = kind(str(val))
    except ValueError:
        raise ValidationError(f"--{name}: cannot parse {val!r}") from None
    if val != val:
        raise ValidationError(f"--{name}: expected a number, not nan")
    if bound is not None and val < bound:
        raise ValidationError(f"--{name}={val}: must be >= {bound}")
    return val


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Every option of args.command, from its flag, else its PLRANK_<NAME>
    environment variable, else the --config file, else its default; cast
    and checked before the command reads or writes anything. Attributes
    take the option names with "-" as "_"."""
    config = {}
    cfg_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if cfg_path:
        config = fileio._read_json(cfg_path)
        if not isinstance(config, dict):
            raise ValidationError(f"{cfg_path}: config must be an object")
    opts = argparse.Namespace()
    for entry in _COMMANDS[args.command].options.split():
        name = entry.rstrip("!")
        key = name.replace("-", "_")
        val = getattr(args, key)
        if val is None:
            val = os.environ.get(ENV_PREFIX + key.upper())
            if val is None:
                val = config.get(key)
            elif _OPTIONS[name].type is list:
                val = [tok for tok in val.split(os.pathsep) if tok]
        if val is None or val == []:
            if entry.endswith("!"):
                raise ValidationError(f"missing required option --{name}")
            val = _OPTIONS[name].default
        else:
            val = _cast(name, val)
        setattr(opts, key, val)
    return opts


def _load_data(opts: argparse.Namespace) -> Dataset:
    return fileio.read_dataset(opts.input, opts.format, K=opts.K)


def _out_dir(opts: argparse.Namespace) -> str:
    """--out as a directory, made when the command first writes to it."""
    os.makedirs(opts.out, exist_ok=True)
    return opts.out


def _g_range(opts: argparse.Namespace) -> list[int]:
    if opts.G_max is None:
        return [opts.G]
    if opts.G_max < opts.G:
        raise ValidationError("--G-max must be >= --G")
    return list(range(opts.G, opts.G_max + 1))


def _hyper(opts: argparse.Namespace, G: int, K: int) -> Hyperparams:
    return Hyperparams.expand(opts.shape, opts.rate, opts.alpha, G, K)


def _parallel(opts: argparse.Namespace) -> int:
    """--parallel, by default the CPUs this process may run on (its
    affinity mask where the platform has one), not the host's CPUs."""
    if opts.parallel is not None:
        return opts.parallel
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ------------------------------------------------------------- subcommands


def _cmd_convert(opts: argparse.Namespace) -> int:
    fmt = opts.format
    to = opts.to or (RANKING if fmt == ORDERING else ORDERING)
    data = fileio.read_dataset(opts.input, fmt)
    fileio.write_dataset(opts.out, data, to)
    print(f"convert: {data.n_units} rows, {data.n_items} items, {fmt} -> {to}: {opts.out}")
    return EXIT_OK


def _cmd_summarize(opts: argparse.Namespace) -> int:
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
    if opts.out:
        fileio._write_json(opts.out, doc)
    print(f"summarize: {data.n_units} units, {data.n_items} items")
    print("depth counts:", " ".join(f"{k}:{v}" for k, v in summ.nranked_distr.items()))
    print("times unranked:", " ".join(str(v) for v in summ.missing_pos))
    print(
        "mean rank:",
        " ".join("na" if np.isnan(v) else f"{v:.4f}" for v in summ.mean_rank),
    )
    return EXIT_OK


def _cmd_simulate(opts: argparse.Namespace) -> int:
    n, K, G, seed = opts.n, opts.K, opts.G, opts.seed
    if opts.params:
        params = fileio._read_params(opts.params)
    else:
        params = MixtureParams.uniform(G, K)
    labels, data = sample_mixture(n, K, G, params, np.random.default_rng(seed))
    out = _out_dir(opts)
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


def _cmd_fit_map(opts: argparse.Namespace) -> int:
    g_list = _g_range(opts)
    data = _load_data(opts)
    per_g = np.random.SeedSequence(opts.seed).spawn(len(g_list))
    runs = [
        (G, _hyper(opts, G, data.n_items), np.random.default_rng(ss))
        for G, ss in zip(g_list, per_g)
    ]
    fits = _best_fits(data, runs, opts.n_start, opts.centered_start,
                      opts.max_iter, opts.tol, _parallel(opts))
    out = _out_dir(opts)
    for G, fit in zip(g_list, fits):
        path = os.path.join(out, f"map_G{G}.json")
        fileio.write_map_json(path, fit)
        bic_txt = "na" if fit.bic is None else f"{fit.bic:.3f}"
        print(
            f"fit-map: G={G} log_post={fit.log_post:.6f} bic={bic_txt} "
            f"converged={fit.converged} iters={fit.n_iter_used} "
            f"starts={opts.n_start}: {path}"
        )
    return EXIT_OK


def _gibbs_job(data, job):
    G, hyper, init, n_iter, n_burn, seed = job
    return gibbs_run(
        data, G, hyper=hyper, init=init, n_iter=n_iter, n_burn=n_burn, rng=seed
    )


def _cmd_fit_gibbs(opts: argparse.Namespace) -> int:
    g_list = _g_range(opts)
    data = _load_data(opts)
    n_iter, n_burn, init_from = opts.n_iter, opts.n_burn, opts.init_from
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

    master = np.random.SeedSequence(opts.seed)
    child_seeds = [
        int(c.generate_state(1, np.uint64)[0]) for c in master.spawn(len(g_list))
    ]
    jobs = [
        (G, _hyper(opts, G, data.n_items), inits[G], n_iter, n_burn, s)
        for G, s in zip(g_list, child_seeds)
    ]
    steps = _chain_steps(g_list, n_iter)
    chains = _fan_out(_gibbs_job, data, jobs, _parallel(opts), steps, g_list)

    out = _out_dir(opts)
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


def _cmd_select(opts: argparse.Namespace) -> int:
    from .selection import selection_criteria

    if len(opts.map) != len(opts.chain):
        raise ValidationError("need one --chain per --map, in the same order")
    data = _load_data(opts)
    fits = [fileio.read_map_json(p) for p in opts.map]
    chains = [fileio.read_chain_csv(p) for p in opts.chain]
    for p, f, c in zip(opts.map, fits, chains):
        if f.n_components != c.n_components:
            raise ValidationError(
                f"{p}: fit G={f.n_components} but paired chain has "
                f"G={c.n_components}"
            )
    report = selection_criteria(
        [c.deviance for c in chains],
        fits,
        data,
        point_estimate=opts.point_estimate,
        chains=chains,
    )
    out = _out_dir(opts)
    fileio.write_selection_csv(os.path.join(out, "selection.csv"), report)
    fileio.write_selection_json(os.path.join(out, "selection.json"), report)
    for row in report.to_rows():
        print(
            f"select: G={row['G']} DIC1={row['DIC1']:.3f} DIC2={row['DIC2']:.3f} "
            f"BPIC1={row['BPIC1']:.3f} BPIC2={row['BPIC2']:.3f} "
            f"BICM1={row['BICM1']:.3f} BICM2={row['BICM2']:.3f} "
            f"complexity_ok={json.dumps(row['complexity_ok'])}"
        )
    return EXIT_OK


def _cmd_ppcheck(opts: argparse.Namespace) -> int:
    from .assessment import _ppchecks

    data = _load_data(opts)
    chains = [fileio.read_chain_csv(p) for p in opts.chain]
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed).spawn(1)[0])
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


def _cmd_relabel(opts: argparse.Namespace) -> int:
    from .relabel import pra_relabel

    if len(opts.chain) != 1:
        raise ValidationError("relabel takes exactly one --chain")
    chain = fileio.read_chain_csv(opts.chain[0])
    pivot = fileio.read_map_json(opts.pivot)
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


class _Command(NamedTuple):
    run: Callable
    help: str
    options: str  # the names of _OPTIONS it takes; "!" marks a required one


_COMMANDS = {
    "convert": _Command(_cmd_convert, "switch dataset formats",
                        "input! format! to out!"),
    "summarize": _Command(_cmd_summarize, "descriptive summaries",
                          "input! format K out"),
    "simulate": _Command(_cmd_simulate, "sample a synthetic dataset",
                         "n! K! G params seed! out!"),
    "fit-map": _Command(
        _cmd_fit_map, "EM fit (MAP / maximum likelihood)",
        "input! format K G! G-max n-start centered-start max-iter tol shape "
        "rate alpha seed! parallel out!",
    ),
    "fit-gibbs": _Command(
        _cmd_fit_gibbs, "posterior sampling",
        "input! format K G! G-max n-iter n-burn shape rate alpha seed! "
        "init-from parallel out!",
    ),
    "select": _Command(_cmd_select, "model choice criteria",
                       "input! format K map! chain! point-estimate out!"),
    "ppcheck": _Command(_cmd_ppcheck, "posterior predictive checks",
                        "input! format K chain! seed! out!"),
    "relabel": _Command(_cmd_relabel, "repair label switching",
                        "chain! pivot! out!"),
}


def _help(name: str, required: bool) -> str:
    """The option's help line with its default and bound, from the table."""
    _, default, bound, text = _OPTIONS[name]
    notes = []
    if required:
        notes.append("required")
    elif default is not None:
        notes.append(f"default {default}")
    if isinstance(bound, tuple):
        notes.append(_words(bound))
    elif bound is not None:
        notes.append(f">= {bound}")
    return f"{text} ({'; '.join(notes)})" if notes else text


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
    action = {list: "append", bool: "store_true"}
    for command, (_, text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for entry in options.split():
            name = entry.rstrip("!")
            p.add_argument(f"--{name}", default=None, help=_help(name, entry != name),
                           action=action.get(_OPTIONS[name].type, "store"))
        p.add_argument("--config", help="JSON config file")
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    msg = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(msg), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command].run(resolve(args))
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
