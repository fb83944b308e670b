"""Finite Plackett-Luce mixtures for partial top rankings.

Library layout:

    data        sequence formats, aggregation, censoring, summaries
    model       stagewise choice probabilities, mixture likelihood, sampling
    em          MAP / maximum likelihood fitting via EM-MM iterations
    gibbs       posterior sampling with the conjugate data augmentation
    selection   deviance-based model choice criteria
    assessment  chi-squared discrepancies and posterior predictive checks
    relabel     pivot-based repair of label switching in mixture chains
    fileio      CSV and preference-profile parsing and export
    cli         batch command-line front end (`plrank ...`)

The names below are imported from their module on first access (PEP 562),
so `import plrank` loads no submodule and a program compiles only the
modules whose names it uses.
"""

from importlib import import_module

_EXPORTS = {
    "assessment": ("PpcheckReport", "ppcheck", "ppcheck_cond"),
    "data": (
        "Dataset",
        "FreqTable",
        "RankSummaries",
        "binary_group_ind",
        "freq_to_unit",
        "make_complete",
        "make_partial",
        "ord_rank_switch",
        "paired_comparisons",
        "rank_summaries",
        "unit_to_freq",
    ),
    "em": ("Hyperparams", "MapFit", "bic", "em_step", "fit_map", "fit_map_multistart"),
    "errors": ("NumericalError", "ValidationError"),
    "fileio": (
        "read_chain_csv",
        "read_dataset",
        "read_map_json",
        "read_sequence_csv",
        "write_chain_csv",
        "write_dataset",
        "write_map_json",
        "write_sequence_csv",
    ),
    "gibbs": ("GibbsChain", "gibbs_run", "init_from_map"),
    "model": (
        "MixtureParams",
        "NormalizedParams",
        "mixture_loglik",
        "mixture_logliks_per_unit",
        "pl_prob",
        "sample_mixture",
    ),
    "relabel": ("RelabeledChain", "pra_relabel"),
    "selection": ("SelectionReport", "selection_criteria"),
}

# each public name -> the submodule that defines it
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
