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
"""

from .assessment import PpcheckReport, ppcheck, ppcheck_cond
from .data import (
    Dataset,
    FreqTable,
    RankSummaries,
    binary_group_ind,
    freq_to_unit,
    make_complete,
    make_partial,
    ord_rank_switch,
    paired_comparisons,
    rank_summaries,
    unit_to_freq,
)
from .em import (
    Hyperparams,
    MapFit,
    bic,
    em_step,
    fit_map,
    fit_map_multistart,
)
from .errors import NumericalError, ValidationError
from .fileio import (
    read_chain_csv,
    read_dataset,
    read_map_json,
    read_sequence_csv,
    write_chain_csv,
    write_dataset,
    write_map_json,
    write_sequence_csv,
)
from .gibbs import GibbsChain, gibbs_run, init_from_map
from .model import (
    MixtureParams,
    NormalizedParams,
    mixture_loglik,
    mixture_logliks_per_unit,
    pl_prob,
    sample_mixture,
)
from .relabel import RelabeledChain, pra_relabel
from .selection import SelectionReport, selection_criteria

__all__ = [
    "Dataset",
    "FreqTable",
    "GibbsChain",
    "Hyperparams",
    "MapFit",
    "MixtureParams",
    "NormalizedParams",
    "NumericalError",
    "PpcheckReport",
    "RankSummaries",
    "RelabeledChain",
    "SelectionReport",
    "ValidationError",
    "bic",
    "binary_group_ind",
    "em_step",
    "fit_map",
    "fit_map_multistart",
    "freq_to_unit",
    "gibbs_run",
    "init_from_map",
    "make_complete",
    "make_partial",
    "mixture_loglik",
    "mixture_logliks_per_unit",
    "ord_rank_switch",
    "paired_comparisons",
    "pl_prob",
    "ppcheck",
    "ppcheck_cond",
    "pra_relabel",
    "rank_summaries",
    "read_chain_csv",
    "read_dataset",
    "read_map_json",
    "read_sequence_csv",
    "sample_mixture",
    "selection_criteria",
    "unit_to_freq",
    "write_chain_csv",
    "write_dataset",
    "write_map_json",
    "write_sequence_csv",
]

__version__ = "0.1.0"
