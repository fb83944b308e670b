"""Reading and writing datasets, chains, fits, and report tables.

Dataset CSVs are plain integer matrices, one unit per row, zero-coded
missing entries, with an optional header row. Preference profiles follow
the line-oriented format with '#'-prefixed metadata and aggregated
"count: item,item,..." preference lines. Chain traces are CSVs with
columns p_1_1 ... p_G_K (component-major), w_1 ... w_G, log_lik,
deviance. Fits are JSON, report tables CSV and JSON. Every CSV passes
through one reader (_records) and one writer (_write_csv), every JSON
file through _read_json and _write_json: lines end in CRLF, floats are
written as .17g so equal inputs and seeds give byte identical files, and
input that is malformed or not UTF-8 raises ValidationError naming the
file.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re

import numpy as np

from .data import (
    Dataset,
    ORDERING,
    RANKING,
    _check_cells,
    _units,
    binary_group_ind,
    ord_rank_switch,
)
from .em import Hyperparams, MapFit
from .errors import ValidationError
from .gibbs import GibbsChain
from .model import MixtureParams, _check_mixture_arrays

PREFLIB = "preflib"

_NUM_ALTERNATIVES = re.compile(r"#\s*NUMBER\s+ALTERNATIVES\s*:\s*(\d+)", re.I)


# ------------------------------------------------------------- file forms


def _records(path):
    """(line number, stripped non-empty cells) of each non-blank CSV
    record; a record the csv module rejects is an error naming its line,
    bytes that are not UTF-8 an error naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for rec in reader:
                cells = [c for c in map(str.strip, rec) if c]
                if cells:
                    yield reader.line_num, cells
        except csv.Error as e:
            raise ValidationError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not UTF-8 text") from None


def _matrix(path, records, dtype) -> np.ndarray:
    """int64 or float64 matrix of numeric records; a non-number, a ragged
    row or an entry outside int64 is an error naming its line."""
    parse, kind = (int, "an integer") if dtype == np.int64 else (float, "a number")
    lines, rows = [], []
    for ln, cells in records:
        try:
            rows.append(list(map(parse, cells)))
        except ValueError:
            raise ValidationError(f"{path}: line {ln}: entry is not {kind}") from None
        if len(cells) != len(rows[0]):
            raise ValidationError(f"{path}: line {ln}: ragged row")
        lines.append(ln)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    try:
        return np.asarray(rows, dtype=dtype)
    except OverflowError:
        info = np.iinfo(np.int64)
        ln = next(
            ln for ln, r in zip(lines, rows) if min(r) < info.min or max(r) > info.max
        )
        raise ValidationError(f"{path}: line {ln}: entry outside int64") from None


def _write_csv(path, header, rows) -> None:
    """CSV lines ending in CRLF: the header if given, then one line per
    row, floats as .17g (full round-trip precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in r]
            for r in rows
        )


def _read_text(path) -> str:
    """Whole UTF-8 file; other bytes are an error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not UTF-8 text") from None


def _read_json(path):
    """Parsed JSON document; malformed JSON is an error naming the file."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}") from None


def _write_json(path, doc) -> None:
    """JSON document, one-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------- datasets


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_sequence_csv(path) -> np.ndarray:
    """Integer sequence matrix from CSV; a line 1 holding a token that is
    not a number is a header and skipped."""
    records = _records(path)
    first = next(records, None)
    if first is not None and (first[0] != 1 or all(map(_is_number, first[1]))):
        records = itertools.chain([first], records)
    return _matrix(path, records, np.int64)


def write_sequence_csv(path, matrix: np.ndarray) -> None:
    _write_csv(path, None, np.asarray(matrix, dtype=np.int64).tolist())


def parse_preflib(path) -> Dataset:
    """Parse a strict/incomplete-order preference profile into a Dataset.

    Metadata lines start with '#'; "# NUMBER ALTERNATIVES: K" fixes the
    item count (otherwise the largest item id seen is used). Preference
    lines read "count: i1,i2,..." with 1-based item ids; each becomes one
    row counting its units. Rows ranking all but one item are completed at
    ingestion like any other top-(K-1) sequence.
    """
    return parse_preflib_text(_read_text(path), source=str(path))


def parse_preflib_text(text: str, source: str = "<preflib>") -> Dataset:
    K = None
    prefs: list[tuple[int, list[int]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _NUM_ALTERNATIVES.match(line)
            if m:
                K = int(m.group(1))
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValidationError(f"{source}: line {ln}: expected 'count: items'")
        try:
            count = int(head.strip())
        except ValueError:
            raise ValidationError(f"{source}: line {ln}: bad count") from None
        try:
            items = [int(tok.strip()) for tok in tail.split(",") if tok.strip()]
        except ValueError:
            raise ValidationError(f"{source}: line {ln}: bad item id") from None
        if not items:
            raise ValidationError(f"{source}: line {ln}: empty preference")
        if len(set(items)) != len(items):
            raise ValidationError(f"{source}: line {ln}: duplicate item")
        if min(items) < 1:
            raise ValidationError(f"{source}: line {ln}: item ids are 1-based")
        prefs.append((count, items))
    if not prefs:
        raise ValidationError(f"{source}: no preference lines")
    max_seen = max(max(items) for _, items in prefs)
    if K is None:
        K = max_seen
    elif max_seen > K:
        raise ValidationError(f"{source}: item id {max_seen} exceeds K={K}")
    try:
        _check_cells(len(prefs), K, "lines")
        matrix = np.zeros((len(prefs), K), dtype=np.int64)
        for row, (_, items) in zip(matrix, prefs):
            row[: len(items)] = items
        return Dataset.from_orderings(matrix, [c for c, _ in prefs])
    except ValidationError as e:
        raise ValidationError(f"{source}: {e}") from None


def format_preflib(data, title: str = "rankings") -> str:
    """Serialize a dataset as an aggregated preference profile; distinct
    rows are emitted in lexicographic order with their units' counts."""
    if not isinstance(data, Dataset):
        data = Dataset.from_orderings(data)
    rows = data.patterns.rows
    out = io.StringIO()
    out.write(f"# TITLE: {title}\n")
    out.write(f"# NUMBER ALTERNATIVES: {data.n_items}\n")
    out.write(f"# NUMBER VOTERS: {data.n_units}\n")
    for seq, cnt in zip(rows.orderings.tolist(), rows.counts.tolist()):
        ranked = [str(v) for v in seq if v != 0]
        out.write(f"{cnt}: {','.join(ranked)}\n")
    return out.getvalue()


def write_preflib(path, data, title: str | None = None) -> None:
    if title is None:
        title = os.path.splitext(os.path.basename(str(path)))[0]
    with open(path, "w") as fh:
        fh.write(format_preflib(data, title=title))


def read_dataset(path, format: str, K: int | None = None) -> Dataset:
    """Load a dataset in any supported format, validating K if given."""
    if format == PREFLIB:
        data = parse_preflib(path)
    elif format in (ORDERING, RANKING):
        matrix = read_sequence_csv(path)
        if format == ORDERING:
            data = Dataset.from_orderings(matrix)
        else:
            data = Dataset.from_rankings(matrix)
    else:
        raise ValidationError(f"unknown format {format!r}")
    if K is not None and data.n_items != K:
        raise ValidationError(f"{path}: expected K={K}, found {data.n_items}")
    return data


def write_dataset(path, data: Dataset, format: str = ORDERING) -> None:
    """Write a dataset; the CSV formats hold one row per unit."""
    if format == ORDERING:
        write_sequence_csv(path, _units(data).orderings)
    elif format == RANKING:
        write_sequence_csv(path, ord_rank_switch(_units(data).orderings, ORDERING))
    elif format == PREFLIB:
        write_preflib(path, data)
    else:
        raise ValidationError(f"unknown format {format!r}")


# ------------------------------------------------------------------ chains


def chain_header(G: int, K: int) -> list[str]:
    cols = [f"p_{g + 1}_{i + 1}" for g in range(G) for i in range(K)]
    cols += [f"w_{g + 1}" for g in range(G)]
    return cols + ["log_lik", "deviance"]


def write_chain_csv(path, chain) -> None:
    """Trace CSV: p columns component-major, then weights, log_lik,
    deviance; works for raw and relabeled chains."""
    trace = np.column_stack([chain.P, chain.W, chain.log_lik, chain.deviance])
    _write_csv(path, chain_header(chain.n_components, chain.n_items), trace.tolist())


def read_chain_csv(path) -> GibbsChain:
    """Load a trace CSV back into a GibbsChain.

    Sweep counts are reconstructed as n_iter = kept rows, n_burn = 0; the
    original run's bookkeeping is not stored in the CSV.
    """
    records = _records(path)
    _, header = next(records, (None, []))
    w_cols = [h for h in header if re.fullmatch(r"w_\d+", h)]
    p_cols = [h for h in header if re.fullmatch(r"p_\d+_\d+", h)]
    G = len(w_cols)
    if G == 0 or not p_cols or len(p_cols) % G != 0:
        raise ValidationError(f"{path}: not a chain trace header")
    K = len(p_cols) // G
    expect = chain_header(G, K)
    if header != expect:
        raise ValidationError(f"{path}: unexpected column layout")
    arr = _matrix(path, records, np.float64)
    if arr.shape[1] != len(expect):
        raise ValidationError(f"{path}: rows do not match the header")
    P, W = arr[:, : G * K], arr[:, G * K : G * K + G]
    _check_mixture_arrays(P, W, f"{path}: ")
    if not np.isfinite(arr[:, -2:]).all():
        raise ValidationError(f"{path}: log_lik and deviance must be finite")
    return GibbsChain(
        P=P,
        W=W,
        log_lik=arr[:, -2],
        deviance=arr[:, -1],
        n_iter=arr.shape[0],
        n_burn=0,
        seed=None,
    )


def write_permutations_csv(path, relabeled) -> None:
    """Per-sweep relabeling log, 1-based component indices."""
    header = ["sweep"] + [f"sigma_{g + 1}" for g in range(relabeled.n_components)]
    perms = (relabeled.permutations + 1).tolist()
    _write_csv(path, header, [[l, *perm] for l, perm in enumerate(perms, start=1)])


# ------------------------------------------------------------------- fits


def map_fit_to_dict(fit: MapFit) -> dict:
    return {
        "n_components": int(fit.n_components),
        "n_items": int(fit.supports.shape[1]),
        "supports": fit.supports.tolist(),
        "weights": fit.weights.tolist(),
        "supports_raw": fit.supports_raw.tolist(),
        "labels": fit.labels.tolist(),
        "log_post_trace": fit.log_post_trace.tolist(),
        "log_lik": float(fit.log_lik),
        "converged": bool(fit.converged),
        "n_iter_used": int(fit.n_iter_used),
        "bic": None if fit.bic is None else float(fit.bic),
        "hyper": {
            "shape": fit.hyper.shape.tolist(),
            "rate": fit.hyper.rate.tolist(),
            "alpha": fit.hyper.alpha.tolist(),
        },
        "final_log_posts": (
            None
            if fit.final_log_posts is None
            else fit.final_log_posts.tolist()
        ),
        "best_start": None if fit.best_start is None else int(fit.best_start),
    }


def write_map_json(path, fit: MapFit) -> None:
    _write_json(path, map_fit_to_dict(fit))


def read_map_json(path) -> MapFit:
    """Load a fit written by write_map_json.

    Soft responsibilities are not serialized; they are reconstructed as
    the one-hot encoding of the stored classification.
    """
    doc = _read_json(path)
    try:
        G = int(doc["n_components"])
        supports = np.asarray(doc["supports"], dtype=np.float64)
        weights = np.asarray(doc["weights"], dtype=np.float64)
        MixtureParams(supports, weights)  # positive supports, simplex weights
        if supports.ndim != 2 or supports.shape[0] != G:
            raise ValidationError("malformed supports")
        onehot = binary_group_ind(doc["labels"], G)
        fin = doc.get("final_log_posts")
        bic = doc.get("bic")
        return MapFit(
            supports=supports,
            weights=weights,
            supports_raw=np.asarray(doc["supports_raw"], dtype=np.float64),
            responsibilities=onehot.astype(np.float64),
            labels=np.argmax(onehot, axis=1) + 1,
            log_post_trace=np.asarray(doc["log_post_trace"], dtype=np.float64),
            log_lik=float(doc["log_lik"]),
            converged=bool(doc["converged"]),
            n_iter_used=int(doc["n_iter_used"]),
            bic=None if bic is None else float(bic),
            hyper=Hyperparams(
                np.asarray(doc["hyper"]["shape"], dtype=np.float64),
                np.asarray(doc["hyper"]["rate"], dtype=np.float64),
                np.asarray(doc["hyper"]["alpha"], dtype=np.float64),
            ),
            final_log_posts=None if fin is None else np.asarray(fin, dtype=np.float64),
            best_start=doc.get("best_start"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"{path}: not a fit file ({e})") from None


# ----------------------------------------------------------------- reports


def _write_table_csv(path, rows: list[dict]) -> None:
    """Header from the first row's keys, then one line per row."""
    cols = list(rows[0])
    _write_csv(path, cols, ([r[c] for c in cols] for r in rows))


def write_selection_csv(path, report) -> None:
    _write_table_csv(path, report.to_rows())


def write_selection_json(path, report) -> None:
    _write_json(
        path, {"point_estimate": report.point_estimate, "criteria": report.to_rows()}
    )


def ppcheck_rows(plain, cond) -> list[dict]:
    return [
        {
            "G": int(g),
            "post_pred_pvalue_top1": float(plain.p_top1[i]),
            "post_pred_pvalue_paired": float(plain.p_paired[i]),
            "post_pred_pvalue_top1_cond": float(cond.p_top1[i]),
            "post_pred_pvalue_paired_cond": float(cond.p_paired[i]),
        }
        for i, g in enumerate(plain.g_values)
    ]


def write_ppcheck_csv(path, plain, cond) -> None:
    _write_table_csv(path, ppcheck_rows(plain, cond))


def write_ppcheck_json(path, plain, cond) -> None:
    _write_json(path, {"checks": ppcheck_rows(plain, cond)})
