import json

import numpy as np
import pytest

from plrank import (
    Dataset,
    Hyperparams,
    ValidationError,
    fit_map,
    gibbs_run,
    read_chain_csv,
    read_dataset,
    read_map_json,
    read_sequence_csv,
    write_chain_csv,
    write_dataset,
    write_map_json,
    write_sequence_csv,
)
from plrank.fileio import (
    format_preflib,
    parse_preflib,
    parse_preflib_text,
    ppcheck_rows,
    write_permutations_csv,
    write_ppcheck_csv,
    write_ppcheck_json,
    write_preflib,
    write_selection_csv,
    write_selection_json,
)
from oracles import random_partial_matrix


def test_sequence_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mat, _ = random_partial_matrix(rng, 30, 5)
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, mat)
    assert np.array_equal(read_sequence_csv(path), mat)
    # writing the read-back matrix reproduces the file byte for byte
    again = tmp_path / "seq2.csv"
    write_sequence_csv(again, read_sequence_csv(path))
    assert path.read_bytes() == again.read_bytes()


def test_sequence_csv_header_sniff(tmp_path):
    body = "1,2,0\n2,1,3\n"
    bare = tmp_path / "bare.csv"
    bare.write_text(body)
    headed = tmp_path / "headed.csv"
    headed.write_text("item_1,item_2,item_3\n" + body)
    assert np.array_equal(read_sequence_csv(bare), read_sequence_csv(headed))


def test_sequence_csv_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n1,2,3\n")
    with pytest.raises(ValidationError):
        read_sequence_csv(bad)
    bad.write_text("1,x,3\n")
    with pytest.raises(ValidationError):
        read_sequence_csv(bad)
    bad.write_text("")
    with pytest.raises(ValidationError):
        read_sequence_csv(bad)
    bad.write_text("3,1,2\n\n1,2,-9223372036854775809\n")
    with pytest.raises(ValidationError, match="line 3: entry outside int64"):
        read_sequence_csv(bad)
    # a numeric first row that int() rejects is an error, not a header
    for first in ("1" * 5000 + ",2,3\n1,2,3\n", "1.0,2,3\n2,1,3\n"):
        bad.write_text(first)
        with pytest.raises(ValidationError, match="line 1"):
            read_sequence_csv(bad)


def test_preflib_golden():
    text = "# NUMBER ALTERNATIVES: 3\n3: 2,1\n"
    data = parse_preflib_text(text)
    # top-2 of 3 determines the last place, so each row completes
    units = np.repeat(data.orderings, data.counts, axis=0)
    assert units.tolist() == [[2, 1, 3]] * 3
    assert np.repeat(data.nranked, data.counts).tolist() == [3, 3, 3]


def test_preflib_without_item_count_header():
    data = parse_preflib_text("1: 4,2\n2: 1\n")
    assert data.n_items == 4
    assert data.n_units == 3
    units = np.repeat(data.orderings, data.counts, axis=0)
    assert units.tolist() == [[4, 2, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]


def test_preflib_errors():
    with pytest.raises(ValidationError):
        parse_preflib_text("# NUMBER ALTERNATIVES: 3\n1: 5,1\n")
    with pytest.raises(ValidationError):
        parse_preflib_text("0: 1,2\n")
    with pytest.raises(ValidationError):
        parse_preflib_text("2: 1,1\n")
    with pytest.raises(ValidationError):
        parse_preflib_text("not a line\n")
    with pytest.raises(ValidationError):
        parse_preflib_text("")
    # a line is one row counting its units, whatever the count
    data = parse_preflib_text("# NUMBER ALTERNATIVES: 3\n100000000000: 1,2\n")
    assert data.orderings.tolist() == [[1, 2, 3]]
    assert data.n_units == 10**11
    # counts must sum below 2**53, where float64 sums are exact
    with pytest.raises(ValidationError, match="below 2"):
        parse_preflib_text(f"{2**52}: 1,2\n{2**52}: 2,1\n")
    # the size check (lines x items) comes before the matrix is allocated
    with pytest.raises(ValidationError, match="exceeds the limit"):
        parse_preflib_text("1: 1,4000000000\n")


def test_preflib_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mat, _ = random_partial_matrix(rng, 40, 4)
    data = Dataset.from_orderings(mat)
    path = tmp_path / "profile.txt"
    write_preflib(path, data)
    back = parse_preflib(path)
    # aggregation reorders units; compare as multisets of rows
    a = np.array(sorted(data.orderings.tolist()))
    b = np.array(sorted(np.repeat(back.orderings, back.counts, axis=0).tolist()))
    assert np.array_equal(a, b)
    # a second pass through the canonical form is byte-stable
    assert format_preflib(back, title="profile") == format_preflib(
        parse_preflib_text(format_preflib(back, title="profile")), title="profile"
    )


def test_read_write_dataset_formats(tmp_path):
    rng = np.random.default_rng(2)
    mat, _ = random_partial_matrix(rng, 25, 4)
    data = Dataset.from_orderings(mat)
    for fmt in ("ordering", "ranking"):
        path = tmp_path / f"d_{fmt}.csv"
        write_dataset(path, data, fmt)
        back = read_dataset(path, fmt)
        assert np.array_equal(back.orderings, data.orderings)
        assert np.array_equal(back.nranked, data.nranked)
    path = tmp_path / "d.preflib"
    write_dataset(path, data, "preflib")
    back = read_dataset(path, "preflib")
    assert np.array_equal(
        np.array(sorted(np.repeat(back.orderings, back.counts, axis=0).tolist())),
        np.array(sorted(data.orderings.tolist())),
    )
    with pytest.raises(ValidationError):
        read_dataset(tmp_path / "d_ordering.csv", "nope")
    with pytest.raises(ValidationError):
        read_dataset(tmp_path / "d_ordering.csv", "ordering", K=7)


def test_chain_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    chain = gibbs_run(data, 2, n_iter=40, n_burn=10, rng=5)
    path = tmp_path / "chain.csv"
    write_chain_csv(path, chain)
    back = read_chain_csv(path)
    assert np.array_equal(back.P, chain.P)
    assert np.array_equal(back.W, chain.W)
    assert np.array_equal(back.log_lik, chain.log_lik)
    assert np.array_equal(back.deviance, chain.deviance)
    assert back.n_components == 2 and back.n_items == 4
    assert back.n_kept == chain.n_kept


def test_chain_csv_header_validated(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("p_1_1,wrong\n0.5,0.5\n")
    with pytest.raises(ValidationError):
        read_chain_csv(path)
    path.write_text("")
    with pytest.raises(ValidationError):
        read_chain_csv(path)


def test_chain_csv_bad_cell_names_its_line(tmp_path):
    path = tmp_path / "chain.csv"
    head = "p_1_1,p_1_2,w_1,log_lik,deviance\n"
    path.write_text(head + "0.5,0.5,1,-2,4\n\n0.5,x,1,-2,4\n")
    with pytest.raises(ValidationError, match="line 4: entry is not a number"):
        read_chain_csv(path)


def test_map_json_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mat, _ = random_partial_matrix(rng, 30, 4)
    data = Dataset.from_orderings(mat)
    for hyper in (None, Hyperparams.expand(2.0, 0.5, 1.5, 2, 4)):
        fit = fit_map(data, 2, hyper=hyper, rng=np.random.default_rng(6))
        path = tmp_path / "fit.json"
        write_map_json(path, fit)
        back = read_map_json(path)
        assert np.array_equal(back.supports, fit.supports)
        assert np.array_equal(back.weights, fit.weights)
        assert np.array_equal(back.supports_raw, fit.supports_raw)
        assert np.array_equal(back.labels, fit.labels)
        assert np.array_equal(back.log_post_trace, fit.log_post_trace)
        assert back.log_lik == fit.log_lik
        assert back.converged == fit.converged
        assert back.n_iter_used == fit.n_iter_used
        assert back.bic == fit.bic
        assert np.array_equal(back.hyper.shape, fit.hyper.shape)
        assert np.array_equal(back.hyper.rate, fit.hyper.rate)
        assert np.array_equal(back.hyper.alpha, fit.hyper.alpha)
        # responsibilities come back as the one-hot classification
        onehot = np.eye(2)[fit.labels - 1]
        assert np.array_equal(back.responsibilities, onehot)


def test_permutations_csv(tmp_path):
    from plrank import MixtureParams, pra_relabel
    from plrank.gibbs import GibbsChain

    P = np.array([[0.6, 0.4, 0.3, 0.7], [0.3, 0.7, 0.6, 0.4]])
    W = np.array([[0.5, 0.5], [0.5, 0.5]])
    ll = np.array([-1.0, -1.0])
    chain = GibbsChain(
        P=P, W=W, log_lik=ll, deviance=-2 * ll, n_iter=2, n_burn=0, seed=None
    )
    pivot = MixtureParams(np.array([[0.6, 0.4], [0.3, 0.7]]), np.array([0.5, 0.5]))
    out = pra_relabel(chain, pivot)
    path = tmp_path / "perms.csv"
    write_permutations_csv(path, out)
    assert path.read_text() == "sweep,sigma_1,sigma_2\n1,1,2\n2,2,1\n"


def test_selection_writers(tmp_path):
    rng = np.random.default_rng(5)
    mat, _ = random_partial_matrix(rng, 40, 3)
    data = Dataset.from_orderings(mat)
    fit = fit_map(data, 1, rng=rng)
    from plrank import selection_criteria

    report = selection_criteria([np.array([2.0, 4.0])], [fit], data)
    cpath = tmp_path / "sel.csv"
    jpath = tmp_path / "sel.json"
    write_selection_csv(cpath, report)
    write_selection_json(jpath, report)
    lines = cpath.read_text().splitlines()
    assert lines[0] == (
        "G,D_bar,D_hat,var_D,DIC1,DIC2,BPIC1,BPIC2,BICM1,BICM2,complexity_ok"
    )
    assert len(lines) == 2
    doc = json.loads(jpath.read_text())
    assert doc["point_estimate"] == "map"
    assert doc["criteria"][0]["G"] == 1
    assert doc["criteria"][0]["DIC2"] == pytest.approx(4.0, abs=1e-12)


def test_ppcheck_writers(tmp_path):
    rng = np.random.default_rng(6)
    mat, _ = random_partial_matrix(rng, 40, 3)
    data = Dataset.from_orderings(mat)
    chain = gibbs_run(data, 1, n_iter=30, n_burn=10, rng=7)
    from plrank import ppcheck, ppcheck_cond

    plain = ppcheck(data, [chain], np.random.default_rng(8))
    cond = ppcheck_cond(data, [chain], np.random.default_rng(9))
    rows = ppcheck_rows(plain, cond)
    assert set(rows[0]) == {
        "G",
        "post_pred_pvalue_top1",
        "post_pred_pvalue_paired",
        "post_pred_pvalue_top1_cond",
        "post_pred_pvalue_paired_cond",
    }
    cpath = tmp_path / "ppc.csv"
    jpath = tmp_path / "ppc.json"
    write_ppcheck_csv(cpath, plain, cond)
    write_ppcheck_json(jpath, plain, cond)
    header = cpath.read_text().splitlines()[0]
    assert header == (
        "G,post_pred_pvalue_top1,post_pred_pvalue_paired,"
        "post_pred_pvalue_top1_cond,post_pred_pvalue_paired_cond"
    )
    doc = json.loads(jpath.read_text())
    assert doc["checks"][0]["G"] == 1
