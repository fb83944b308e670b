import json
import os
import subprocess
import sys

import numpy as np
import pytest

from plrank import cli, read_chain_csv, read_map_json


def run(argv):
    return cli.main([str(a) for a in argv])


def test_convert_both_directions(tmp_path):
    src = tmp_path / "ord.csv"
    src.write_text("3,1,4,2,5\n2,0,0,0,0\n")
    rank = tmp_path / "rank.csv"
    back = tmp_path / "back.csv"
    assert run(["convert", "--input", src, "--format", "ordering", "--out", rank]) == 0
    assert rank.read_text() == "2,4,1,3,5\n0,1,0,0,0\n"
    assert run(["convert", "--input", rank, "--format", "ranking", "--out", back]) == 0
    assert back.read_text() == src.read_text()


def test_convert_preflib(tmp_path):
    src = tmp_path / "profile.txt"
    src.write_text("# NUMBER ALTERNATIVES: 3\n2: 1,2,3\n1: 2\n")
    out = tmp_path / "ord.csv"
    assert run(["convert", "--input", src, "--format", "preflib", "--out", out]) == 0
    rows = sorted(out.read_text().splitlines())
    assert rows == ["1,2,3", "1,2,3", "2,0,0"]


def test_summarize_json(tmp_path):
    src = tmp_path / "ord.csv"
    src.write_text("1,2,3\n1,0,0\n2,3,1\n")
    out = tmp_path / "summary.json"
    code = run(
        ["summarize", "--input", src, "--format", "ordering", "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_units"] == 3 and doc["n_items"] == 3
    assert doc["nranked_distr"] == {"1": 1, "3": 2}
    assert doc["missing_pos"] == [0, 1, 1]
    marg = np.array(doc["marginal_rank_distr"])
    assert marg.sum(axis=0).tolist() == [3, 2, 2]


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(
            ["simulate", "--n", 50, "--K", 4, "--G", 2, "--seed", 11, "--out", out]
        )
        assert code == 0
    assert (a / "orderings.csv").read_bytes() == (b / "orderings.csv").read_bytes()
    assert (a / "components.csv").read_bytes() == (b / "components.csv").read_bytes()
    doc = json.loads((a / "params.json").read_text())
    assert doc["seed"] == 11
    assert np.array(doc["supports"]).shape == (2, 4)
    comp = (a / "components.csv").read_text().splitlines()
    assert comp[0] == "component"
    assert set(comp[1:]) <= {"1", "2"}


def test_fit_map_then_gibbs_init(tmp_path):
    data = tmp_path / "sim"
    run(["simulate", "--n", 80, "--K", 3, "--seed", 3, "--out", data])
    fits = tmp_path / "fits"
    code = run(
        [
            "fit-map", "--input", data / "orderings.csv", "--format", "ordering",
            "--G", 1, "--G-max", 2, "--n-start", 2, "--seed", 5,
            "--parallel", 1, "--out", fits,
        ]
    )
    assert code == 0
    fit = read_map_json(fits / "map_G2.json")
    assert fit.n_components == 2
    assert fit.final_log_posts.shape == (2,)
    chains = tmp_path / "chains"
    code = run(
        [
            "fit-gibbs", "--input", data / "orderings.csv", "--format", "ordering",
            "--G", 2, "--n-iter", 30, "--n-burn", 10, "--seed", 7,
            "--init-from", fits, "--parallel", 1, "--out", chains,
        ]
    )
    assert code == 0
    chain = read_chain_csv(chains / "chain_G2.csv")
    assert chain.n_kept == 20 and chain.n_components == 2
    meta = json.loads((chains / "gibbs_G2.json").read_text())
    assert meta["n_iter"] == 30 and meta["n_burn"] == 10
    # the recorded seed is the chain's own derived stream, reproducible alone
    from plrank import Dataset, gibbs_run
    from plrank.fileio import read_sequence_csv

    redo = gibbs_run(
        Dataset.from_orderings(read_sequence_csv(data / "orderings.csv")),
        2,
        n_iter=30,
        n_burn=10,
        rng=meta["seed"],
        init=cli.init_from_map(read_map_json(fits / "map_G2.json")),
    )
    assert np.array_equal(redo.P, chain.P)
    assert meta["deviance_mean"] == pytest.approx(-2 * meta["log_lik_mean"])

    sel = tmp_path / "sel"
    code = run(
        [
            "select", "--input", data / "orderings.csv", "--format", "ordering",
            "--map", fits / "map_G2.json", "--chain", chains / "chain_G2.csv",
            "--out", sel,
        ]
    )
    assert code == 0
    lines = (sel / "selection.csv").read_text().splitlines()
    assert lines[0].startswith("G,D_bar,D_hat,")
    assert len(lines) == 2

    ppc = tmp_path / "ppc"
    code = run(
        [
            "ppcheck", "--input", data / "orderings.csv", "--format", "ordering",
            "--chain", chains / "chain_G2.csv", "--seed", 13, "--out", ppc,
        ]
    )
    assert code == 0
    doc = json.loads((ppc / "ppcheck.json").read_text())
    row = doc["checks"][0]
    for key in (
        "post_pred_pvalue_top1",
        "post_pred_pvalue_paired",
        "post_pred_pvalue_top1_cond",
        "post_pred_pvalue_paired_cond",
    ):
        assert 0.0 <= row[key] <= 1.0

    rel = tmp_path / "rel"
    code = run(
        [
            "relabel", "--chain", chains / "chain_G2.csv",
            "--pivot", fits / "map_G2.json", "--out", rel,
        ]
    )
    assert code == 0
    out_chain = read_chain_csv(rel / "relabeled_chain.csv")
    assert out_chain.P.shape == chain.P.shape
    perms = (rel / "permutations.csv").read_text().splitlines()
    assert perms[0] == "sweep,sigma_1,sigma_2"
    assert len(perms) == 21


def test_exit_codes_and_error_json(tmp_path, capsys):
    code = run(
        ["summarize", "--input", tmp_path / "none.csv", "--format", "ordering"]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "io"

    src = tmp_path / "ord.csv"
    src.write_text("1,2,3\n")
    assert run(["summarize", "--input", src, "--format", "sideways"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"

    code = run(["simulate", "--n", 10, "--K", 3, "--out", tmp_path / "s"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["error"]["message"]

    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe\x00bogus")
    assert run(["summarize", "--input", bad, "--format", "ordering"]) in (2, 3)


def test_option_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 100, "n": 20, "K": 3}))
    # config alone supplies everything
    out1 = tmp_path / "o1"
    assert run(["simulate", "--config", cfg, "--out", out1]) == 0
    # env beats config
    monkeypatch.setenv("PLRANK_SEED", "200")
    out2 = tmp_path / "o2"
    assert run(["simulate", "--config", cfg, "--out", out2]) == 0
    assert json.loads((out2 / "params.json").read_text())["seed"] == 200
    # flag beats env
    out3 = tmp_path / "o3"
    assert run(["simulate", "--config", cfg, "--seed", 300, "--out", out3]) == 0
    assert json.loads((out3 / "params.json").read_text())["seed"] == 300
    assert json.loads((out1 / "params.json").read_text())["seed"] == 100
    monkeypatch.delenv("PLRANK_SEED")
    # malformed config is a validation failure
    cfg.write_text("{not json")
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o4"]) == 2


def test_parallel_runs_byte_identical(tmp_path):
    data = tmp_path / "sim"
    run(["simulate", "--n", 60, "--K", 3, "--G", 2, "--seed", 9, "--out", data])
    outs = []
    for tag, workers in (("p1", 1), ("p2", 2)):
        out = tmp_path / tag
        code = run(
            [
                "fit-map", "--input", data / "orderings.csv",
                "--format", "ordering", "--G", 2, "--n-start", 3,
                "--seed", 21, "--parallel", workers, "--out", out,
            ]
        )
        assert code == 0
        outs.append((out / "map_G2.json").read_bytes())
    assert outs[0] == outs[1]


def test_fit_map_matches_library_multistart(tmp_path):
    from plrank import Dataset, fit_map_multistart
    from plrank.fileio import read_sequence_csv

    data = tmp_path / "sim"
    run(["simulate", "--n", 80, "--K", 4, "--G", 2, "--seed", 3, "--out", data])
    out = tmp_path / "fit"
    code = run(
        [
            "fit-map", "--input", data / "orderings.csv", "--format", "ordering",
            "--G", 2, "--n-start", 3, "--seed", 17, "--parallel", 1,
            "--out", out,
        ]
    )
    assert code == 0
    cli_fit = read_map_json(out / "map_G2.json")
    stream = np.random.default_rng(np.random.SeedSequence(17).spawn(1)[0])
    lib_fit = fit_map_multistart(
        Dataset.from_orderings(read_sequence_csv(data / "orderings.csv")),
        2,
        3,
        rng=stream,
    )
    assert np.array_equal(cli_fit.supports, lib_fit.supports)
    assert np.array_equal(cli_fit.final_log_posts, lib_fit.final_log_posts)
    assert cli_fit.best_start == lib_fit.best_start


def test_console_entry_point(tmp_path):
    src = tmp_path / "ord.csv"
    src.write_text("1,2\n2,1\n")
    proc = subprocess.run(
        [
            sys.executable, "-m", "plrank.cli",
            "summarize", "--input", str(src), "--format", "ordering",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2 units" in proc.stdout
