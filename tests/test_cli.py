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
    # an unknown target is an error, not a silent switch
    bad = tmp_path / "bad.csv"
    argv = ["convert", "--input", src, "--format", "ordering", "--to", "foo"]
    assert run([*argv, "--out", bad]) == 2
    assert not bad.exists()


def test_convert_completes_depth_k_minus_1(tmp_path):
    # a row ranking K-1 items determines the last one and is written
    # complete, in either target format
    src = tmp_path / "ord.csv"
    src.write_text("1,2,0\n3,0,0\n")
    rank = tmp_path / "rank.csv"
    same = tmp_path / "same.csv"
    assert run(["convert", "--input", src, "--format", "ordering", "--out", rank]) == 0
    assert rank.read_text() == "1,2,3\n0,0,1\n"
    argv = ["convert", "--input", src, "--format", "ordering", "--to", "ordering"]
    assert run([*argv, "--out", same]) == 0
    assert same.read_text() == "1,2,3\n3,0,0\n"


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

    # bytes that are not UTF-8 are a validation failure naming the file,
    # whichever reader meets them
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe\x00bogus\n")
    for argv in (
        ["summarize", "--input", bad, "--format", "ordering"],
        ["summarize", "--input", bad, "--format", "preflib"],
        ["relabel", "--chain", bad, "--pivot", bad, "--out", tmp_path / "r"],
        ["simulate", "--config", bad, "--out", tmp_path / "s2"],
    ):
        assert run(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert str(bad) in err["error"]["message"]


def test_option_precedence(tmp_path, monkeypatch, capsys):
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
    capsys.readouterr()

    def rejected(argv, doc, option):
        cfg.write_text(json.dumps(doc))
        assert run([*argv, "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and option in err["message"]

    # config values are checked as their flags are: an integer option takes
    # neither a fraction nor a boolean
    sim = ["simulate", "--out", tmp_path / "o5"]
    rejected(sim, {"n": 20.9, "K": 4, "seed": 1}, "--n")
    rejected(sim, {"n": 20, "K": 4, "seed": True}, "--seed")
    assert not (tmp_path / "o5").exists()
    # a path takes a JSON string: 0 would read standard input
    summ = ["summarize", "--format", "ordering", "--out", tmp_path / "o8"]
    rejected(summ, {"input": 0}, "--input")
    rejected(summ, {"input": ["ord.csv"]}, "--input")
    # a repeatable option takes a JSON list of strings, never one string
    data = tmp_path / "ord.csv"
    data.write_text("1,2,3\n2,1,0\n")
    ppc = ["ppcheck", "--input", data, "--format", "ordering", "--seed", 1]
    rejected([*ppc, "--out", tmp_path / "o6"], {"chain": "chain_G1.csv"}, "--chain")
    rejected([*ppc, "--out", tmp_path / "o7"], {"chain": ["a.csv", 2]}, "--chain")


def test_centered_start_takes_only_boolean_words(tmp_path, monkeypatch, capsys):
    data = tmp_path / "ord.csv"
    data.write_text("1,2,3\n2,1,0\n3,0,0\n1,3,2\n")
    cfg = tmp_path / "cfg.json"

    def fit(tag, *extra):
        argv = ["fit-map", "--input", data, "--format", "ordering", "--G", 2,
                "--max-iter", 5, "--seed", 1, "--parallel", 1, "--out", tmp_path / tag]
        code = run([*argv, *extra])
        if code == 0:
            return (tmp_path / tag / "map_G2.json").read_bytes()
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1
        msg = json.loads(err[0])["error"]
        assert msg["type"] == "validation" and "--centered-start" in msg["message"]
        assert not (tmp_path / tag).exists()
        return None

    plain, centered = fit("plain"), fit("flag", "--centered-start")
    assert plain != centered
    # through the environment: the words in any case, nothing else
    for word, want in (("TRUE", centered), (" yes ", centered), ("On", centered),
                       ("1", centered), ("Off", plain), ("no", plain), ("0", plain),
                       ("false", plain), ("treu", None), ("maybe", None), ("2", None)):
        monkeypatch.setenv("PLRANK_CENTERED_START", word)
        assert fit(f"env-{word.strip()}") == want, word
    monkeypatch.delenv("PLRANK_CENTERED_START")
    # through a config file: JSON booleans and the same words
    for value, want in ((True, centered), (False, plain), ("yes", centered),
                        (5, None), (1, None), ("maybe", None), (None, plain)):
        cfg.write_text(json.dumps({"centered_start": value}))
        assert fit(f"cfg-{value}", "--config", cfg) == want, value


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


def test_cli_import_leaves_scipy_out():
    # the runtime needs numpy only; scipy is a test dependency
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, plrank.cli; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("ordering", "1,2,3\n2,99999999999999999999,1\n"),
        # a count at or above 2**53, past where float64 sums are exact
        ("preflib", "# NUMBER ALTERNATIVES: 3\n10000000000000000: 1,2\n"),
        ("preflib", "1: 1,4000000000\n"),
    ],
)
def test_oversized_input_is_a_validation_error(tmp_path, capsys, fmt, text):
    src = tmp_path / "input.txt"
    src.write_text(text)
    assert run(["summarize", "--input", src, "--format", fmt]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "validation"


def _ppcheck_inputs(tmp_path):
    """Partial orderings (three depth strata) and chains at G=1 and G=2."""
    from plrank import Dataset, gibbs_run, write_chain_csv
    from plrank.fileio import write_sequence_csv
    from oracles import random_partial_matrix

    mat, _ = random_partial_matrix(np.random.default_rng(0), 120, 4)
    src = tmp_path / "ord.csv"
    write_sequence_csv(src, mat)
    data = Dataset.from_orderings(mat)
    chains = []
    for G in (1, 2):
        path = tmp_path / f"chain_G{G}.csv"
        write_chain_csv(path, gibbs_run(data, G, n_iter=50, n_burn=10, rng=G))
        chains.append(path)
    args = ["--input", src, "--format", "ordering"]
    for path in chains:
        args += ["--chain", path]
    return data, [read_chain_csv(p) for p in chains], args


def test_ppcheck_simulates_one_replicate_per_draw(tmp_path, monkeypatch):
    from plrank import assessment

    _, chains, args = _ppcheck_inputs(tmp_path)
    real = assessment._replicate_counts
    calls = []

    def counting(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setattr(assessment, "_replicate_counts", counting)
    out = tmp_path / "ppc"
    assert run(["ppcheck", *args, "--seed", 13, "--out", out]) == 0
    assert len(calls) == sum(c.n_kept for c in chains)


def test_ppcheck_cli_matches_library_on_one_stream(tmp_path):
    from plrank import ppcheck, ppcheck_cond
    from plrank.fileio import ppcheck_rows

    data, chains, args = _ppcheck_inputs(tmp_path)
    out = tmp_path / "ppc"
    assert run(["ppcheck", *args, "--seed", 13, "--out", out]) == 0
    doc = json.loads((out / "ppcheck.json").read_text())

    def stream():
        return np.random.default_rng(np.random.SeedSequence(13).spawn(1)[0])

    plain = ppcheck(data, chains, stream())
    cond = ppcheck_cond(data, chains, stream())
    assert doc["checks"] == ppcheck_rows(plain, cond)


def _assert_validation_exit(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "validation"


@pytest.fixture(scope="module")
def fit_and_chain(tmp_path_factory):
    """A simulated dataset with a G=2 MAP fit and a G=2 chain file."""
    tmp = tmp_path_factory.mktemp("fit_and_chain")
    data = tmp / "sim"
    run(["simulate", "--n", 40, "--K", 3, "--G", 2, "--seed", 1, "--out", data])
    src = ["--input", data / "orderings.csv", "--format", "ordering"]
    fits = tmp / "fits"
    assert run(["fit-map", *src, "--G", 2, "--max-iter", 5, "--seed", 2,
                "--parallel", 1, "--out", fits]) == 0
    gibbs = tmp / "gibbs"
    assert run(["fit-gibbs", *src, "--G", 2, "--n-iter", 5, "--n-burn", 1,
                "--rate", 0.001, "--seed", 3, "--parallel", 1, "--out", gibbs]) == 0
    return src, fits / "map_G2.json", gibbs / "chain_G2.csv"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.pop("log_lik"),
        lambda d: d.update(labels=[0] + d["labels"][1:]),
        lambda d: d.update(labels=[3] + d["labels"][1:]),
        lambda d: d.update(weights=[1.0]),
        lambda d: d.update(supports="abc"),
        lambda d: d.update(labels=[1.5] + d["labels"][1:]),
    ],
    ids=["no-log-lik", "label-0", "label-above-G", "one-weight", "text",
         "label-fraction"],
)
def test_malformed_fit_json_is_a_validation_error(
    tmp_path, capsys, fit_and_chain, corrupt
):
    src, fit, chain = fit_and_chain
    capsys.readouterr()
    doc = json.loads(fit.read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_validation_exit(
        capsys,
        ["relabel", "--chain", chain, "--pivot", bad, "--out", tmp_path / "rel"],
    )
    _assert_validation_exit(
        capsys,
        ["fit-gibbs", *src, "--G", 2, "--n-iter", 5, "--n-burn", 1, "--seed", 3,
         "--init-from", bad, "--parallel", 1, "--out", tmp_path / "g2"],
    )


def test_negative_max_iter_is_a_validation_error(tmp_path, capsys, fit_and_chain):
    src = fit_and_chain[0]
    _assert_validation_exit(
        capsys,
        ["fit-map", *src, "--G", 2, "--max-iter", -1, "--seed", 2,
         "--parallel", 1, "--out", tmp_path / "f"],
    )


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"supports": "abc", "weights": [1.0]}',
        '{"supports": [[1, 2, 3], [1, 2]], "weights": [0.5, 0.5]}',
    ],
)
def test_malformed_params_json_is_a_validation_error(tmp_path, capsys, text):
    params = tmp_path / "params.json"
    params.write_text(text)
    _assert_validation_exit(
        capsys,
        ["simulate", "--n", 10, "--K", 3, "--params", params, "--seed", 1,
         "--out", tmp_path / "sim"],
    )


@pytest.mark.parametrize(
    "column, value",
    [
        (0, "-0.5"),
        (1, "0"),
        (2, "nan"),
        (3, "inf"),
        (6, "-0.1"),
        (7, "nan"),
        (7, "inf"),
        (6, "shift"),
        (8, "-inf"),
        (9, "nan"),
        # longer than the csv module's field limit (131072 characters)
        (0, "0." + "5" * 200000),
    ],
    ids=["support-negative", "support-zero", "support-nan", "support-inf",
         "weight-negative", "weight-nan", "weight-inf", "weights-off-simplex",
         "log-lik-inf", "deviance-nan", "oversized-field"],
)
def test_malformed_chain_csv_is_a_validation_error(
    tmp_path, capsys, fit_and_chain, column, value
):
    src, fit, chain = fit_and_chain
    lines = chain.read_text().splitlines()
    cells = lines[2].split(",")
    # a shift of 1e-9 keeps the weight valid but moves its row off the simplex
    cells[column] = repr(float(cells[column]) + 1e-9) if value == "shift" else value
    lines[2] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    _assert_validation_exit(
        capsys, ["select", *src, "--map", fit, "--chain", bad, "--out", tmp_path / "s"]
    )
    _assert_validation_exit(
        capsys, ["ppcheck", *src, "--chain", bad, "--seed", 4, "--out", tmp_path / "p"]
    )
    _assert_validation_exit(
        capsys, ["relabel", "--chain", bad, "--pivot", fit, "--out", tmp_path / "r"]
    )


_SIM = ["simulate", "--n", 10]
_FIT = ["fit-map", "DATA", "--G", 1]
_GIBBS = ["fit-gibbs", "DATA", "--G", 1, "--n-iter", 5, "--n-burn", 1]


@pytest.mark.parametrize(
    "argv, named",
    [
        ([*_SIM, "--K", 0, "--seed", 1], "K=0"),
        ([*_SIM, "--K", 3, "--G", 0, "--seed", 1], "G=0"),
        ([*_SIM, "--K", 3, "--G", -1, "--seed", 1], "G=-1"),
        ([*_SIM, "--K", 3, "--seed", -1], "--seed"),
        ([*_FIT, "--seed", -1, "--parallel", 1], "--seed"),
        ([*_GIBBS, "--seed", -1, "--parallel", 1], "--seed"),
        (["ppcheck", "DATA", "--chain", "CHAIN", "--seed", -1], "--seed"),
        ([*_FIT, "--seed", 1, "--tol", "nan", "--parallel", 1], "tol"),
        ([*_FIT, "--seed", 1, "--parallel", 0], "--parallel"),
        ([*_FIT, "--seed", 1, "--parallel", -3], "--parallel"),
        ([*_GIBBS, "--seed", 1, "--parallel", 0], "--parallel"),
    ],
    ids=["simulate-K-0", "simulate-G-0", "simulate-G-negative",
         "simulate-seed", "fit-map-seed", "fit-gibbs-seed", "ppcheck-seed",
         "fit-map-tol-nan", "fit-map-parallel-0", "fit-map-parallel-negative",
         "fit-gibbs-parallel-0"],
)
def test_out_of_range_option_is_one_json_error(
    tmp_path, capsys, fit_and_chain, argv, named
):
    src, _, chain = fit_and_chain
    place = {"DATA": src, "CHAIN": [chain]}
    argv = [a for x in argv for a in place.get(x, [x])]
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])["error"]
    assert doc["type"] == "validation"
    assert named in doc["message"]
