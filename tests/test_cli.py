import io
import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from plrank import cli, read_chain_csv, read_dataset, read_map_json, unit_to_freq


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


def test_convert_and_summarize_bytes_are_fixed(tmp_path):
    # mixed depths with repeated rows: a profile lists its distinct rows in
    # lexicographic order, whatever order the engine keeps them in, and
    # these files keep their bytes
    src = tmp_path / "ord.csv"
    src.write_text("3,1,0,0\n1,2,3,4\n2,0,0,0\n1,2,3,4\n4,3,0,0\n"
                   "2,0,0,0\n1,0,0,0\n3,1,0,0\n2,4,1,3\n2,0,0,0\n")
    out = {name: tmp_path / name for name in ("p.txt", "back.csv", "rank.csv", "s.json")}
    as_ord = ["--input", src, "--format", "ordering"]
    assert run(["convert", *as_ord, "--to", "preflib", "--out", out["p.txt"]]) == 0
    argv = ["convert", "--input", out["p.txt"], "--format", "preflib", "--to", "ordering"]
    assert run([*argv, "--out", out["back.csv"]]) == 0
    assert run(["convert", *as_ord, "--out", out["rank.csv"]]) == 0
    assert run(["summarize", *as_ord, "--out", out["s.json"]]) == 0
    assert out["p.txt"].read_text() == (
        "# TITLE: p\n# NUMBER ALTERNATIVES: 4\n# NUMBER VOTERS: 10\n"
        "1: 1\n2: 1,2,3,4\n3: 2\n1: 2,4,1,3\n2: 3,1\n1: 4,3\n"
    )
    assert out["back.csv"].read_text() == (
        "1,0,0,0\n1,2,3,4\n1,2,3,4\n2,0,0,0\n2,0,0,0\n"
        "2,0,0,0\n2,4,1,3\n3,1,0,0\n3,1,0,0\n4,3,0,0\n"
    )
    assert out["rank.csv"].read_text() == (
        "2,0,1,0\n1,2,3,4\n0,1,0,0\n1,2,3,4\n0,0,2,1\n"
        "0,1,0,0\n1,0,0,0\n2,0,1,0\n3,1,4,2\n0,1,0,0\n"
    )
    assert out["s.json"].read_text() == (
        '{"n_units": 10, "n_items": 4, "nranked_distr": {"1": 4, "2": 3, "4": 3}, '
        '"missing_pos": [4, 4, 4, 6], "mean_rank": [1.6666666666666667, '
        '1.3333333333333333, 2.3333333333333335, 2.75], "marginal_rank_distr": '
        '[[3, 4, 2, 1], [2, 2, 1, 1], [1, 0, 2, 0], [0, 0, 1, 2]], '
        '"pairedcomparisons": [[0, 5, 4, 5], [4, 0, 6, 6], [3, 3, 0, 4], [2, 1, 2, 0]]}\n'
    )
    # the frequency table of a dataset is lexicographic too
    table = unit_to_freq(read_dataset(src, "ordering"))
    assert table.sequences.tolist() == [
        [1, 0, 0, 0], [1, 2, 3, 4], [2, 0, 0, 0], [2, 4, 1, 3], [3, 1, 0, 0], [4, 3, 0, 0]
    ]
    assert table.counts.tolist() == [1, 2, 3, 1, 2, 1]


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


def test_fit_map_then_gibbs_init(tmp_path, capsys):
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
    capsys.readouterr()
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
    # the printed line shows the flag selection.json holds
    (row,) = json.loads((sel / "selection.json").read_text())["criteria"]
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("select: G=2 DIC1=")
    assert line.endswith(f" complexity_ok={json.dumps(row['complexity_ok'])}")

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
    # an unknown format is named before the input is opened
    code = run(["fit-map", "--input", tmp_path / "none.csv", "--format", "sideways",
                "--G", 1, "--seed", 1, "--out", tmp_path / "f"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "expected ordering, ranking, or preflib" in err["error"]["message"]

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


def test_out_name_must_be_utf8(tmp_path, capsys):
    # a name of bytes that are not UTF-8 (as Python decodes such an argv
    # entry) is refused before anything is read or written: one JSON error,
    # exit 2, no file and no directory
    src = tmp_path / "ord.csv"
    src.write_text("1,2,3\n2,1,3\n")
    name = os.fsdecode(b"caf\xe9")
    for argv in (
        ["convert", "--input", src, "--format", "ordering", "--to", "preflib",
         "--out", tmp_path / (name + ".txt")],
        ["convert", "--input", src, "--format", "ordering",
         "--out", tmp_path / (name + ".csv")],
        ["simulate", "--n", 5, "--K", 3, "--seed", 1, "--out", tmp_path / name],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"]["type"] == "validation"
        assert "--out" in err["error"]["message"] and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ord.csv"]


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


def _no_dataset_inside(job):
    """Pickle job, failing on any Dataset met at any depth."""
    from plrank import Dataset

    class Pickler(pickle.Pickler):
        def persistent_id(self, obj):
            assert not isinstance(obj, Dataset), "a pool job carries the dataset"
            return None

    Pickler(io.BytesIO()).dump(job)


def test_parallel_runs_byte_identical(tmp_path, monkeypatch, fan_outs):
    # fit-map runs 2 G values x 3 starts = 6 jobs, so at --parallel 2 each
    # worker serves several jobs with the dataset it received once; the
    # jobs themselves never carry the dataset. The data are far too small
    # to pay for a pool, so the work gate is lifted to make one run; their
    # tables are far too narrow for threads.
    from plrank import em

    seen = []
    fan_out = em._fan_out

    def spy(fn, data, jobs, n_jobs, steps, comps):
        seen.append((fn.__name__, len(jobs), n_jobs, steps, comps))
        for job in jobs:
            _no_dataset_inside(job)
        return fan_out(fn, data, jobs, n_jobs, steps, comps)

    monkeypatch.setattr(em, "_POOL_MIN_WORK", 0)

    monkeypatch.setattr(em, "_fan_out", spy)
    monkeypatch.setattr(cli, "_fan_out", spy)
    data = tmp_path / "sim"
    run(["simulate", "--n", 60, "--K", 3, "--G", 2, "--seed", 9, "--out", data])
    src = ["--input", data / "orderings.csv", "--format", "ordering"]
    outs = []
    for workers in (1, 2):
        fit, gibbs = tmp_path / f"fit{workers}", tmp_path / f"gibbs{workers}"
        assert run(
            ["fit-map", *src, "--G", 1, "--G-max", 2, "--n-start", 3,
             "--seed", 21, "--parallel", workers, "--out", fit]
        ) == 0
        assert run(
            ["fit-gibbs", *src, "--G", 1, "--G-max", 2, "--n-iter", 40,
             "--n-burn", 10, "--seed", 22, "--init-from", fit,
             "--parallel", workers, "--out", gibbs]
        ) == 0
        outs.append(
            {p.name: p.read_bytes() for d in (fit, gibbs) for p in sorted(d.iterdir())}
        )
    assert len(outs[0]) == 6 and outs[0] == outs[1]
    # each job's steps: G x its default cap 400 G per start, and 40 sweeps x
    # G, a sweep counting 2 steps
    fit_steps, gibbs_steps = [400] * 3 + [1600] * 3, [80, 160]
    fit_comps, gibbs_comps = [1] * 3 + [2] * 3, [1, 2]
    assert seen == [
        ("_one_start", 6, 1, fit_steps, fit_comps),
        ("_gibbs_job", 2, 1, gibbs_steps, gibbs_comps),
        ("_one_start", 6, 2, fit_steps, fit_comps),
        ("_gibbs_job", 2, 2, gibbs_steps, gibbs_comps),
    ]
    # a pool ran at --parallel 2 only, once per stage
    assert fan_outs == [("pool", 2), ("pool", 2)]


def _wide_input(path, n, seed):
    """Ordering CSV shaped like the benchmark's wide workload: K=10, depths
    3/5/7/10 in equal shares, nearly every row distinct."""
    return _censored_input(path, n, 10, {3: 0.25, 5: 0.25, 7: 0.25, 10: 0.25}, seed)


def test_wide_parallel_runs_byte_identical(tmp_path, fan_outs):
    # ~3,500 distinct rows of K=10: from G=2 on every job's table reaches the
    # thread crossover and the runs are too short to pay for a pool, so at
    # --parallel 2 the starts (2 G values x 2) and the chains (one per G)
    # run on threads, and write the serial bytes
    wide = _wide_input(tmp_path / "wide.csv", 4000, 3)
    model = ["--G", 2, "--G-max", 3, "--rate", 0.001]
    outs = []
    for workers in (1, 2):
        fit, gibbs = tmp_path / f"fit{workers}", tmp_path / f"gibbs{workers}"
        assert run(["fit-map", *wide, *model, "--n-start", 2, "--max-iter", 15,
                    "--seed", 5, "--parallel", workers, "--out", fit]) == 0
        assert run(["fit-gibbs", *wide, *model, "--n-iter", 12, "--n-burn", 4,
                    "--seed", 6, "--init-from", fit, "--parallel", workers,
                    "--out", gibbs]) == 0
        outs.append(
            {p.name: p.read_bytes() for d in (fit, gibbs) for p in sorted(d.iterdir())}
        )
    assert len(outs[0]) == 6 and outs[0] == outs[1]
    assert fan_outs == [("threads", 2), ("threads", 2)]


def test_failed_threaded_job_exits_as_the_serial_run(tmp_path, monkeypatch,
                                                     capsys, fan_outs):
    # three of the four starts fail; each run reports the first in job order
    # with the serial exit code and message, and writes nothing
    from plrank import em
    from plrank.errors import NumericalError

    one_start = em._one_start

    def failing(data, job):
        key = job[-1].bit_generator.seed_seq.spawn_key  # (G index, start)
        if key != (0, 0):
            raise NumericalError(f"start {key} failed")
        return one_start(data, job)

    monkeypatch.setattr(em, "_one_start", failing)
    wide = _wide_input(tmp_path / "wide.csv", 4000, 3)
    errs = []
    for workers in (1, 2):
        out = tmp_path / f"fit{workers}"
        assert run(["fit-map", *wide, "--G", 2, "--G-max", 3, "--n-start", 2,
                    "--max-iter", 5, "--seed", 5, "--parallel", workers,
                    "--out", out]) == 4
        assert not out.exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert json.loads(errs[0])["error"] == {"type": "numerical",
                                            "message": "start (0, 1) failed"}
    assert fan_outs == [("threads", 2)]


def _censored_input(path, n, K, shares, seed):
    """Ordering CSV of n units drawn from the uniform mixture over K items,
    censored to top-m with probability shares[m] (depth K: complete)."""
    from plrank import Dataset, MixtureParams, make_partial, sample_mixture

    rng = np.random.default_rng(seed)
    _, data = sample_mixture(n, K, 1, MixtureParams.uniform(1, K), rng)
    probcens = np.zeros(K - 1)
    for m, share in shares.items():
        probcens[K - 2 if m == K else m - 1] = share
    data, _ = make_partial(data, probcens=probcens, rng=rng)
    np.savetxt(path, data.orderings, fmt="%d", delimiter=",")
    return ["--input", path, "--format", "ordering"]


def test_pool_gate_on_the_benchmark_shapes(tmp_path, fan_outs):
    # a pool starts when the work 2 workers can save pays for it: the total
    # less the largest job, or less half the total where that is more;
    # below that, threads run a job list when every job's table (distinct
    # rows x K x its G) is wide. Wide-shaped data (K=10, ~5,000 distinct
    # rows) at the benchmark's EM cap of 30 for 2 starts at G=4 are too
    # little work and wide. c9-shaped data (K=6, complete, 720 distinct
    # rows) at the same cap and G=3 are too little work and narrow;
    # ballot-shaped data (K=5, 205 distinct rows) at the defaults (G=1..3,
    # one start, cap 400 G) spend 3,600 of 5,600 capped steps in G=3, too
    # little outside it, while their chains of 400 sweeps at G=1..3 save
    # 2,400 steps, enough. On n=20000, K=8 data fit-map (G=1..2, 3 starts,
    # cap 50) saves up to 225 of its 450 steps and fit-gibbs (60 sweeps at
    # G=1..2) the G=1 chain, enough
    wide = _wide_input(tmp_path / "wide.csv", 6000, 1)
    assert run(["fit-map", *wide, "--G", 4, "--n-start", 2, "--max-iter", 30,
                "--seed", 1, "--parallel", 2, "--out", tmp_path / "w"]) == 0
    assert fan_outs == [("threads", 2)]
    run(["simulate", "--n", 15000, "--K", 6, "--G", 3, "--seed", 1,
         "--out", tmp_path / "c9"])
    c9 = ["--input", tmp_path / "c9" / "orderings.csv", "--format", "ordering"]
    assert run(["fit-map", *c9, "--G", 3, "--n-start", 2, "--max-iter", 30,
                "--seed", 1, "--parallel", 2, "--out", tmp_path / "c"]) == 0
    assert fan_outs == [("threads", 2)]
    ballot = _censored_input(tmp_path / "ballot.csv", 15449, 5,
                             {1: 0.35, 2: 0.20, 3: 0.07, 5: 0.38}, 2)
    ballot += ["--G", 1, "--G-max", 3, "--parallel", 2]
    assert run(["fit-map", *ballot, "--seed", 1, "--out", tmp_path / "b"]) == 0
    assert fan_outs == [("threads", 2)]
    assert run(["fit-gibbs", *ballot, "--n-iter", 400, "--n-burn", 100,
                "--seed", 2, "--out", tmp_path / "bg"]) == 0
    assert fan_outs == [("threads", 2), ("pool", 2)]
    run(["simulate", "--n", 20000, "--K", 8, "--G", 2, "--seed", 1,
         "--out", tmp_path / "big"])
    big = ["--input", tmp_path / "big" / "orderings.csv", "--format", "ordering",
           "--G", 1, "--G-max", 2, "--parallel", 2]
    assert run(["fit-map", *big, "--n-start", 3, "--max-iter", 50, "--seed", 2,
                "--out", tmp_path / "bf"]) == 0
    assert run(["fit-gibbs", *big, "--n-iter", 60, "--n-burn", 10, "--seed", 3,
                "--init-from", tmp_path / "bf", "--out", tmp_path / "bgg"]) == 0
    assert fan_outs == [("threads", 2), ("pool", 2), ("pool", 2), ("pool", 2)]


def test_parallel_default_counts_usable_cpus(tmp_path, monkeypatch):
    # the default is the CPUs this process may run on, not the host's
    from plrank import em

    seen = []

    def spy(fn, data, jobs, n_jobs, steps, comps):
        seen.append(n_jobs)
        return [fn(data, job) for job in jobs]

    monkeypatch.setattr(em, "_fan_out", spy)
    monkeypatch.setattr(cli, "_fan_out", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    src = tmp_path / "ord.csv"
    src.write_text("1,2,3\n2,1,3\n3,1,2\n")
    argv = ["--input", src, "--format", "ordering", "--G", 1, "--seed", 1]
    fit = ["fit-map", *argv, "--max-iter", 5, "--out", tmp_path / "f"]
    gibbs = ["fit-gibbs", *argv, "--n-iter", 5, "--n-burn", 1, "--out", tmp_path / "g"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert run(fit) == 0 and run(gibbs) == 0
    # without an affinity mask (as on macOS and Windows), the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert run(fit) == 0 and run(gibbs) == 0
    assert seen == [2, 2, 64, 64]


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
    # the runtime needs numpy only; scipy is a test dependency. The modules
    # of select, ppcheck and relabel load only when those commands run
    unloaded = ["scipy", "plrank.assessment", "plrank.selection", "plrank.relabel"]
    code = f"import sys, plrank.cli; print([m for m in {unloaded} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_no_submodule():
    # the public names resolve on first access, each from its own module
    loaded = "print(sorted(m for m in sys.modules if m.startswith('plrank.')))"
    code = f"import sys, plrank; {loaded}; plrank.read_map_json; {loaded}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    fresh, fileio = proc.stdout.splitlines()
    assert fresh == "[]"
    assert fileio == str(["plrank.data", "plrank.em", "plrank.errors", "plrank.fileio",
                          "plrank.gibbs", "plrank.model"])


def test_run_freezes_the_collector_and_main_does_not(tmp_path):
    # run() is the process entry point: it freezes every object alive at
    # entry and returns main's exit code. main() itself, run here in the
    # test process, leaves the collector as it was
    import gc

    src = tmp_path / "ord.csv"
    src.write_text("1,2\n2,1\n")
    frozen = gc.get_freeze_count()
    assert run(["summarize", "--input", src, "--format", "ordering"]) == 0
    assert run(["fit-map", "--bogus", "1"]) == 2
    assert gc.get_freeze_count() == frozen
    code = (
        "import gc, sys\n"
        "from plrank.cli import run\n"
        "assert gc.get_freeze_count() == 0\n"
        f"sys.argv = ['plrank', 'summarize', '--input', {str(src)!r}]\n"
        "print(run(), gc.get_freeze_count() > 0)\n"
        "sys.argv = ['plrank', 'fit-map', '--bogus', '1']\n"
        "print(run())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0 True", "2"]


def test_ppcheck_leaves_numpy_ma_out(tmp_path):
    # mixed depths, so the observed counts take one pass per depth; numpy's
    # unique would import numpy.ma, which no stage needs
    rng = np.random.default_rng(8)
    mat = np.array([rng.permutation(4) + 1 for _ in range(60)])
    mat[:40, 1:] = 0
    src = tmp_path / "mixed.csv"
    np.savetxt(src, mat, fmt="%d", delimiter=",")
    gibbs = tmp_path / "gibbs"
    src_args = ["--input", str(src), "--format", "ordering"]
    gibbs_args = "--G 1 --n-iter 30 --n-burn 10 --seed 1 --parallel 1 --out".split()
    assert run(["fit-gibbs", *src_args, *gibbs_args, gibbs]) == 0
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from plrank.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)",
            "ppcheck", *src_args, "--chain", str(gibbs / "chain_G1.csv"),
            "--seed", "2", "--out", str(tmp_path / "ppcheck"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # the last line, after the CLI's own report
    assert proc.stdout.strip().splitlines()[-1] == "False"


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

    def counting(strata, table, p, w, rng):
        # a call replicates one draw per row of its supports block p
        calls.append(len(p))
        return real(strata, table, p, w, rng)

    monkeypatch.setattr(assessment, "_replicate_counts", counting)
    out = tmp_path / "ppc"
    assert run(["ppcheck", *args, "--seed", 13, "--out", out]) == 0
    assert sum(calls) == sum(c.n_kept for c in chains)


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
        lambda d: d.update(converged="no"),
        lambda d: d.update(n_components=2.5),
        lambda d: d.update(n_iter_used=-3),
        lambda d: d.update(log_lik=True),
        lambda d: d.update(log_lik=float("nan")),
        lambda d: d.update(log_post_trace=[]),
        lambda d: d.update(log_post_trace=[[1, 2]]),
        lambda d: d.update(best_start="x"),
        lambda d: d.update(best_start=len(d["final_log_posts"])),
        lambda d: d["hyper"].update(
            shape=[[1.0] * 3] * 3, rate=[0.0] * 3, alpha=[1.0] * 3
        ),
        lambda d: d["hyper"].update(shape=[[1.0] * 4] * 2),
        lambda d: d.update(n_items=7),
    ],
    ids=["no-log-lik", "label-0", "label-above-G", "one-weight", "text",
         "label-fraction", "converged-text", "G-fraction", "iter-negative",
         "log-lik-bool", "log-lik-nan", "trace-empty", "trace-2-d",
         "best-start-text", "best-start-past", "hyper-G3", "hyper-K4",
         "n-items-7"],
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


def test_extreme_support_fit_is_a_validation_error(tmp_path, capsys, fit_and_chain):
    # each support is positive and finite, but the first row sums to
    # infinity, the total mass of its stage table: every consumer of the
    # fit exits 2 with one JSON line, neither a traceback nor overflow
    # warnings
    src, fit, chain = fit_and_chain
    doc = json.loads(fit.read_text())
    doc["supports"][0] = [1e308, 1e308, 1e-308]
    bad = tmp_path / "extreme.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (
        ["fit-gibbs", *src, "--G", 2, "--n-iter", 5, "--n-burn", 1, "--seed", 3,
         "--init-from", bad, "--parallel", 1, "--out", tmp_path / "g"],
        ["select", *src, "--map", bad, "--chain", chain, "--out", tmp_path / "s"],
        ["relabel", "--chain", chain, "--pivot", bad, "--out", tmp_path / "r"],
    ):
        _assert_validation_exit(capsys, argv)


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
    "doc",
    [
        {"supports": [[1, True, 2, 1]], "weights": [True]},
        {"supports": [1, 2, 2, 1], "weights": [True]},
        {"supports": [[1, 2, 2, 1]], "weights": False},
        {"supports": [[1, 2, 2, "1"]], "weights": [1.0]},
    ],
)
def test_params_json_booleans_are_not_numbers(tmp_path, capsys, doc):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    _assert_validation_exit(
        capsys,
        ["simulate", "--n", 5, "--K", 4, "--G", 1, "--params", params, "--seed", 1,
         "--out", tmp_path / "sim"],
    )
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"supports": [1, 2, 2, 1], "weights": 1},
        {"supports": [[1, 2, 2, 1]], "weights": [1.0]},
        {"supports": [[1, 2, 2, 1]], "weights": 1.0},
    ],
)
def test_params_json_keeps_one_component_shorthands(tmp_path, doc):
    # G = 1 may give one support row and a scalar weight
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    assert run(["simulate", "--n", 5, "--K", 4, "--G", 1, "--params", params,
                "--seed", 1, "--out", out]) == 0
    written = json.loads((out / "params.json").read_text())
    assert written["supports"] == [[1.0, 2.0, 2.0, 1.0]]
    assert written["weights"] == [1.0]


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
_GIBBS_AT = ["fit-gibbs", "DATA", "--G", 1, "--seed", 1, "--parallel", 1]


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
        (["simulate", "--n", 0, "--K", 3, "--seed", 1], "--n=0"),
        ([*_GIBBS_AT, "--n-iter", 0], "--n-iter=0"),
        ([*_GIBBS_AT, "--n-iter", 5, "--n-burn", -1], "--n-burn=-1"),
        ([*_FIT, "--seed", 1, "--max-iter", -1, "--parallel", 1], "--max-iter=-1"),
        ([*_FIT, "--K", 0, "--seed", 1, "--parallel", 1], "--K=0"),
        # the bad option is named before the missing input is opened
        (["fit-map", "--input", "MISSING", "--G", 0, "--seed", 1], "--G=0"),
    ],
    ids=["simulate-K-0", "simulate-G-0", "simulate-G-negative",
         "simulate-seed", "fit-map-seed", "fit-gibbs-seed", "ppcheck-seed",
         "fit-map-tol-nan", "fit-map-parallel-0", "fit-map-parallel-negative",
         "fit-gibbs-parallel-0", "simulate-n-0", "fit-gibbs-n-iter-0",
         "fit-gibbs-n-burn-negative", "fit-map-max-iter-negative", "fit-map-K-0",
         "fit-map-G-0-missing-input"],
)
def test_out_of_range_option_is_one_json_error(
    tmp_path, capsys, fit_and_chain, argv, named
):
    src, _, chain = fit_and_chain
    place = {"DATA": src, "CHAIN": [chain], "MISSING": [tmp_path / "missing.csv"]}
    argv = [a for x in argv for a in place.get(x, [x])]
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])["error"]
    assert doc["type"] == "validation"
    assert named in doc["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        [*_GIBBS_AT, "--n-iter", 5, "--init-from", "EXTREME"],
        [*_GIBBS_AT, "--n-iter", 5, "--n-burn", 7],
        [*_SIM, "--K", 3, "--params", "EXTREME", "--seed", 1],
    ],
    ids=["fit-gibbs-extreme-init", "fit-gibbs-burn-past-sweeps", "simulate-bad-params"],
)
def test_failed_command_leaves_no_out_path(tmp_path, capsys, fit_and_chain, argv):
    # these fail only after their input is read: the output directory is
    # made just before the first write, so none is left behind
    src, fit, _ = fit_and_chain
    doc = json.loads(fit.read_text())
    doc["supports"][0] = [1e308, 1e308, 1e-308]
    extreme = tmp_path / "extreme.json"
    extreme.write_text(json.dumps(doc))
    place = {"DATA": src, "EXTREME": [extreme]}
    argv = [a for x in argv for a in place.get(x, [x])]
    capsys.readouterr()
    _assert_validation_exit(capsys, [*argv, "--out", tmp_path / "out"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_states_each_option_with_the_tables_default(capsys, command):
    with pytest.raises(SystemExit) as exit:
        run([command, "--help"])
    assert exit.value.code == 0
    # one entry per option: its "  --name" line and the help wrapped below it
    listed = {}
    for entry in re.split(r"\n  --", capsys.readouterr().out)[1:]:
        name, *words = entry.split()
        listed[name] = " ".join(words)
    options = cli._COMMANDS[command].options.split()
    assert list(listed) == [o.rstrip("!") for o in options] + ["config"]
    for option in options:
        name = option.rstrip("!")
        default = cli._OPTIONS[name].default
        if option.endswith("!"):
            assert "(required" in listed[name], name
        elif default is not None:
            assert f"(default {default}" in listed[name], name
        else:
            assert "default" not in listed[name], name


@pytest.mark.parametrize(
    "argv, named",
    [(["fit-map", "--bogus", 1], "--bogus"), ([], "command"), (["fit-map", "--G"], "--G")],
    ids=["unknown-flag", "no-command", "flag-without-value"],
)
def test_malformed_argv_is_one_json_error(capsys, argv, named):
    capsys.readouterr()
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])["error"]
    assert doc["type"] == "validation"
    assert named in doc["message"]


def test_console_help_and_bare_call():
    # --help still prints the usage and exits 0; a bare call is an argument
    # error like any other
    def console(*argv):
        cmd = [sys.executable, "-m", "plrank.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True)

    for argv in (["--help"], ["fit-map", "--help"]):
        proc = console(*argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: plrank")
    proc = console()
    assert proc.returncode == 2 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "validation"


def test_fit_files_with_supports_raw_seed_the_same_outputs(tmp_path, fit_and_chain):
    # fit files from earlier versions carry the unnormalized supports under
    # supports_raw, after the weights; compact or indented, they seed the
    # same chain and give the same selection and relabeling as the fit file
    # written now
    src, fit, _ = fit_and_chain
    doc = json.loads(fit.read_text())
    assert "supports_raw" not in doc
    old = {}
    for key, val in doc.items():
        old[key] = val
        if key == "weights":
            old["supports_raw"] = [[3.0 * v for v in row] for row in doc["supports"]]
    variants = {"new": fit.read_text(), "compact": json.dumps(old),
                "indented": json.dumps(old, indent=1)}
    outputs = {}
    for name, text in variants.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        out = tmp_path / name
        chain = out / "chain_G2.csv"
        assert run(["fit-gibbs", *src, "--G", 2, "--n-iter", 8, "--n-burn", 2,
                    "--seed", 3, "--init-from", path, "--parallel", 1,
                    "--out", out]) == 0
        assert run(["select", *src, "--map", path, "--chain", chain,
                    "--out", out]) == 0
        assert run(["relabel", "--chain", chain, "--pivot", path, "--out", out]) == 0
        outputs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(outputs["new"]) == 6
    assert outputs["compact"] == outputs["new"] == outputs["indented"]
