"""The CLI pipeline, one subprocess per stage.

simulate -> fit-map -> fit-gibbs -> select -> ppcheck -> relabel, as a user
would run it. Each stage's wall time and peak resident set size (from
wait4, which covers the pool workers the stage waited for) are recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    EM_TOL,
    PARALLEL,
    PRIOR_ALPHA,
    PRIOR_RATE,
    PRIOR_SHAPE,
    Seeds,
    Workload,
)

STAGES = ("simulate", "fit-map", "fit-gibbs", "select", "ppcheck", "relabel")

# select and relabel are mostly interpreter start-up, the noisiest part of
# a stage; each pipeline run times them this many times (same inputs and
# outputs) so that their medians rest on more samples
SHORT_STAGES = ("select", "relabel")
SHORT_STAGE_SAMPLES = 2

def program_env(root: Path) -> dict:
    """Environment for program subprocesses: this process's environment
    (thread pins included), the checkout's sources, and no PLRANK_*
    settings that could change CLI options."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLRANK_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class StageRun:
    name: str
    wall_s: float
    exit_code: int
    maxrss_kib: int
    # seconds calibrate() took in this process just before the run
    cal_s: float


# calibrate()'s time on the machine the first numbers were recorded on;
# end-to-end timings are reported scaled to that speed
CAL_REF_S = 0.06


def calibrate() -> float:
    """Seconds taken by a fixed piece of work like the program's own:
    array arithmetic on a (15000, 6, 3) stage table and an interpreter loop.
    The machine's speed drifts by tens of percent over minutes; scaling a
    timing by CAL_REF_S / (calibrations taken around it) removes the drift."""
    import numpy as np

    x = np.random.default_rng(0).random((15000, 6, 3)) + 0.5
    t0 = time.perf_counter()
    for _ in range(10):
        c = np.cumsum(np.log(x), axis=1)
        float(np.exp(c - c.max()).sum())
    acc = 0
    for i in range(250_000):
        acc += i
    return time.perf_counter() - t0


class Runner:
    """Starts program subprocesses and kills any still running at the
    deadline (a time.monotonic() value)."""

    def __init__(self, root: Path, deadline: float):
        self.env = program_env(root)
        self.deadline = deadline

    def python(self, args: list[str], log: Path) -> StageRun:
        """Run `python <args>` to completion; stdout and stderr go to log."""
        cal = calibrate()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return StageRun(args[0], 0.0, -1, 0, cal)
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdin=subprocess.DEVNULL,
                stdout=fh,
                stderr=subprocess.STDOUT,
                env=self.env,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        # already reaped by wait4; tell Popen so it never waits again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageRun(args[0], wall, proc.returncode, usage.ru_maxrss, cal)

    def stage(self, name: str, args: list, logs: Path) -> StageRun:
        run = self.python(
            ["-m", "plrank.cli", name, *map(str, args)], logs / f"{name}.log"
        )
        run.name = name
        return run


@dataclass
class Layout:
    """Where one pipeline run keeps its files."""

    work: Path

    def __post_init__(self):
        self.truth = self.work / "truth.json"
        self.sim = self.work / "sim"
        self.fit = self.work / "fit"
        self.gibbs = self.work / "gibbs"
        self.select = self.work / "select"
        self.ppcheck = self.work / "ppcheck"
        self.relabel = self.work / "relabel"
        self.logs = self.work / "logs"

    @property
    def input(self) -> Path:
        return self.sim / "input.csv"

    def map_json(self, G: int) -> Path:
        return self.fit / f"map_G{G}.json"

    def chain_csv(self, G: int) -> Path:
        return self.gibbs / f"chain_G{G}.csv"


def write_truth(path: Path, wl: Workload) -> None:
    supports, weights = wl.truth()
    with open(path, "w") as fh:
        json.dump({"supports": supports.tolist(), "weights": weights.tolist()}, fh)


def make_input(lay: Layout, wl: Workload, seeds: Seeds) -> None:
    """The program's input: the simulated orderings, censored to top-t
    observations where the workload asks for it."""
    import numpy as np
    from plrank import Dataset, make_partial
    from plrank.fileio import read_sequence_csv, write_sequence_csv

    matrix = read_sequence_csv(lay.sim / "orderings.csv")
    if wl.probcens is not None:
        censored, _ = make_partial(
            Dataset.from_orderings(matrix),
            probcens=list(wl.probcens),
            rng=np.random.default_rng(seeds.censor),
        )
        matrix = censored.orderings
    write_sequence_csv(lay.input, matrix)


def _model_args(wl: Workload) -> list:
    args = ["--G", wl.g_min]
    if wl.g_max != wl.g_min:
        args += ["--G-max", wl.g_max]
    return args + ["--shape", PRIOR_SHAPE, "--rate", PRIOR_RATE, "--alpha", PRIOR_ALPHA]


def run_pipeline(runner: Runner, wl: Workload, seeds: Seeds, lay: Layout):
    """Run every stage; returns {stage: [StageRun, ...]}, one entry per
    time the stage ran. Making the input between simulate and fit-map is
    not part of any stage."""
    lay.logs.mkdir(parents=True, exist_ok=True)
    write_truth(lay.truth, wl)
    data = ["--input", lay.input, "--format", "ordering"]
    runs = {}

    def stage(name, args):
        times = SHORT_STAGE_SAMPLES if name in SHORT_STAGES else 1
        runs[name] = [runner.stage(name, args, lay.logs) for _ in range(times)]

    stage(
        "simulate",
        ["--n", wl.n, "--K", wl.K, "--G", wl.true_G, "--params", lay.truth,
         "--seed", seeds.simulate, "--out", lay.sim],
    )
    try:
        make_input(lay, wl, seeds)
    except (OSError, ValueError) as e:  # simulate's output was unusable
        print(f"input: {type(e).__name__}: {e}", file=sys.stderr)
    stage(
        "fit-map",
        data + _model_args(wl)
        + ["--n-start", wl.n_start, "--max-iter", wl.max_iter, "--tol", EM_TOL,
           "--seed", seeds.fit_map, "--parallel", PARALLEL, "--out", lay.fit]
        + (["--centered-start"] if wl.centered_start else []),
    )
    stage(
        "fit-gibbs",
        data + _model_args(wl)
        + ["--n-iter", wl.n_iter, "--n-burn", wl.n_burn, "--seed", seeds.fit_gibbs,
           "--init-from", lay.fit, "--parallel", PARALLEL, "--out", lay.gibbs],
    )
    pairs = []
    for G in wl.g_list:
        pairs += ["--map", lay.map_json(G), "--chain", lay.chain_csv(G)]
    stage("select", data + pairs + ["--out", lay.select])
    chains = []
    for G in wl.g_list:
        chains += ["--chain", lay.chain_csv(G)]
    stage("ppcheck", data + chains + ["--seed", seeds.ppcheck, "--out", lay.ppcheck])
    stage(
        "relabel",
        ["--chain", lay.chain_csv(wl.true_G), "--pivot", lay.map_json(wl.true_G),
         "--out", lay.relabel],
    )
    return runs


def digests(lay: Layout) -> dict[str, str]:
    """sha256 of every seeded output file, by path relative to the run."""
    out = {}
    for path in sorted(lay.work.rglob("*")):
        if path.is_file() and lay.logs not in path.parents:
            out[str(path.relative_to(lay.work))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out
