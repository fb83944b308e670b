"""Benchmark of the plrank CLI pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload {c9,ballot,wide} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the program is taken from the
checkout's src/ directory and nowhere else.

--trace 0 runs simulate -> fit-map -> fit-gibbs -> select -> ppcheck ->
relabel as CLI subprocesses, repeated with the same seeds for about S
seconds (at least three times), checks every output, and reports the
end-to-end metrics as medians over the repeats. --trace 1 runs the CLI
pipeline once, then the same work as library calls in this process with
spans around each call, and reports per-layer metrics. --smoke shrinks
the run lengths so that every stage and check runs in seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record, the
environment included, is written to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# numeric libraries read these when loaded: set them before numpy is imported
# here and hand them on to every program subprocess
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Checks, check_exits, check_outputs, check_repeat, observe_fit  # noqa: E402
from pipeline import CAL_REF_S, STAGES, Layout, Runner, digests, run_pipeline  # noqa: E402
from tracing import (  # noqa: E402
    UNOBSERVED,
    Tracer,
    layer_metrics,
    library_pipeline,
    probes,
    stage_overheads,
)
from workloads import PARALLEL, WORKLOADS, Seeds, smoke  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# every program process is killed by then, so that a run ends within 180 s
HARD_LIMIT_S = 165.0
SETUP_REPEATS = 3
# pipeline repeats per end-to-end run, however short --seconds is
MIN_REPEATS = 3
IMPORT_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny run lengths: every stage and check in seconds")
    return p.parse_args(argv)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, wl, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "parallel": PARALLEL,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "config": dataclasses.asdict(wl),
    }


def _python_probe(runner: Runner, checks: Checks, name: str, code: str, log: Path):
    run = runner.python(["-c", code], log)
    checks.run(f"{name}.exit", lambda: run.exit_code == 0)
    return run


def _warm(runner: Runner, checks: Checks, work: Path) -> None:
    """One import before any timing, so that bytecode caches exist."""
    _python_probe(runner, checks, "warmup", "import plrank.cli", work / "warm.log")


def _stage_record(runs: dict) -> dict:
    return {name: [dataclasses.asdict(r) for r in rs] for name, rs in runs.items()}


def _observe(lay: Layout, wl) -> dict:
    try:
        return observe_fit(lay, wl)
    except Exception as e:  # broken outputs already fail their checks
        return {"error": f"{type(e).__name__}: {e}"}


def end_to_end(args, wl, seeds, work, runner, checks, record) -> dict:
    _warm(runner, checks, work)
    reps, rep_s, setup_s = [], [], []
    first_digests = None
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        lay = Layout(work / f"rep{len(reps) + 1}")
        runs = run_pipeline(runner, wl, seeds, lay)
        dig = digests(lay)
        if first_digests is None:
            # later repeats are held to the first one's bytes instead
            check_outputs(checks, runs, lay, wl)
            first_digests = dig
            record["digests"] = dig
            record["observations"] = _observe(lay, wl)
            for i in range(SETUP_REPEATS):
                setup_s.append(_python_probe(
                    runner, checks, "setup",
                    f"import plrank; plrank.read_dataset({str(lay.input)!r}, 'ordering')",
                    work / f"setup{i}.log",
                ).wall_s)
        else:
            check_exits(checks, runs)
            check_repeat(checks, first_digests, dig)
        shutil.rmtree(lay.work)
        reps.append(runs)
        rep_s.append(time.monotonic() - t)
        if len(reps) >= MIN_REPEATS:
            ahead = time.monotonic() + statistics.median(rep_s)
            if ahead - t0 > args.seconds or ahead > runner.deadline:
                break
    record["repeats"] = [_stage_record(runs) for runs in reps]
    record["setup_s"] = setup_s

    # each repeat's timings are scaled by the machine speed measured around
    # them: the median calibration over the repeat's stage runs
    med = statistics.median
    scale = [CAL_REF_S / med(r.cal_s for rs in runs.values() for r in rs) for runs in reps]
    record["speed_scale"] = scale

    def walls(name):
        return [r.wall_s * k for runs, k in zip(reps, scale) for r in runs[name]]

    def rate(work, name):
        return med(work / max(w, 1e-9) for w in walls(name))

    m = {
        "pipeline_s": (
            med(k * sum(runs[s][0].wall_s for s in STAGES) for runs, k in zip(reps, scale)),
            "s",
        ),
        "setup_s": (med(setup_s) * scale[0], "s"),
        "fit_map_s": (med(walls("fit-map")), "s"),
        "gibbs_sweeps_per_s": (rate(wl.n_iter * len(wl.g_list), "fit-gibbs"), "sweeps/s"),
        "ppcheck_draws_per_s": (rate(2 * wl.n_kept * len(wl.g_list), "ppcheck"), "draws/s"),
        "select_s": (med(walls("select")), "s"),
        "relabel_s": (med(walls("relabel")), "s"),
        "peak_rss_mb": (
            max(r.maxrss_kib for runs in reps for rs in runs.values() for r in rs) / 1024,
            "MiB",
        ),
    }
    m["pass_share"] = ((checks.attempted - checks.failed) / checks.attempted, "ratio")
    return m


def traced(args, wl, seeds, work, runner, checks, record) -> dict:
    from plrank import read_dataset, unit_to_freq

    _warm(runner, checks, work)
    lay = Layout(work / "cli")
    runs = run_pipeline(runner, wl, seeds, lay)
    check_outputs(checks, runs, lay, wl)
    record["digests"] = digests(lay)
    record["observations"] = obs = _observe(lay, wl)
    record["repeats"] = [_stage_record(runs)]

    import_s = []
    for i in range(IMPORT_REPEATS):
        log = work / f"import{i}.log"
        _python_probe(
            runner, checks, "import",
            "import time; t = time.perf_counter(); import plrank.cli; "
            "print(time.perf_counter() - t)",
            log,
        )
        checks.run("import.output", lambda: import_s.append(float(log.read_text())) is None)

    m = {}

    def library_runs():
        t = time.perf_counter()
        library_pipeline(wl, seeds, Layout(work / "untraced"), Tracer("untraced", False))
        untraced_s = time.perf_counter() - t
        tr = Tracer(f"{wl.name}-{args.seed}")
        lib = Layout(work / "traced")
        t = time.perf_counter()
        stats = library_pipeline(wl, seeds, lib, tr)
        traced_s = time.perf_counter() - t
        probes(wl, seeds, lib, tr)
        record["spans"] = tr.spans
        data = read_dataset(lib.input, "ordering")
        m.update(layer_metrics(
            tr.spans, stats, data.n_units, unit_to_freq(data).sequences.shape[0]
        ))
        m.update(stage_overheads(tr.spans, {s: rs[0].wall_s for s, rs in runs.items()}))
        m["em.map_gap_per_unit"] = (obs["map_gap_per_unit"], "nats/unit")
        m["em.support_linf"] = (obs["support_linf"], "linf")
        m["cli.import_s"] = (statistics.median(import_s), "s")
        m["trace.untraced_s"] = (untraced_s, "s")
        m["trace.traced_s"] = (traced_s, "s")
        m["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")

    checks.run("trace.library_run", lambda: library_runs() is None)
    m["fail_share"] = (checks.failed / checks.attempted, "ratio")
    record["notes"] = [UNOBSERVED]
    print(f"note: {UNOBSERVED}")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "plrank" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if PARALLEL > nproc:
        print(f"error: --parallel {PARALLEL} exceeds nproc {nproc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import plrank

    if Path(plrank.__file__).resolve().parent != ROOT / "src" / "plrank":
        print(f"error: plrank imported from {plrank.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    seeds = Seeds.derive(args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    record = {"environment": environment(args, wl, nproc), "seeds": dataclasses.asdict(seeds)}
    print(json.dumps({"environment": record["environment"]}))
    runner = Runner(ROOT, started + HARD_LIMIT_S)
    checks = Checks()
    try:
        phase = traced if args.trace else end_to_end
        metrics = phase(args, wl, seeds, work, runner, checks, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result)
    record["failures"] = checks.failures()
    record["checks"] = [c.name for c in checks.items]
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for f in record["failures"]:
        print(f"failed: {f['name']}: {f['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
