"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs pass every workload through every stage and check at tiny
run lengths; the other tests make sure that bad outputs are counted as
failures, not crashes, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import Checks, check_outputs, check_repeat  # noqa: E402
from pipeline import Layout, Runner, run_pipeline  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Seeds, smoke  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", 3, "--seconds", 1,
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_truncated_chain_is_a_failed_check(tmp_path):
    wl = smoke(WORKLOADS["c9"])
    lay = Layout(tmp_path / "run")
    runs = run_pipeline(Runner(ROOT, time.monotonic() + 150), wl, Seeds.derive(5), lay)
    chain = lay.chain_csv(wl.true_G)
    lines = chain.read_text().splitlines(keepends=True)
    chain.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])

    checks = Checks()
    check_outputs(checks, runs, lay, wl)
    failed = {f["name"] for f in checks.failures()}
    assert f"chain.G{wl.true_G}" in failed
    assert "relabel.loglik_unchanged" in failed
    assert all(c.ok for c in checks.items if c.name.startswith("exit."))


def test_changed_bytes_are_failed_checks():
    checks = Checks()
    check_repeat(checks, {"a.csv": "1", "b.csv": "2"}, {"a.csv": "1", "b.csv": "3"})
    assert (checks.attempted, checks.failed) == (2, 1)


def test_self_time_subtracts_children():
    tr = Tracer("t")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, a, b = tr.spans
    own = self_times(tr.spans)
    spent = (a["end"] - a["start"]) + (b["end"] - b["start"])
    assert own[0] == pytest.approx(outer["end"] - outer["start"] - spent)
    assert a["parent"] == b["parent"] == 0 and outer["parent"] is None


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "c9", "--seed", 1, "--seconds", 1,
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
