"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench/tests

Runs every workload of BENCHMARK.json in both trace modes with toy
replicate counts and a one-second measurement, and checks that each run
passes its correctness checks and emits exactly the metrics BENCHMARK.json
names, with their units.  Also checks the tracer's self-time arithmetic and
that the benchmark fails cleanly where the program's sources are absent.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from tracing import Tracer  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "[FAIL]" not in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        if m["unit"] in ("count", "bytes"):
            assert isinstance(m["value"], int), name
        else:
            assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = run_bench(tmp_path, "observations", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_self_time_and_missing_targets(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def leaf():
        time.sleep(0.02)

    def outer():
        mod.leaf()
        mod.leaf()
        time.sleep(0.02)

    mod.leaf, mod.outer = leaf, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = Tracer()
    tracer.install([
        ("fake_layers", "outer", "outer", None, None),
        ("fake_layers", "leaf", "leaf", "leaf.n", lambda a, kw: 1),
        ("fake_layers", "deleted_name", "gone", None, None),
        ("no_such_module", "f", "gone", None, None),
    ])
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    assert mod.leaf is leaf and mod.outer is outer
    summary = tracer.summarize()
    assert set(summary) == {"outer", "leaf"}
    assert summary["leaf"]["calls"] == 2 and tracer.counts["leaf.n"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(0.02, abs=0.015)
    assert summary["outer"]["total_s"] == pytest.approx(
        summary["outer"]["self_s"] + summary["leaf"]["total_s"])
