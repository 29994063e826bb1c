"""rsskm benchmark: one workload per invocation.

    python3 perfbench/run.py --workload aft_grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark writes the workload's
inputs from ``--seed`` under ``perfbench/_runs/<workload>/``, measures
set-up in fresh interpreters, runs timed passes of the workload's CLI calls
in a worker interpreter for ``--seconds`` while ``hostspeed.py`` samples the
host's speed (pass times are reported scaled to a reference speed), checks
every output, prints each metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from traced passes alternating with untraced ones, plus
(grids) one ``--jobs <nproc>`` pass.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from checks import check_run
from hostspeed import Sampler
from workloads import WORKLOADS, build_plan

# setup_s is the minimum over this many fresh interpreters, half launched
# before the timed passes and half after them, so a slow spell of the host
# during one group does not set the figure.  It is not scaled by the host
# speed: import time does not follow the probe (see README).
SETUP_SAMPLES = 6

# span name -> reported as <name>.calls and <name>.self_s
SPAN_METRICS = [
    "sampling.draw_rss", "sampling.draw_srs", "sampling.generator",
    "survival.fit", "survival.lookup", "rss.rss_km",
    "models.mixing", "models.kernel", "harness.cell",
    "bootstrap.run", "bootstrap.wkm",
]
SELF_ONLY = ["rss.from_observations", "models.calibrate", "harness.grid",
             "cli.estimate", "cli.bootstrap"]
COUNTERS = ["survival.fit.obs", "models.mixing.sets", "harness.reps"]


class BenchError(RuntimeError):
    pass


def _launch(work: Path, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Start a worker; return (process, (launch, ``ready`` printed)) on the
    monotonic clock."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.monotonic()
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, (start, ready)


def _finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run time limit") from None


def _environment(nproc: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "git_sha": _git_sha(), **versions}


def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree (read directly, so
    nothing outside the checkout is consulted)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _per_layer(result: dict, report) -> dict:
    passes = result["passes"]
    traced = [p for p in passes if p["mode"] == "traced"]
    untraced = [p for p in passes if p["mode"] == "timed"]
    pool = next((p for p in passes if p["mode"] == "pool"), None)

    def span(name, key):
        return [p["spans"].get(name, {}).get(key, 0) for p in traced]

    metrics = {}

    def count(name, values):
        if len(set(values)) != 1:
            report.add(f"{name} repeats across traced passes", False, str(values))
        metrics[name] = (int(values[0]), "count")

    for name in SPAN_METRICS:
        count(f"{name}.calls", span(name, "calls"))
        metrics[f"{name}.self_s"] = (_median(span(name, "self_s")), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (_median(span(name, "self_s")), "s")
    for name in COUNTERS:
        count(name, [p["counts"].get(name, 0) for p in traced])
    metrics["harness.cell.p50_s"] = (_median(span("harness.cell", "p50_s")), "s")
    metrics["harness.cell.max_s"] = (_median(span("harness.cell", "max_s")), "s")

    pool_wall = pool["wall_s"] if pool else 0.0
    cell_sum = _median(span("harness.cell", "total_s"))
    metrics["harness.pool.wall_s"] = (pool_wall, "s")
    metrics["harness.pool.efficiency"] = (
        cell_sum / (result["nproc"] * pool_wall) if pool_wall else 0.0, "ratio")
    metrics["bootstrap.kept_frac"] = (report.info.get("kept_frac", 0.0), "ratio")

    first = traced[0]["calls"]
    rows_in = sum(_data_rows(c["input"]) for c in first if c["input"])
    bytes_out = sum(os.path.getsize(c["out"]) for c in first if os.path.exists(c["out"]))
    metrics["cli.rows_in"] = (rows_in, "count")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")

    def call_wall(label):
        return _median(c["wall_s"] for p in untraced for c in p["calls"] if c["label"] == label)

    metrics["estimate_s"] = (call_wall("estimate"), "s")
    metrics["bootstrap_s"] = (call_wall("bootstrap"), "s")
    metrics["fail_frac"] = (report.failed / max(report.attempted, 1), "ratio")
    metrics["trace.overhead_s"] = (
        _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in untraced), "s")
    return metrics


def _data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def run(args) -> tuple[dict, object, dict]:
    if not (ROOT / "src" / "rsskm" / "__init__.py").is_file():
        raise BenchError(f"no rsskm sources under {ROOT / 'src'}")
    # the worker stops starting passes after --seconds; a pass may overrun
    # that by its own length, a traced run adds one --jobs nproc pass, and the
    # set-up launches take a few seconds each
    deadline = time.monotonic() + 60.0 + 3.0 * args.seconds
    work = HERE / "_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    plan = build_plan(args.workload, args.seed, work, args.scale)
    (work / "plan.json").write_text(json.dumps(plan, indent=1))

    def run_worker():
        proc, ready = _launch(work, args.seconds, args.trace, False, deadline)
        _finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return ready, json.loads((work / "result.json").read_text())

    if args.trace:
        _, result = run_worker()
        report = check_run(plan, result)
        metrics = _per_layer(result, report)
        speed_env = {}
    else:
        sampler = Sampler(work / "hostspeed.json")
        try:
            setups = []
            for _ in range(SETUP_SAMPLES // 2 - 1):
                proc, ready = _launch(work, args.seconds, 0, True, deadline)
                _finish(proc, deadline)
                setups.append(ready)
            ready, result = run_worker()
            setups.append(ready)
            while len(setups) < SETUP_SAMPLES:
                proc, ready = _launch(work, args.seconds, 0, True, deadline)
                _finish(proc, deadline)
                setups.append(ready)
        finally:
            sampler.stop()
        report = check_run(plan, result)
        passes = [(p["t0"], p["t1"]) for p in result["passes"]]
        metrics = {
            "setup_s": (min(t1 - t0 for t0, t1 in setups), "s"),
            "wall_s": (statistics.median(sampler.scaled(*iv) for iv in passes), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
        speed_env = {
            "raw_setup_s": [t1 - t0 for t0, t1 in setups],
            "raw_wall_s": [t1 - t0 for t0, t1 in passes],
            "wall_slowdown": [sampler.slowdown(*iv) for iv in passes],
        }
    env = _environment(result["nproc"], result["versions"])
    env.update(seed=args.seed, jobs=1, pool_jobs=result["nproc"], scale=args.scale,
               passes=[[p["mode"], p["wall_s"]] for p in result["passes"]], **speed_env)
    return metrics, report, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("desk", "toy"), default="desk",
                        help="replicate counts; toy is for the smoke test")
    args = parser.parse_args(argv)
    try:
        metrics, report, env = run(args)
    except RuntimeError as exc:  # BenchError, or the host-speed sampler failed
        print(f"error: benchmark: {exc}", file=sys.stderr)
        return 2

    for name, ok, detail in report.checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "checks": report.checks, "metrics": metrics,
              "attempted": report.attempted, "failed": report.failed}
    (HERE / "_runs" / args.workload / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
