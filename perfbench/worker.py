"""One fresh interpreter running a workload's CLI calls in-process.

Started by ``run.py``.  It imports ``rsskm`` from the checkout's ``src/``,
parses the grid configs with the program's own parser, prints ``ready`` on
stdout (the end of set-up), then runs timed passes until ``--seconds`` would
be exceeded and writes ``result.json`` into the work directory.

Modes of a pass:

* ``timed``  -- untraced, ``--jobs 1``; gives ``wall_s``.
* ``traced`` -- the same calls with the tracer installed; with ``--trace 1``
  traced and timed passes alternate.
* ``pool``   -- untraced, ``--jobs <nproc>`` on the grid calls, run once
  with ``--trace 1`` for the byte-identity check and the pool metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import rsskm.cli

    if not Path(rsskm.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rsskm imported from {rsskm.cli.__file__}, not this checkout")
    return rsskm.cli


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    def __init__(self, plan: dict, work: Path, main, tracer=None):
        self.plan, self.main, self.tracer = plan, main, tracer
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)

    def run_pass(self, mode: str, index: int, calls: list) -> dict:
        jobs = _nproc() if mode == "pool" else 1
        record = {"mode": mode, "index": index, "calls": []}
        if mode == "traced":
            self.tracer.reset()
            self.tracer.install()
        record["t0"] = time.monotonic()  # clock shared with the host-speed sampler
        start = time.perf_counter()
        for call in calls:
            out = self.out / f"{mode}{index}-{call['label']}.csv"
            argv = [*call["argv"], "--out", str(out)]
            if call["jobs"]:
                argv += ["--jobs", str(jobs)]
            c0 = time.perf_counter()
            error = None
            try:
                if mode == "traced":
                    code = self.tracer.call(f"cli.{argv[0]}", self.main, argv)
                else:
                    code = self.main(argv)
            except Exception:  # recorded as a failed operation, run continues
                code, error = None, traceback.format_exc()
            record["calls"].append({
                "label": call["label"], "out": str(out), "input": call["input"],
                "code": code, "error": error, "wall_s": time.perf_counter() - c0,
            })
        record["wall_s"] = time.perf_counter() - start
        record["t1"] = time.monotonic()
        if mode == "traced":
            self.tracer.uninstall()
            record["spans"] = self.tracer.summarize()
            record["counts"] = dict(self.tracer.counts)
        return record

    def run_until(self, modes: list, seconds: float) -> list:
        """Cycles of one pass per mode, alternating, while the next cycle is
        expected to end within ``seconds`` plus half a cycle; at least one."""
        passes, cycles = [], []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for mode in modes:
                index = sum(p["mode"] == mode for p in passes)
                passes.append(self.run_pass(mode, index, self.plan["calls"]))
            cycles.append(time.perf_counter() - cycle_start)
            if time.perf_counter() - start + statistics.median(cycles) / 2 > seconds:
                return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = Path(args.work)
    cli = _import_program()
    from rsskm.config import parse_config

    plan = json.loads((work / "plan.json").read_text())
    for cfg in plan["configs"]:
        parse_config(cfg)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # nothing else goes to stdout: run.py reads only the ready line
    sys.stdout = sys.stderr

    tracer = Tracer() if args.trace else None
    runner = Runner(plan, work, cli.main, tracer)
    result = {"warmup": runner.run_pass("warmup", 0, plan["warmup"])}

    if not args.trace:
        result["passes"] = runner.run_until(["timed"], args.seconds)
    else:
        # traced and untraced passes alternate, so drift of the host's speed
        # falls on both sides of the tracing overhead
        passes = runner.run_until(["traced", "timed"], args.seconds)
        tracer.write_spans(work / "spans.csv")
        if any(call["jobs"] for call in plan["calls"]):
            passes.append(runner.run_pass("pool", 0, plan["calls"]))
        result["passes"] = passes

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(self_kb, children_kb)
    result["nproc"] = _nproc()
    import numpy
    import scipy

    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
