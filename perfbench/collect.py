"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/collect.py --seeds 0-9 --seconds 30 --trace 0
    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json

Workloads alternate inside each seed (aft_grid, weibull_grid, observations,
then the next seed), so a slow phase of the host lands on all of them
rather than on one.  For each workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, and with ``--out`` writes them, with each run's raw
result and environment, to a JSON file.  It also prints each seed's
deviation from the acceptance reference rows, so the bands in checks.py can
be compared with the spread they have to cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "_runs" / workload / "run.json").read_text())
    references = [c for c in record["checks"] if c[0].startswith("reference ")]
    return {"seed": seed, "exit": proc.returncode, "result": result, "env": record["env"],
            "references": references}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "repeats_exactly": len(set(values)) == 1, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs = {w: [] for w in WORKLOADS}
    for seed in _seeds(args.seeds):
        for w in WORKLOADS:
            run = _run(w, seed, args.seconds, args.trace)
            runs[w].append(run)
            status = "ok" if run["exit"] == 0 and run["result"]["correct"] else "FAILED"
            values = ", ".join(f"{k}={v['value']:.4g}"
                               for k, v in run["result"]["metrics"].items()
                               if args.trace == 0)
            print(f"{w} seed={seed} {status} {values}", flush=True)

    for w, rs in runs.items():
        for r in rs:
            for name, ok, detail in r["references"]:
                print(f"{w} seed={r['seed']} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    summary = {w: summarize(rs) for w, rs in runs.items()}
    for w, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{w:13s} {name:28s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.2%}"
                  + (" (exact)" if s["repeats_exactly"] else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "summary": summary, "runs": runs},
            indent=1) + "\n")
    failed = [r for rs in runs.values() for r in rs
              if r["exit"] != 0 or not r["result"]["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
