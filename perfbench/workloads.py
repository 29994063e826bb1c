"""Workload definitions: the inputs each workload generates from its seed,
and the CLI calls that make up one timed pass.

Why these workloads (see README.md for the layer map):

* ``aft_grid`` -- ``rsskm simulate`` on AFT cells.  Nearly all time is the
  per-replicate loop (sampling + survival + harness) of the primary and the
  secondary Monte-Carlo run; ``models`` does almost nothing.  Holds both
  acceptance reference cells.
* ``weibull_grid`` -- ``rsskm simulate`` on Weibull cells.  No secondary
  MC; every judged cell draws a 1e6-set mixing matrix and runs the
  quadrature kernels, the rho=1 cells skip the mixing matrix; m=20 gives
  small samples with degenerate tails.
* ``observations`` -- ``rsskm estimate`` then ``rsskm bootstrap`` on one
  generated 20k-row observation CSV with ties.  CSV ingest, KM on large
  samples and the multiplier bootstrap; sampling, harness and models are
  bypassed.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

LEVELS = (0.75, 0.5, 0.25, 0.1)

# Replicate counts.  "desk" is the acceptance suite's desk scale; "toy" is
# for the smoke test and only makes the run fast.
SCALES = {
    "desk": {"b_mc": 2000, "b_true": 1000, "n_sets": 1_000_000,
             "obs_k": 10, "obs_m": 2000, "reps": 1000},
    "toy": {"b_mc": 40, "b_true": 20, "n_sets": 2000,
            "obs_k": 10, "obs_m": 100, "reps": 1000},
}

# One simulate call per config; a pass runs them in this order.
GRIDS = {
    "aft_grid": {
        "ref_no_cens": {"model": "aft", "k": [10], "m": [50], "rho": [0.9], "p_cens": [0.0]},
        "ref_cens": {"model": "aft", "k": [6], "m": [50], "rho": [0.5], "p_cens": [0.3]},
    },
    "weibull_grid": {
        "judged_perfect": {"model": "weibull", "k": [4, 10], "m": [20], "rho": [0.9, 1.0],
                           "p_cens": [0.3]},
    },
}

# Acceptance reference rows (criteria 1 and 2 of tests/test_acceptance.py).
REFERENCES = [
    {"cell": (10, 50, 0.9, 0.0), "level": 0.5,
     "expect": {"re_true": 2.465, "re_mc": 2.444, "re_gw": 2.386}},
    {"cell": (6, 50, 0.5, 0.3), "level": 0.75,
     "expect": {"re_mc": 1.910, "re_gw": 1.808}},
]

# observations: Weibull(1) lifetimes judged at rho=0.9, censored at exactly
# 30%, times rounded to 2 decimals so that ties occur; bootstrap evaluates
# at the population quantiles of these survival levels
OBS_RHO, OBS_P_CENS, OBS_DECIMALS = 0.9, 0.3, 2
OBS_LEVELS = (0.9, 0.75, 0.5, 0.25, 0.1)

WORKLOADS = ("aft_grid", "weibull_grid", "observations")


def grid_cells(spec: dict) -> list[tuple]:
    """(k, m, rho, p_cens) in the order ``rsskm simulate`` writes them."""
    return list(itertools.product(spec["k"], spec["m"], spec["rho"], spec["p_cens"]))


def _config_text(spec: dict, scale: dict, seed: int) -> str:
    def join(values):
        return ", ".join(str(v) for v in values)

    lines = [f"model = {spec['model']}"]
    lines += [f"{key} = {join(spec[key])}" for key in ("k", "m", "rho", "p_cens")]
    lines += [
        f"levels = {join(LEVELS)}",
        f"b_mc = {scale['b_mc']}",
        f"b_true = {scale['b_true']}",
        f"n_sets = {scale['n_sets']}",
        f"seed = {seed}",
    ]
    return "\n".join(lines) + "\n"


def _write_observations(path: Path, k: int, m: int, seed: int) -> list[float]:
    """Draw a balanced RSS with the program's own sampler and write it as a
    cycle-major (cycle, rank, time, event) CSV; returns the bootstrap grid."""
    import numpy as np

    from rsskm.harness import prepare_model
    from rsskm.models import WeibullModel, censoring_for_fraction
    from rsskm.sampling import RngStream, draw_balanced_rss

    model = prepare_model(WeibullModel(), OBS_RHO)
    censoring = censoring_for_fraction(model, OBS_P_CENS)
    sample = draw_balanced_rss(model, k, m, censoring, RngStream(seed, 1))
    times = np.round(sample.times, OBS_DECIMALS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "rank", "time", "event"])
        for j in range(m):
            for r in range(k):
                writer.writerow([j + 1, r + 1, f"{times[r, j]:.{OBS_DECIMALS}f}",
                                 int(sample.events[r, j])])
    return [round(model.quantile(level), OBS_DECIMALS) for level in OBS_LEVELS]


def build_plan(workload: str, seed: int, work: Path, scale_name: str) -> dict:
    """Write the workload's inputs under ``work`` and return its plan.

    Each call is ``{"label", "argv", "jobs", "input"}``; the worker appends
    ``--out`` (and ``--jobs`` when ``jobs`` is true) to ``argv``.  The
    ``warmup`` calls run the same code paths on tiny inputs before timing.
    """
    scale = SCALES[scale_name]
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "scale": scale_name,
            "calls": [], "warmup": [], "grids": {}, "configs": []}

    if workload in GRIDS:
        tiny = {"b_mc": 8, "b_true": 4, "n_sets": 200}
        for label, spec in GRIDS[workload].items():
            cfg = inputs / f"{label}.txt"
            cfg.write_text(_config_text(spec, scale, seed))
            plan["configs"].append(str(cfg))
            plan["grids"][label] = {"spec": spec, "b_mc": scale["b_mc"],
                                    "b_true": scale["b_true"]}
            plan["calls"].append({"label": label, "jobs": True, "input": None,
                                  "argv": ["simulate", "--config", str(cfg)]})
            warm = inputs / f"warmup_{label}.txt"
            small = dict(spec, k=[min(spec["k"])], m=[5])
            warm.write_text(_config_text(small, tiny, seed))
            plan["warmup"].append({"label": f"warmup_{label}", "jobs": False,
                                   "input": None,
                                   "argv": ["simulate", "--config", str(warm)]})
        return plan

    if workload != "observations":
        raise ValueError(f"unknown workload {workload!r}")
    k, m, reps = scale["obs_k"], scale["obs_m"], scale["reps"]
    obs = inputs / "observations.csv"
    grid = _write_observations(obs, k, m, seed)
    warm_obs = inputs / "warmup_observations.csv"
    _write_observations(warm_obs, 2, 10, seed)
    grid_arg = ",".join(f"{t:.{OBS_DECIMALS}f}" for t in grid)
    plan.update(obs={"k": k, "m": m, "reps": reps, "grid": grid, "input": str(obs)})
    for csv_path, calls, n_reps in ((obs, plan["calls"], reps),
                                    (warm_obs, plan["warmup"], 10)):
        prefix = "" if calls is plan["calls"] else "warmup_"
        calls.append({"label": f"{prefix}estimate", "jobs": False, "input": str(csv_path),
                      "argv": ["estimate", "--input", str(csv_path)]})
        calls.append({"label": f"{prefix}bootstrap", "jobs": False, "input": str(csv_path),
                      "argv": ["bootstrap", "--input", str(csv_path), "--reps", str(n_reps),
                               "--seed", str(seed), "--grid", grid_arg]})
    return plan
