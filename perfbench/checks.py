"""Correctness checks on the outputs of one benchmark run.

Every check reads the CSV files the CLI wrote.  The fixed bands are the
acceptance suite's: +-12% on reference rows, 0.01 on mean survival, 15% on
the bootstrap/Greenwood ratio.  They were set at one fixed seed, while the
benchmark draws a new seed on every run, so two of them are widened to 4
standard errors where that is larger:

* mean survival, to 4 MC standard errors of the mean;
* re_mc and re_true, which are ratios of two sample variances, to 4 times
  sqrt(4 / (b - 1)).  A re_true from b_true=1000 secondary replicates has a
  relative standard error of 6.3%, so +-12% alone would fail about one run
  in fourteen by noise.

re_gw is a ratio of mean Greenwood estimates, far steadier than a variance
ratio, and keeps the fixed +-12%.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from collections import defaultdict

import numpy as np

from workloads import LEVELS, REFERENCES, grid_cells

GRID_REQUIRED = [
    "model", "k", "m", "rho", "p_cens", "level", "t",
    "mean_s_rss", "mean_s_srs", "v_rss_mc", "v_srs_mc",
    "mean_gw_rss", "mean_gw_srs", "re_true", "re_mc", "re_gw", "b_mc",
]
GRID_FINITE = GRID_REQUIRED[6:]
CURVE_COLUMNS = ["rank", "time", "survival", "greenwood_var", "cum_hazard", "hazard_var"]
BOOT_COLUMNS = ["t", "point_estimate", "greenwood_var", "bootstrap_var", "n_excluded_reps"]
REF_RTOL, MEAN_ATOL, BOOT_RTOL = 0.12, 0.01, 0.15
PRINT_RTOL = 2e-5  # the CLI prints 6 significant digits


class Report:
    def __init__(self):
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_grid(path: str):
    """(schema version or None, header, rows) of a grid CSV."""
    with open(path, newline="") as fh:
        first = fh.readline()
        match = re.fullmatch(r"# schema_version=(\d+)\s*", first)
        reader = csv.DictReader(fh)
        return (int(match.group(1)) if match else None), reader.fieldnames or [], list(reader)


def _grid_rows_problem(grid: dict, schema, header, rows) -> str | None:
    """Structure and echo checks; returns a description of the first problem."""
    if schema is None:
        return "missing '# schema_version=N' line"
    missing = [c for c in GRID_REQUIRED if c not in header]
    if missing:
        return f"header lacks {missing}"
    expected = [(k, m, rho, p, lv) for k, m, rho, p in grid_cells(grid["spec"]) for lv in LEVELS]
    got = [(int(r["k"]), int(r["m"]), float(r["rho"]), float(r["p_cens"]), float(r["level"]))
           for r in rows]
    if got != expected:
        return f"{len(rows)} rows do not match the {len(expected)} (cell, level) pairs"
    if any(int(r["b_mc"]) != grid["b_mc"] for r in rows):
        return "b_mc does not echo the config"
    if "b_true" in header and any(int(r["b_true"]) != grid["b_true"] for r in rows):
        return "b_true does not echo the config"
    return None


def _ratio_se(b: int) -> float:
    """Relative standard error of a ratio of two independent sample
    variances over b replicates each (normal kurtosis)."""
    return math.sqrt(4.0 / (b - 1))


def _check_grid_content(report: Report, label: str, grid: dict, rows: list) -> None:
    worst = 0.0
    for r in rows:
        if float(r["level"]) < 0.5:
            continue  # small-m KM bias in the tails is real, not an error
        b = int(r["b_mc"])
        for col, var in (("mean_s_rss", "v_rss_mc"), ("mean_s_srs", "v_srs_mc")):
            tol = max(MEAN_ATOL, 4 * math.sqrt(float(r[var]) / b))
            err = abs(float(r[col]) - float(r["level"]))
            worst = max(worst, err / tol)
    report.add(f"{label}: mean survival at levels >= 0.5", worst <= 1.0,
               f"worst |mean - level| is {worst:.2f} of its tolerance")

    for ref in REFERENCES:
        k, m, rho, p = ref["cell"]
        match = [r for r in rows
                 if (int(r["k"]), int(r["m"]), float(r["rho"]), float(r["p_cens"]),
                     float(r["level"])) == (k, m, rho, p, ref["level"])]
        if not match:
            continue
        row = match[0]
        for col, value in ref["expect"].items():
            tol = REF_RTOL
            if col in ("re_mc", "re_true"):
                b = row["b_true"] if col == "re_true" and "b_true" in row else row["b_mc"]
                tol = max(REF_RTOL, 4 * _ratio_se(int(b)))
            dev = float(row[col]) / value - 1.0
            name = f"reference k={k} m={m} rho={rho} p={p} S={ref['level']} {col}"
            report.add(name, abs(dev) <= tol,
                       f"{float(row[col]):.4f} vs {value} ({dev:+.1%}, tol +-{tol:.1%})")


def check_grids(report: Report, plan: dict, passes: list) -> None:
    content_checked = set()
    for p in passes:
        for call in p["calls"]:
            grid = plan["grids"][call["label"]]
            n_cells = len(grid_cells(grid["spec"]))
            report.attempted += n_cells
            tag = f"{p['mode']}{p['index']} {call['label']}"
            if call["code"] != 0:
                report.failed += n_cells
                report.add(f"{tag}: exit 0", False, str(call["error"] or call["code"]))
                continue
            schema, header, rows = read_grid(call["out"])
            problem = _grid_rows_problem(grid, schema, header, rows)
            if problem:
                report.failed += n_cells
                report.add(f"{tag}: structure", False, problem)
                continue
            bad_cells = {i // len(LEVELS) for i, r in enumerate(rows)
                         if not all(_finite(r[c]) for c in GRID_FINITE)}
            report.failed += len(bad_cells)
            if bad_cells:
                report.add(f"{tag}: finite columns", False, f"cells {sorted(bad_cells)}")
            if call["label"] not in content_checked:
                content_checked.add(call["label"])
                report.add(f"{call['label']}: schema, header, {len(rows)} rows, echo", True,
                           f"schema_version={schema}")
                _check_grid_content(report, call["label"], grid, rows)


def reference_km(times: np.ndarray, events: np.ndarray, t_grid) -> tuple:
    """Rank-averaged product-limit estimate and (1/k^2) Greenwood sum at
    ``t_grid``, written out directly from the formulas: deaths before
    censorings at ties, R(u) = #{Y >= u}, Greenwood terms dN/(R(R-dN)),
    variance 0 from the first time a whole risk set dies."""
    k = times.shape[0]
    t_grid = np.asarray(t_grid, float)
    surv = np.zeros(t_grid.size)
    gw = np.zeros(t_grid.size)
    for y, d in zip(times, events):
        u, dn = np.unique(y[d], return_counts=True)
        r = np.array([np.count_nonzero(y >= v) for v in u])
        s = np.cumprod(1.0 - dn / r)
        exhausted = r == dn
        terms = np.where(exhausted, 0.0, dn / (r * np.where(exhausted, 1, r - dn)))
        g = s**2 * np.cumsum(terms)
        if exhausted.any():
            g[np.argmax(exhausted):] = 0.0
        idx = np.searchsorted(u, t_grid, side="right") - 1
        surv += np.where(idx < 0, 1.0, s[np.maximum(idx, 0)] if u.size else 1.0)
        gw += np.where(idx < 0, 0.0, g[np.maximum(idx, 0)] if u.size else 0.0)
    return surv / k, gw / k**2


def read_observations(path: str, k: int, m: int):
    times = np.full((k, m), np.nan)
    events = np.zeros((k, m), dtype=bool)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            r, j = int(row["rank"]) - 1, int(row["cycle"]) - 1
            times[r, j] = float(row["time"])
            events[r, j] = row["event"] == "1"
    return times, events


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PRINT_RTOL * abs(b) + 1e-12


def _read_csv(path: str):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames or [], list(reader)


def check_observations(report: Report, plan: dict, passes: list) -> None:
    obs = plan["obs"]
    times, events = read_observations(obs["input"], obs["k"], obs["m"])
    grid = obs["grid"]
    ref_s, ref_gw = reference_km(times, events, grid)
    content_checked = set()
    for p in passes:
        for call in p["calls"]:
            report.attempted += 1
            tag = f"{p['mode']}{p['index']} {call['label']}"
            if call["code"] != 0:
                report.failed += 1
                report.add(f"{tag}: exit 0", False, str(call["error"] or call["code"]))
                continue
            header, rows = _read_csv(call["out"])
            columns = CURVE_COLUMNS if call["label"] == "estimate" else BOOT_COLUMNS
            values = [r[c] for r in rows for c in columns if c != "rank"]
            if header != columns or not rows or not all(map(_finite, values)):
                report.failed += 1
                report.add(f"{tag}: header and finite values", False, call["out"])
                continue
            if call["label"] in content_checked:
                continue
            content_checked.add(call["label"])
            if call["label"] == "estimate":
                _check_estimate(report, rows, grid, ref_s, ref_gw)
            else:
                _check_bootstrap(report, rows, grid, ref_s, ref_gw, obs["reps"])


def _check_estimate(report, rows, grid, ref_s, ref_gw) -> None:
    rss = [(float(r["time"]), float(r["survival"]), float(r["greenwood_var"]))
           for r in rows if r["rank"] == "rss"]
    in_range = all(0.0 <= float(r["survival"]) <= 1.0 for r in rows)
    report.add("estimate: survival within [0, 1]", in_range)
    ok = True
    for t, s, g in zip(grid, ref_s, ref_gw):
        before = [row for row in rss if row[0] <= t]
        got_s, got_g = (before[-1][1], before[-1][2]) if before else (1.0, 0.0)
        ok &= _close(got_s, s) and _close(got_g, g)
    report.add("estimate: rss rows match a direct KM/Greenwood at the grid", ok,
               f"{len(rss)} rss rows")


def _check_bootstrap(report, rows, grid, ref_s, ref_gw, reps) -> None:
    t = [float(r["t"]) for r in rows]
    report.add("bootstrap: one row per grid time", t == [float(v) for v in grid],
               f"{len(rows)} rows")
    if len(rows) != len(grid):
        return
    point = all(_close(float(r["point_estimate"]), s) for r, s in zip(rows, ref_s))
    green = all(_close(float(r["greenwood_var"]), g) for r, g in zip(rows, ref_gw))
    report.add("bootstrap: point estimate and Greenwood match a direct KM", point and green)
    boot = [float(r["bootstrap_var"]) for r in rows]
    gw = [float(r["greenwood_var"]) for r in rows]
    ratio = float(np.mean(boot) / np.mean(gw))
    report.add("bootstrap/Greenwood variance ratio", abs(ratio - 1.0) <= BOOT_RTOL,
               f"{ratio:.3f} over {len(rows)} grid times (within {BOOT_RTOL:.0%})")
    excluded = int(rows[0]["n_excluded_reps"])
    report.info["kept_frac"] = 1.0 - excluded / reps


def check_identical(report: Report, passes: list) -> None:
    """Every call writes the same bytes in every pass and mode."""
    digests = defaultdict(set)
    modes = defaultdict(set)
    for p in passes:
        for call in p["calls"]:
            if call["code"] == 0:
                digests[call["label"]].add(_sha(call["out"]))
                modes[call["label"]].add(p["mode"])
    for label, found in digests.items():
        report.add(f"{label}: byte-identical across {'/'.join(sorted(modes[label]))} passes",
                   len(found) == 1, f"{len(found)} distinct outputs")


def check_run(plan: dict, result: dict) -> Report:
    report = Report()
    for call in result["warmup"]["calls"]:
        report.add(f"warm-up {call['label']}: exit 0", call["code"] == 0,
                   str(call["error"] or ""))
    passes = result["passes"]
    if plan["workload"] == "observations":
        check_observations(report, plan, passes)
    else:
        check_grids(report, plan, passes)
    check_identical(report, passes)
    return report
