"""Command-line front end.

Subcommands:

* ``simulate``  — run the Monte-Carlo efficiency grid from a config file.
* ``estimate``  — fit rank-wise and rank-averaged KM/NA curves on a CSV of
  censored observations.
* ``bootstrap`` — multiplier-bootstrap variance of the RSS KM on a CSV.
* ``kernels``   — analytic asymptotic variance / RE tables (Weibull lifetimes,
  perfect and judged ranking).

All failures exit nonzero after printing a single machine-readable
``error: <context>: <message>`` line on stderr.

``estimate`` and ``bootstrap`` need numpy only.  ``simulate`` and
``kernels`` import ``harness`` and ``models`` (and with them
``scipy.special``) when they run, so this module loads neither.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys

import numpy as np

from .bootstrap import MultiplierLaw, multiplier_bootstrap
from .config import ConfigError, parse_config
from .rss import (
    EmptyDesignError,
    RankedSetSample,
    UnbalancedDesignError,
    rss_kaplan_meier,
    rss_mean,
)
from .sampling import RngStream
from .survival import (
    EmptySampleError,
    InferenceWindowError,
    InvalidObservationError,
    ParameterError,
)

_KNOWN_ERRORS = (
    ConfigError,
    ParameterError,
    InferenceWindowError,
    EmptySampleError,
    InvalidObservationError,
    EmptyDesignError,
    UnbalancedDesignError,
    OSError,
)

# observation CSV rows converted per block
_BLOCK_ROWS = 4096


def _read_observations(path: str) -> RankedSetSample:
    """Load a (cycle, rank, time, event) CSV into a balanced sample; rows may
    come in any order, and each (rank, cycle) pair must occur exactly once.
    Blank lines are skipped; errors name the line of the first bad row.
    Rows are converted in blocks, so only one block's strings are held."""
    names = ("rank", "cycle", "time", "event")
    columns = [[np.empty(0)] for _ in names]
    lines = [np.empty(0, dtype=int)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(names) <= set(header):
            raise InvalidObservationError(
                f"{path}: header must contain columns {sorted(names)}"
            )
        index = [header.index(name) for name in names]
        records = ((reader.line_num, row) for row in reader if row)
        while block := list(itertools.islice(records, _BLOCK_ROWS)):
            for column, values in zip(columns, _block_columns(path, block, index, names)):
                column.append(values)
            lines.append(np.array([lineno for lineno, _ in block]))
    return RankedSetSample.from_columns(*map(np.concatenate, columns),
                                        lines=np.concatenate(lines))


def _block_columns(path, block, index, names) -> list[np.ndarray]:
    """The named columns of a block of (line, row) records as float arrays."""
    try:
        fields = list(zip(*(row for _, row in block)))
        return [np.array(fields[i], dtype=float) for i in index]
    except (IndexError, ValueError):
        for lineno, row in block:  # name the first short or non-numeric row
            try:
                [float(row[i]) for i in index]
            except (IndexError, ValueError):
                raise InvalidObservationError(
                    f"{path}: line {lineno}: columns {', '.join(names)} must hold "
                    f"numbers, got {row}") from None
        raise


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_set_sizes(text: str) -> list[int]:
    sizes = _parse_floats(text)
    for k in sizes:
        if not (k >= 1 and k % 1 == 0):
            raise ParameterError(f"set size k must be >= 1 and a whole number, got {k:g}")
    return [int(k) for k in sizes]


def _cmd_simulate(args) -> int:
    from .harness import run_grid

    cfg = parse_config(args.config)
    if args.full:
        cfg.b_mc = 10_000
    run_grid(cfg, args.out, master_seed=args.seed, parallelism=args.jobs)
    return 0


def _cmd_estimate(args) -> int:
    fit = rss_kaplan_meier(_read_observations(args.input))
    jumps = fit.deaths > 0  # each rank's event times, rank by rank
    grid = np.unique(fit.times[jumps])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "time", "survival", "greenwood_var", "cum_hazard", "hazard_var"]
        )
        ranks = np.nonzero(jumps)[0] + 1
        columns = (fit.times, fit.survival, fit.greenwood_var, fit.cum_hazard, fit.hazard_var)
        for r, *values in zip(ranks, *(c[jumps] for c in columns)):
            writer.writerow([r, *(f"{v:.6g}" for v in values)])
        # rank-averaged estimate on the union grid; NA columns are the
        # rank-averaged cumulative hazard and its (1/k^2)-scaled variance
        columns = (grid, rss_mean(fit.survival_at(grid)), rss_mean(fit.greenwood_at(grid), 2),
                   rss_mean(fit.cum_hazard_at(grid)), rss_mean(fit.hazard_var_at(grid), 2))
        for values in zip(*columns):
            writer.writerow(["rss", *(f"{v:.6g}" for v in values)])
    return 0


def _cmd_bootstrap(args) -> int:
    sample = _read_observations(args.input)
    if args.grid:
        t_grid = np.asarray(_parse_floats(args.grid))
    else:
        t_grid = np.unique(sample.times[sample.events])
        if t_grid.size == 0:
            raise EmptySampleError("no event times to evaluate at; pass --grid")
    law = MultiplierLaw(args.law, gamma_shape=args.gamma_shape)
    result = multiplier_bootstrap(
        sample, t_grid, args.reps, law=law, rng=RngStream(args.seed)
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "point_estimate", "greenwood_var", "bootstrap_var", "n_excluded_reps"]
        )
        columns = (result.t_grid, result.point_estimate,
                   result.greenwood_var, result.variance)
        for values in zip(*columns):
            writer.writerow([*(f"{v:.6g}" for v in values), result.n_excluded])
    return 0


def _cmd_kernels(args) -> int:
    from .harness import prepare_model
    from .models import (
        WeibullModel,
        asymptotic_km_variance,
        asymptotic_rss_km_variance,
        censoring_for_fraction,
    )

    model = WeibullModel(args.nu, args.theta1)
    sizes = _parse_set_sizes(args.k)
    rhos, fractions, levels = map(_parse_floats, (args.rho, args.p_cens, args.levels))
    for flag, values in (("--k", sizes), ("--rho", rhos), ("--p-cens", fractions),
                         ("--levels", levels)):
        if not values:
            raise ParameterError(f"{flag} lists no values")
    times = [model.quantile(level) for level in levels]
    # every --rho is checked before any --p-cens or time: a bad --rho is the
    # error reported even when another input is bad too
    judged_models = [prepare_model(model, rho) for rho in rhos]
    laws = [censoring_for_fraction(model, p) for p in fractions]
    # the SRS kernel depends on (p, t) only, the perfect-ranking one on (k, p)
    v_srs = [[asymptotic_km_variance(model, cens, t) for t in times] for cens in laws]
    rows = []  # all computed before --out is opened: an error leaves no file
    for k in sizes:
        v_perf = [asymptotic_rss_km_variance(model, cens, times, k) for cens in laws]
        for rho, judged in zip(rhos, judged_models):
            for p, cens, v_srs_p, v_perf_p in zip(fractions, laws, v_srs, v_perf):
                v_judg = asymptotic_rss_km_variance(judged, cens, times, k)
                for level, t, v, perf, judg in zip(levels, times, v_srs_p, v_perf_p, v_judg):
                    rows.append([
                        k, f"{rho:.6g}", f"{p:.6g}", f"{level:.6g}", f"{t:.6g}",
                        f"{v:.6g}", f"{perf:.6g}", f"{judg:.6g}",
                        f"{v / perf:.6g}", f"{v / judg:.6g}",
                    ])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "rho", "p_cens", "level", "t",
             "v_srs", "v_rss_perfect", "v_rss_judged", "re_perfect", "re_judged"]
        )
        writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsskm",
        description="Rank-aware survival estimation and RSS-vs-SRS efficiency studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the Monte-Carlo efficiency grid")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (overrides the config)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--full", action="store_true", help="full scale: b_mc=10000")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="KM/NA curves from an observation CSV")
    p.add_argument("--input", required=True,
                   help="CSV with columns cycle,rank,time,event")
    p.add_argument("--out", required=True, help="output curve CSV")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bootstrap", help="multiplier-bootstrap variance")
    p.add_argument("--input", required=True,
                   help="CSV with columns cycle,rank,time,event")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--reps", type=int, default=1000, help="bootstrap replicates")
    p.add_argument("--law", default="unit-exponential",
                   choices=["unit-exponential", "gamma", "degenerate-one"])
    p.add_argument("--gamma-shape", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None,
                   help="comma-separated evaluation times (default: event times)")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("kernels", help="analytic Weibull variance/RE tables")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--nu", type=float, default=1.0, help="Weibull shape")
    p.add_argument("--theta1", type=float, default=1.0, help="Weibull scale")
    p.add_argument("--k", default="2,4,6,8,10", help="set sizes")
    p.add_argument("--rho", default="1.0", help="ranking correlations (1 = perfect)")
    p.add_argument("--p-cens", default="0,0.1,0.3,0.5", help="censoring fractions")
    p.add_argument("--levels", default="0.75,0.5,0.25", help="survival levels")
    p.set_defaults(func=_cmd_kernels)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
