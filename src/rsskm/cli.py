"""Command-line front end.

Subcommands:

* ``simulate``  — run the Monte-Carlo efficiency grid from a config file.
* ``estimate``  — fit rank-wise and rank-averaged KM/NA curves on a CSV of
  censored observations.
* ``bootstrap`` — multiplier-bootstrap variance of the RSS KM on a CSV.
* ``kernels``   — analytic asymptotic variance / RE tables (Weibull path).

All failures exit nonzero after printing a single machine-readable
``error: <context>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .bootstrap import MultiplierLaw, multiplier_bootstrap
from .config import ConfigError, parse_config
from .harness import run_grid
from .models import (
    CalibrationError,
    InferenceWindowError,
    ParameterError,
    WeibullModel,
    asymptotic_km_variance,
    asymptotic_rss_km_variance,
    censoring_for_fraction,
    dell_clutter_sigma,
    estimate_mixing_matrix,
)
from .rss import (
    EmptyDesignError,
    RankedSetSample,
    UnbalancedDesignError,
    rank_sum,
    rss_kaplan_meier,
)
from .sampling import RngStream
from .survival import (
    CensoredObservation,
    EmptySampleError,
    InvalidObservationError,
    curve_to_rows,
)

_KNOWN_ERRORS = (
    ConfigError,
    ParameterError,
    CalibrationError,
    InferenceWindowError,
    EmptySampleError,
    InvalidObservationError,
    EmptyDesignError,
    UnbalancedDesignError,
    OSError,
)


def _read_observations(path: str) -> RankedSetSample:
    """Load a (cycle, rank, time, event) CSV into a balanced sample; rows may
    come in any order, and each (rank, cycle) pair must occur exactly once."""
    obs = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"cycle", "rank", "time", "event"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise InvalidObservationError(
                f"{path}: header must contain columns {sorted(required)}"
            )
        for lineno, row in enumerate(reader, 2):
            try:
                event = int(row["event"])
                if event not in (0, 1):
                    raise ValueError(f"event must be 0 or 1, got {row['event']!r}")
                obs.append(
                    CensoredObservation(
                        time=float(row["time"]),
                        event=bool(event),
                        rank=int(row["rank"]),
                        cycle=int(row["cycle"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise InvalidObservationError(f"{path}:{lineno}: {exc}") from exc
    return RankedSetSample.from_observations(obs)


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if args.full:
        cfg.b_mc, cfg.b_true = 10_000, 4_000
    run_grid(cfg, args.out, master_seed=args.seed, parallelism=args.jobs)
    return 0


def _cmd_estimate(args) -> int:
    sample = _read_observations(args.input)
    est = rss_kaplan_meier(sample)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "time", "survival", "greenwood_var", "cum_hazard", "hazard_var"]
        )
        for r, curve in enumerate(est.rank_curves, 1):
            for row in curve_to_rows(curve):
                writer.writerow([r, *(f"{v:.6g}" for v in row)])
        # rank-averaged estimate on the union grid; NA columns are the
        # rank-averaged cumulative hazard and its (1/k^2)-scaled variance
        k, grid = est.set_size_k, est.grid
        columns = (grid, est.rss_survival, est.rss_greenwood,
                   rank_sum(est.fit.cum_hazard_at(grid)) / k,
                   rank_sum(est.fit.hazard_var_at(grid)) / k**2)
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
    est = rss_kaplan_meier(sample)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "point_estimate", "greenwood_var", "bootstrap_var", "n_excluded_reps"]
        )
        columns = (result.t_grid, result.point_estimate,
                   est.greenwood_at(result.t_grid), result.variance)
        for values in zip(*columns):
            writer.writerow([*(f"{v:.6g}" for v in values), result.n_excluded])
    return 0


def _cmd_kernels(args) -> int:
    model = WeibullModel(args.nu, args.theta1)
    levels = _parse_floats(args.levels)
    rng = RngStream(args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "rho", "p_cens", "level", "t",
             "v_srs", "v_rss_perfect", "v_rss_judged", "re_perfect", "re_judged"]
        )
        for k in [int(v) for v in _parse_floats(args.k)]:
            for i, rho in enumerate(_parse_floats(args.rho)):
                if rho == 1.0:
                    mixing = None
                else:
                    sigma_z = float(np.sqrt(dell_clutter_sigma(
                        model.lifetime_variance, rho)))
                    noisy = WeibullModel(args.nu, args.theta1, sigma_z)
                    mixing = estimate_mixing_matrix(
                        noisy, k, args.n_sets, rng.child(k, i))
                for p in _parse_floats(args.p_cens):
                    cens = censoring_for_fraction(model, p)
                    for level in levels:
                        t = model.quantile(level)
                        v_srs = asymptotic_km_variance(model, cens, t)
                        v_perf = asymptotic_rss_km_variance(model, cens, t, k)
                        v_judg = (
                            v_perf if mixing is None
                            else asymptotic_rss_km_variance(
                                model, cens, t, k, mixing=mixing)
                        )
                        writer.writerow([
                            k, f"{rho:.6g}", f"{p:.6g}", f"{level:.6g}", f"{t:.6g}",
                            f"{v_srs:.6g}", f"{v_perf:.6g}", f"{v_judg:.6g}",
                            f"{v_srs / v_perf:.6g}", f"{v_srs / v_judg:.6g}",
                        ])
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
    p.add_argument("--full", action="store_true",
                   help="full scale: b_mc=10000, b_true=4000")
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
    p.add_argument("--n-sets", type=int, default=1_000_000,
                   help="draws per mixing matrix")
    p.add_argument("--seed", type=int, default=0)
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
