"""Command-line front end.

Subcommands:

* ``simulate``  — run the Monte-Carlo efficiency grid from a config file.
* ``estimate``  — fit rank-wise and rank-averaged KM/NA curves on a CSV of
  censored observations.
* ``bootstrap`` — multiplier-bootstrap variance of the RSS KM on a CSV.
* ``kernels``   — the analytic twin of ``simulate``: the same config and rows,
  with the asymptotic variance kernels and ``re_true`` in place of the
  Monte-Carlo columns.

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
from .config import ConfigError, parse_config, undecodable_line
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

# observation CSV records converted per block
_BLOCK_ROWS = 4096
# the lines that csv reads as no record
_BLANK_LINES = ("\n", "\r\n", "\r")
# NUL, which csv rejects before Python 3.11, and \x1c-\x1f, which numpy strips
# around a number and float does not: csv reads a block that holds one
_CSV_ONLY = "\0\x1c\x1d\x1e\x1f"


def _read_observations(path: str) -> RankedSetSample:
    """Load a UTF-8 (cycle, rank, time, event) CSV, with or without a
    byte-order mark, into a balanced sample; the header names the columns,
    in any order and beside any others, and rows may come in any order, with
    each (rank, cycle) pair exactly once.  Fields may be quoted, lines may
    end in LF, CRLF or CR, and blank lines are skipped; errors name the line
    of the first bad row, undecodable byte or oversized field.

    The lines are read in blocks of ``_BLOCK_ROWS`` records, so only one
    block's strings are held.  numpy's C reader, whose tokenizer is csv's,
    converts a block whose lines are its records; a block it rejects, or
    that holds a record spanning lines, a line longer than csv's field limit
    or a character on which it and ``float`` differ, is read by csv row by
    row (``_block_columns``)."""
    names = ("rank", "cycle", "time", "event")
    blocks, lines = [np.empty((0, len(names)))], [np.empty(0, dtype=int)]
    read = 0  # the lines read before ``reader`` started
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or not set(names) <= set(header):
                raise InvalidObservationError(
                    f"{path}: header must contain columns {sorted(names)}"
                )
            index = [header.index(name) for name in names]
            read = reader.line_num
            while True:
                block, blank = _next_lines(fh)
                if len(block) == blank:
                    break
                converted = _c_block(block, blank, index, read + 1)
                if converted is None:
                    # the block's records, each on the line where csv ends
                    # it; the last may run on past the block
                    reader = csv.reader(itertools.chain(block, fh))
                    records = ((read + reader.line_num, row) for row in reader if row)
                    rows = list(itertools.islice(records, _BLOCK_ROWS))
                    converted = (np.column_stack(_block_columns(path, rows, index, names)),
                                 np.array([lineno for lineno, _ in rows]))
                    read += reader.line_num
                else:
                    read += len(block)
                blocks.append(converted[0])
                lines.append(converted[1])
        except UnicodeDecodeError as exc:
            raise InvalidObservationError(
                f"{path}: line {undecodable_line(path)}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise InvalidObservationError(
                f"{path}: line {read + reader.line_num}: {exc}") from None
    return RankedSetSample.from_columns(*np.concatenate(blocks).T,
                                        lines=np.concatenate(lines))


def _next_lines(fh) -> tuple[list[str], int]:
    """The lines of ``fh`` up to its next ``_BLOCK_ROWS``-th non-blank line
    (or its end), and how many of them are blank."""
    block, blank = [], 0
    while more := list(itertools.islice(fh, _BLOCK_ROWS - len(block) + blank)):
        block += more
        blank += sum(map(more.count, _BLANK_LINES))
    return block, blank


def _c_block(block, blank, index, first):
    """The named columns of a block of lines as a (records, columns) float
    array, read by numpy's C reader, and each record's line number (the
    block's first line being ``first``); None where csv and ``float`` might
    read the block otherwise."""
    text = "".join(block)
    limit = csv.field_size_limit()
    if any(c in text for c in _CSV_ONLY) or (len(text) > limit and max(map(len, block)) > limit):
        return None
    try:
        values = np.loadtxt(block, delimiter=",", quotechar='"', comments=None,
                            usecols=index, ndmin=2)
    except ValueError:  # csv and float name the bad row
        return None
    # a record that spans lines takes more than one; one that starts on the
    # last line and stays open runs on past the block
    last = next(line for line in reversed(block) if line not in _BLANK_LINES)
    if len(values) != len(block) - blank or _ends_quoted(last):
        return None
    if not blank:
        return values, np.arange(first, first + len(block))
    return values, first + np.flatnonzero([line not in _BLANK_LINES for line in block])


def _ends_quoted(line: str) -> bool:
    """Whether a record that starts at ``line`` is still in a quoted field
    at its end."""
    reader = csv.reader((line, "\n"))
    next(reader)
    return reader.line_num > 1


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
    if args.grid is not None:
        t_grid = np.asarray(_parse_floats(args.grid))
    else:
        fit = rss_kaplan_meier(sample)  # its times read a -0.0 as 0.0
        t_grid = np.unique(fit.times[fit.deaths > 0])
        if t_grid.size == 0:
            raise EmptySampleError("no event times to evaluate at; pass --grid")
    if args.gamma_shape is not None and args.law != "gamma":
        raise ParameterError(f"--gamma-shape applies only to --law gamma, not {args.law}")
    law = MultiplierLaw(args.law, 1.0 if args.gamma_shape is None else args.gamma_shape)
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
    from .harness import run_kernels

    run_kernels(parse_config(args.config), args.out)
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
    p.add_argument("--gamma-shape", type=float, default=None,
                   help="shape s of --law gamma (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None,
                   help="comma-separated evaluation times (default: event times)")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("kernels", help="analytic variance/RE table of a simulate grid")
    p.add_argument("--config", required=True, help="key = value config file, as for simulate")
    p.add_argument("--out", required=True, help="output CSV path")
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
