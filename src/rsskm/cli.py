"""Command-line front end.

Subcommands:

* ``simulate``  — run the Monte-Carlo efficiency grid from a config file.
* ``estimate``  — fit rank-wise and rank-averaged KM/NA curves on a CSV of
  censored observations.
* ``bootstrap`` — multiplier-bootstrap variance of the RSS KM on a CSV.
* ``kernels``   — the analytic twin of ``simulate``: the same config and rows,
  with the asymptotic variance kernels and ``re_true`` in place of the
  Monte-Carlo columns.

An ``InputError`` (bad input) or an ``OSError`` exits 2 after one
``error: <command>: <message>`` line on stderr; any other error propagates.

``estimate`` and ``bootstrap`` need numpy only.  ``simulate`` and
``kernels`` import ``harness`` and ``models`` (and with them
``scipy.special``) when they run, so this module loads neither.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import warnings

import numpy as np

from .bootstrap import multiplier_bootstrap
from .config import parse_config, undecodable_line
from .rss import RankedSetSample, rss_kaplan_meier, rss_mean
from .sampling import RngStream
from .survival import InputError, InvalidObservationError, ParameterError

# observation CSV records converted per block by csv
_BLOCK_ROWS = 4096
# NUL, which csv rejects before Python 3.11, and \x1c-\x1f, which numpy strips
# around a number and float does not: csv reads a file that holds one
_CSV_ONLY = b"\0\x1c\x1d\x1e\x1f"


def _read_observations(path: str) -> RankedSetSample:
    """Load a UTF-8 (cycle, rank, time, event) CSV, with or without a
    byte-order mark, into a balanced sample; the header names the columns,
    in any order and beside any others, and rows may come in any order, with
    each (rank, cycle) pair exactly once.  Fields may be quoted, lines may
    end in LF, CRLF or CR, and blank lines are skipped; errors name the line
    of the first bad row, undecodable byte or oversized field.

    The choice is made once per file.  numpy's C reader, whose tokenizer is
    csv's, converts the records after the header in one call when each is
    one line no longer than csv's field limit and the file holds no
    character on which it and ``float`` differ.  Any other file, and one
    that numpy or the sample rejects, is read by csv row by row in blocks of
    ``_BLOCK_ROWS`` records (``_block_columns``), so only one block's
    strings are held and the first bad row in file order is named."""
    names = ("rank", "cycle", "time", "event")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or not set(names) <= set(header):
                raise InvalidObservationError(
                    f"{path}: header must contain columns {sorted(names)}"
                )
            index = [header.index(name) for name in names]
            records = _one_line_records(path)
            if records is not None:
                try:
                    with warnings.catch_warnings():
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        values = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                            usecols=index, ndmin=2)
                    if len(values) == records:  # no field is longer than its line
                        return RankedSetSample.from_columns(*values.T)
                except ValueError:  # csv and float name the bad row
                    pass
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
            rows = ((reader.line_num, row) for row in reader if row)
            blocks, lines = [np.empty((0, len(names)))], [np.empty(0, dtype=int)]
            while block := list(itertools.islice(rows, _BLOCK_ROWS)):
                blocks.append(np.column_stack(_block_columns(path, block, index, names)))
                lines.append(np.array([lineno for lineno, _ in block]))
        except UnicodeDecodeError as exc:
            raise InvalidObservationError(
                f"{path}: line {undecodable_line(path)}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise InvalidObservationError(f"{path}: line {reader.line_num}: {exc}") from None
    return RankedSetSample.from_columns(*np.concatenate(blocks).T,
                                        lines=np.concatenate(lines))


def _one_line_records(path: str) -> int | None:
    """The number of records after the header of ``path`` where the header
    and each record are one line: its non-blank lines but one.  None where
    a line is longer than csv's field limit or the file holds one of
    ``_CSV_ONLY``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if any(c in data for c in _CSV_ONLY):
        return None
    ends = np.flatnonzero(np.frombuffer(data.replace(b"\r", b"\n"), np.uint8) == ord("\n"))
    lengths = np.diff(ends, prepend=-1, append=len(data)) - 1
    if lengths.max() > csv.field_size_limit():
        return None
    return np.count_nonzero(lengths) - 1  # a header on more lines leaves fewer records


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
    run_grid(cfg, args.out, parallelism=args.jobs)
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
    t_grid = None if args.grid is None else _parse_floats(args.grid)
    result = multiplier_bootstrap(sample, t_grid, args.reps, gamma_shape=args.gamma_shape,
                                  rng=RngStream(args.seed))
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
    p.add_argument("--gamma-shape", type=float, default=1.0,
                   help="shape s of the Gamma(s, 1/s) weights (default 1, the unit "
                        "exponential; inf: every weight is 1)")
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
    except (InputError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
