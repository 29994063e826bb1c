#!/usr/bin/env python3
"""Run the full-scale efficiency grid (b_mc=10000).

Equivalent to `rsskm simulate --full`, kept as a script so the full-scale
run is a single command with sensible defaults:

    python scripts/run_full_grid.py --out results/aft_full.csv --jobs 8
"""

import argparse
import pathlib
import sys

from rsskm.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(HERE / "configs" / "aft_grid.txt"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    argv = ["simulate", "--config", args.config, "--out", args.out,
            "--jobs", str(args.jobs), "--full"]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
