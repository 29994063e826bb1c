#!/usr/bin/env python3
"""Reproduce the two reference efficiency-table rows at full scale and print
the comparison, without running the whole grid:

    python scripts/reproduce_table_rows.py [--b-mc 10000] [--seed 20260824]

re_true is the analytic asymptotic RE under the sampler's judged-rank law,
so only re_mc and re_gw depend on --b-mc and --seed.

Row 1: AFT, k=10, m=50, rho=0.9, no censoring, t at S=0.50
       (reference: re_true 2.465, re_mc 2.444, re_gw 2.386).
Row 2: AFT, k=6, m=50, rho=0.5, 30% censoring, t at S=0.75
       (reference: re_mc 1.910, re_gw 1.808).
"""

import argparse

from rsskm import AftModel, DesignPoint, RngStream, prepare_model, run_cell

ROWS = [
    ("k=10 m=50 rho=0.9 no-censoring S=0.50",
     dict(k=10, m=50, rho=0.9, p=0.0, level=0.5),
     dict(re_true=2.465, re_mc=2.444, re_gw=2.386)),
    ("k=6 m=50 rho=0.5 30%-censoring S=0.75",
     dict(k=6, m=50, rho=0.5, p=0.3, level=0.75),
     dict(re_mc=1.910, re_gw=1.808)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b-mc", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=20260824)
    args = parser.parse_args()

    for i, (label, cell, reference) in enumerate(ROWS):
        model = prepare_model(AftModel(), cell["rho"])
        design = DesignPoint(model, cell["k"], cell["m"], cell["rho"],
                             cell["p"], (cell["level"],))
        rec = run_cell(design, args.b_mc, RngStream(args.seed, i), seed=args.seed)[0]
        print(f"{label} (t={rec.t:.3f}, b_mc={args.b_mc})")
        for name, want in reference.items():
            got = getattr(rec, name)
            print(f"  {name:8s} {got:7.3f}  reference {want:.3f}  "
                  f"({got / want - 1.0:+.1%})")


if __name__ == "__main__":
    main()
