#!/usr/bin/env python3
"""Run the full identity verification battery and print a summary table.

Exercises every checker at the acceptance-scale grids.  Exit code 0 means
every identity held exactly at every grid point, 1 that one failed, and 141
that the reader closed stdout early, as ``| head -1`` does (quietly, as qsym
does).  The table goes to stdout, the same bytes on every run; each
battery's wall time goes to stderr.
"""

import argparse
import sys
import time

from qsym.cli import build_parser, run_flushed, verify_config
from qsym.identities import sweep

# Each row is the grid of one qsym verify command, named by its identities.
BATTERY = [("+".join(args.identity), verify_config(args)) for args in (
    build_parser().parse_args(["verify", *flags.split()]) for flags in (
        "--identity recurrence --max-n 12",
        "--identity shift --max-n 10",
        "--identity expansion --max-n 6 --max-x 3",
        "--identity limit-q1 --max-n 6 --max-r 3 --max-x 2",
        "--identity multiplication --max-n 4 --max-w 4 --max-x 2",
        "--identity thm3 --identity thm4 --max-n 5 --max-r 3 --max-w 3 --max-x 2",
        "--identity thm5 --identity thm6 --max-n 4 --max-w 3 --max-x 2",
    ))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    total_fail = 0
    print(f"{'battery':<16} {'checks':>7} {'failures':>9}")
    for name, cfg in BATTERY:
        t0 = time.perf_counter()
        reports = sweep(cfg, threads=args.threads)
        failures = [r for r in reports if not r.holds]
        total_fail += len(failures)
        print(f"{name:<16} {len(reports):>7} {len(failures):>9}")
        print(f"{name:<16} {time.perf_counter() - t0:>8.2f} s", file=sys.stderr)
        for rep in failures:
            print(f"  counterexample: {rep.to_json_line()}")
    print("all identities hold" if not total_fail else f"{total_fail} FAILURES")
    return 1 if total_fail else 0


if __name__ == "__main__":
    sys.exit(run_flushed(main))
