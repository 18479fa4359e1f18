#!/usr/bin/env python3
"""Run the full identity verification battery and print a summary table.

Exercises every checker at the acceptance-scale grids.  Exit code 0 means
every identity held exactly at every grid point.  The table goes to stdout,
the same bytes on every run; each battery's wall time goes to stderr.
"""

import argparse
import sys
import time

from qsym.identities import SweepConfig, sweep

BATTERY = [
    ("recurrence", SweepConfig(identities=("recurrence",), ns=tuple(range(13)))),
    ("shift", SweepConfig(identities=("shift",), ns=tuple(range(11)))),
    ("expansion", SweepConfig(identities=("expansion",), ns=tuple(range(7)), xs=(0, 1, 2, 3))),
    ("limit-q1", SweepConfig(identities=("limit-q1",), ns=tuple(range(7)), rs=(1, 2, 3), xs=(0, 1, 2))),
    (
        "multiplication",
        SweepConfig(identities=("multiplication",), ns=tuple(range(5)), rs=(1, 2),
                    w1s=(1, 2, 3, 4), xs=(0, 1, 2)),
    ),
    (
        "thm3+thm4",
        SweepConfig(identities=("thm3", "thm4"), ns=tuple(range(6)), rs=(1, 2, 3),
                    w1s=(1, 2, 3), w2s=(1, 2, 3), xs=(0, 1, 2)),
    ),
    (
        "thm5+thm6",
        SweepConfig(identities=("thm5", "thm6"), ns=tuple(range(5)), rs=(1, 2),
                    w1s=(1, 2, 3), w2s=(1, 2, 3), xs=(0, 1, 2), h_offsets=(0, 1, 3)),
    ),
]


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
    sys.exit(main())
