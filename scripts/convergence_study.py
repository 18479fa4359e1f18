#!/usr/bin/env python3
"""Record per-stage p-adic valuations of the Volkenborn Riemann sums.

No convergence *rate* is asserted anywhere in the package (only that the
valuations are nondecreasing), so this script records the observed per-N
valuations as regression data.  Small experiments suggest the single-variable
family satisfies v_p(S_N - closed form) = N exactly; the last column tracks
whether that pattern held for each run.
"""

import argparse
import math
import sys
from fractions import Fraction

from qsym.volkenborn import PadicContext, convergence_report, default_q0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=lambda s: tuple(int(t) for t in s.split(",")),
                        default=(2, 3, 5))
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--nmax", type=int, default=4, help="largest stage")
    args = parser.parse_args()

    print(f"{'p':>3} {'q0':>4} {'family':<9} {'n':>2} {'r':>2} {'x':>2}  valuations        v=N?")
    for p in args.primes:
        q0 = default_q0(p)
        # The budget admits the 2-fold rows at every stage; MAX_STAGE_BITS
        # still refuses a stage whose numbers would be too large.
        ctx = PadicContext(p=p, q0=q0, Nmax=args.nmax, budget=p ** (2 * args.nmax))
        for n in range(args.max_n + 1):
            for x in (0, 1):
                runs = [
                    ("single", {"n": n, "x": x}),
                    ("multi", {"n": n, "r": 2, "x": x}),
                    ("weighted", {"n": n, "h": 2, "r": 1, "x": x}),
                ]
                for family, params in runs:
                    rep = convergence_report(family, params, ctx)
                    vals = " ".join(
                        "inf" if v == math.inf else str(v) for _, v in rep.points
                    )
                    exact_rate = all(v == N for N, v in rep.points)
                    r = params.get("r", 1)
                    print(
                        f"{p:>3} {str(Fraction(q0)):>4} {family:<9} {n:>2} {r:>2} {x:>2}"
                        f"  {vals:<16}  {'yes' if exact_rate else 'no'}"
                        + ("" if rep.monotone else "  NOT MONOTONE")
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
