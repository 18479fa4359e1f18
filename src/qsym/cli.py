"""Command-line front end: compute values, verify identities, emit tables,
run q-Volkenborn convergence studies.

Exit codes: 0 success / all verified, 1 identity or convergence failure,
2 domain or flag error, 3 resource guard, 4 internal error (a bug in qsym; its
traceback goes to stderr), 141 = 128 + SIGPIPE when the reader closes stdout
early, as ``| head -1`` does (quietly: no traceback).  Data goes to stdout,
diagnostics to stderr; output is byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .identities import IDENTITIES, SweepConfig, sweep
from .qbernoulli import (
    BetaQuery,
    beta_higher,
    beta_weighted,
    denominator_brackets,
    numerator_span_guard,
    t_sum,
    t_sum_h,
)
from .ratfun import PoleError, QsymDomainError, ResourceLimitError
from .volkenborn import FAMILIES, PadicContext, convergence_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


def _parse_range(text: str) -> tuple:
    """Accept "3", "1,2,5" or "0..6" (inclusive); refuse an empty range."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        values = tuple(range(int(lo), int(hi) + 1)) if dots else _int_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range lo..hi of integers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _fraction(text: str) -> Fraction:
    """A Fraction flag: argparse turns ArgumentTypeError, not ZeroDivisionError, into exit 2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction a/b with b != 0: {text!r}") from None


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list a,b,... of integers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qsym", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one closed form exactly")
    comp.add_argument("family", choices=("beta", "beta-h", "tsum", "tsum-h"))
    comp.add_argument("--n", type=int, required=True)
    comp.add_argument("--r", type=int, default=1)
    comp.add_argument("--w", type=int, default=1, help="bracket base exponent (beta families)")
    comp.add_argument("--arg", type=int, default=0, help="scaled polynomial argument")
    comp.add_argument("--h", type=int, default=None, help="weight parameter (beta-h, tsum-h)")
    comp.add_argument("--i", type=int, default=0, help="inner index (tsum families)")
    comp.add_argument("--wlim", type=int, default=1, help="summation limit (tsum families)")
    comp.add_argument("--base", type=int, default=1, help="base exponent (tsum families)")
    comp.add_argument("--format", choices=("json", "pretty"), default="json")

    ver = sub.add_parser("verify", help="run identity sweeps and report JSON lines")
    ver.add_argument("--identity", action="append", choices=IDENTITIES, default=None,
                     help="identity to check (repeatable; default: all)")
    ver.add_argument("--max-n", type=int, default=4)
    ver.add_argument("--max-r", type=int, default=2)
    ver.add_argument("--max-w", type=int, default=2)
    ver.add_argument("--max-x", type=int, default=1)
    ver.add_argument("--h-offsets", type=_int_list, default=(0, 1, 3),
                     help="h = r + offset values for weighted identities; a list that "
                          "starts below 0 needs the form --h-offsets=-1,2")
    ver.add_argument("--h", type=_int_list, default=None, dest="hs",
                     help="absolute h values (overrides --h-offsets); a list that starts "
                          "below 0 needs the form --h=-7,5")
    ver.add_argument("--sample", type=int, default=None,
                     help="check only this many grid points, chosen by --seed")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: QSYM_THREADS or 1)")
    ver.add_argument("--verbose", action="store_true",
                     help="serialize both sides of every report and log timing to stderr")

    tab = sub.add_parser("table", help="CSV table of higher-order values")
    for flag, default in (("--n", 0), ("--r", 1), ("--w", 1), ("--arg", 0)):
        # argparse reads "-2..2" after a space as an option, so it needs the = form
        tab.add_argument(flag, type=_parse_range, default=(default,),
                         help='"3", "1,2,5" or "0..6"; a range or list that starts below '
                              f'0 needs the form {flag}=-2..2')

    vol = sub.add_parser("volkenborn", help="convergence of stage sums to the closed form")
    vol.add_argument("--family", choices=FAMILIES, default="single")
    vol.add_argument("--n", type=int, required=True)
    vol.add_argument("--r", type=int, default=1)
    vol.add_argument("--h", type=int, default=None)
    vol.add_argument("--x", type=int, default=0)
    vol.add_argument("--p", type=int, default=5)
    vol.add_argument("--q0", type=_fraction, help='evaluation point, e.g. "6" or "4/3"')
    vol.add_argument("--N", type=int, default=4, dest="nmax", help="largest stage")
    vol.add_argument("--budget", type=int, default=10**6)

    return top


def run_compute(args) -> int:
    if args.family == "beta":
        value = beta_higher(args.n, args.r, args.w, args.arg)
    elif args.family == "beta-h":
        if args.h is None:
            raise QsymDomainError("beta-h needs --h")
        value = beta_weighted(args.n, args.h, args.r, args.w, args.arg)
    elif args.family == "tsum":
        value = t_sum(args.n, args.i, args.r, args.wlim, args.base)
    else:
        if args.h is None:
            raise QsymDomainError("tsum-h needs --h")
        value = t_sum_h(args.n, args.i, args.h, args.r, args.wlim, args.base)
    value = value.canonical()
    if args.format == "json":
        print(json.dumps(value.to_json_obj()))
    else:
        print(value)
    return EXIT_OK


def run_verify(args) -> int:
    threads = args.threads
    if threads is None:
        env = os.environ.get("QSYM_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise QsymDomainError(f"QSYM_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise QsymDomainError(f"worker count (--threads or QSYM_THREADS) must be >= 1, "
                              f"got {threads}")
    idents = tuple(args.identity) if args.identity else IDENTITIES
    cfg = SweepConfig(
        identities=idents,
        ns=tuple(range(args.max_n + 1)),
        rs=tuple(range(1, args.max_r + 1)),
        w1s=tuple(range(1, args.max_w + 1)),
        w2s=tuple(range(1, args.max_w + 1)),
        xs=tuple(range(args.max_x + 1)),
        hs=args.hs,
        h_offsets=args.h_offsets,
        sample=args.sample,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    reports = sweep(cfg, threads=threads)
    for rep in reports:
        print(rep.to_json_line(verbose=args.verbose))
    failures = sum(not r.holds for r in reports)
    if args.verbose:
        print(
            f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {len(reports)} checks, "
            f"{failures} failures, {time.perf_counter() - t0:.2f}s, threads={threads}",
            file=sys.stderr,
        )
    return EXIT_FAIL if failures else EXIT_OK


def run_table(args) -> int:
    # Every check runs before the header: the smallest corner holds any bad
    # parameter, the denominator span grows with n, r and w, and the numerator
    # span with n, r, w and |arg|, so the guards at the largest n, r and w, with
    # the smallest and the largest arg, refuse an oversized table before any row.
    BetaQuery(min(args.n), min(args.r), min(args.w))
    denominator_brackets(max(args.n), max(args.r), max(args.w))
    for arg in (min(args.arg), max(args.arg)):
        numerator_span_guard(max(args.n), max(args.r), max(args.w), arg)
    print("n,r,w,arg,ratfun")
    for n in sorted(set(args.n)):
        for r in sorted(set(args.r)):
            for w in sorted(set(args.w)):
                for arg in sorted(set(args.arg)):
                    value = beta_higher(n, r, w, arg).canonical()
                    print(f'{n},{r},{w},{arg},"{value}"')
    return EXIT_OK


def run_volkenborn(args) -> int:
    ctx = PadicContext(p=args.p, q0=args.q0, Nmax=args.nmax, budget=args.budget)
    params = {"n": args.n, "x": args.x}
    if args.family in ("multi", "weighted"):
        params["r"] = args.r
    if args.family == "weighted":
        if args.h is None:
            raise QsymDomainError("weighted family needs --h")
        params["h"] = args.h
    report = convergence_report(args.family, params, ctx)
    print(report.to_json())
    return EXIT_OK if report.monotone else EXIT_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": run_compute,
        "verify": run_verify,
        "table": run_table,
        "volkenborn": run_volkenborn,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # A reader that stops early is not a qsym bug.  With stdout on os.devnull the
        # interpreter's final flush of what is still buffered cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PoleError, QsymDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception:
        import traceback  # lazily: only a bug reaches here

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
