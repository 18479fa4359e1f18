"""Exact verification of the q-Bernoulli identities over parameter grids.

Each checker builds both sides of an identity from the closed forms only --
never one side from the other -- and certifies equality with exact
cross-multiplication.  The two sides of the base-swap symmetry checks
(thm3..thm6) are the same expression instantiated with (w1, w2) swapped, so
each check compares two independently assembled expression trees.

A sweep runs selected checkers over a Cartesian grid, in deterministic
parameter order, optionally fanned out over worker processes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .qbernoulli import (
    beta_higher,
    beta_number,
    beta_weighted,
    classical_bernoulli_higher,
    q_power_weights,
    t_sum,
    t_sum_h,
)
from .qcore import q_bracket
from .ratfun import LaurentPoly, RatFun, ResourceLimitError

IDENTITIES = (
    "recurrence",
    "shift",
    "expansion",
    "limit-q1",
    "multiplication",
    "thm3",
    "thm4",
    "thm5",
    "thm6",
)

# Test-only hook: a nonzero value multiplies the i = n term of the thm4 LHS by
# q**twist, so a sweep must report failures (checker non-vacuity).
_THM4_LHS_TWIST = 0


@dataclass
class CheckReport:
    """Outcome of one identity check: parameters, both sides, verdict."""

    identity: str
    params: dict
    lhs: RatFun
    rhs: RatFun
    holds: bool

    def to_json_obj(self, verbose: bool = False) -> dict:
        obj = {"identity": self.identity, "params": self.params, "holds": self.holds}
        if verbose or not self.holds:
            obj["lhs"] = self.lhs.canonical().to_json_obj()
            obj["rhs"] = self.rhs.canonical().to_json_obj()
        return obj

    def to_json_line(self, verbose: bool = False) -> str:
        return json.dumps(self.to_json_obj(verbose), sort_keys=True)


def _report(identity: str, params: dict, lhs: RatFun, rhs: RatFun) -> CheckReport:
    return CheckReport(identity, params, lhs, rhs, lhs == rhs)


def _mono(e: int) -> RatFun:
    return RatFun(LaurentPoly({e: 1}))


# -- single-family identities -------------------------------------------------


def check_recurrence(n: int) -> CheckReport:
    """q(q beta + 1)^n - beta_n = q-1, 1, 0 for n = 0, n = 1, n > 1 (umbral powers)."""
    q = _mono(1)
    acc = RatFun(0)
    for l in range(n + 1):
        acc = acc + math.comb(n, l) * _mono(l) * beta_number(l)
    lhs = q * acc - beta_number(n)
    if n == 0:
        rhs = RatFun(LaurentPoly({1: 1, 0: -1}))
    elif n == 1:
        rhs = RatFun(1)
    else:
        rhs = RatFun(0)
    return _report("recurrence", {"n": n}, lhs, rhs)


def check_shift(n: int) -> CheckReport:
    """q * beta_n(argument 1) - beta_n = q-1, 1, 0 for n = 0, 1, > 1."""
    lhs = _mono(1) * beta_higher(n, 1, 1, 1) - beta_number(n)
    if n == 0:
        rhs = RatFun(LaurentPoly({1: 1, 0: -1}))
    elif n == 1:
        rhs = RatFun(1)
    else:
        rhs = RatFun(0)
    return _report("shift", {"n": n}, lhs, rhs)


def check_expansion(n: int, x: int) -> CheckReport:
    """beta_n(x) equals the binomial expansion sum C(n,l) q^(lx) beta_l [x]^(n-l)."""
    lhs = beta_higher(n, 1, 1, x)
    rhs = RatFun(0)
    for l in range(n + 1):
        rhs = rhs + math.comb(n, l) * _mono(l * x) * beta_number(l) * q_bracket(x, 1) ** (n - l)
    return _report("expansion", {"n": n, "x": x}, lhs, rhs)


def check_limit_q1(n: int, r: int, x: int) -> CheckReport:
    """q -> 1 limit of the order-r polynomial equals the classical value."""
    lhs = RatFun.from_const(beta_higher(n, r, 1, x).limit_at_one())
    rhs = RatFun.from_const(classical_bernoulli_higher(n, r, x))
    return _report("limit-q1", {"n": n, "r": r, "x": x}, lhs, rhs)


def check_multiplication(n: int, r: int, w1: int, x: int) -> CheckReport:
    """Multiplication formula: beta_n^(r) at w1*x as a [w1]-scaled sum over shifts."""
    lhs = beta_higher(n, r, 1, w1 * x)
    acc = RatFun(0)
    for s, ws in enumerate(q_power_weights([1] * r, w1)):
        acc = acc + RatFun(ws) * beta_higher(n, r, w1, w1 * x + s)
    rhs = q_bracket(w1, 1) ** (n - r) * acc
    return _report("multiplication", {"n": n, "r": r, "w1": w1, "x": x}, lhs, rhs)


# -- base-swap symmetry identities ---------------------------------------------


def _thm3_side(n: int, r: int, wa: int, wb: int, x: int) -> RatFun:
    acc = RatFun(0)
    for s, ws in enumerate(q_power_weights([wb] * r, wa)):
        acc = acc + RatFun(ws) * beta_higher(n, r, wa, wa * wb * x + wb * s)
    return q_bracket(wa, 1) ** (n - r) * acc


def check_thm3(n: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Base-swap symmetry of the order-r polynomials under w1 <-> w2.

    The generating-function form of this symmetry (exponential series in a
    formal variable t) is equivalent to this polynomial identity coefficient
    by coefficient: the t^n/n! coefficient of either generating series is the
    corresponding side here.  Checking every degree n therefore certifies the
    series statement, and no separate series-level checker exists.
    """
    lhs = _thm3_side(n, r, w1, w2, x)
    rhs = _thm3_side(n, r, w2, w1, x)
    return _report("thm3", {"n": n, "r": r, "w1": w1, "w2": w2, "x": x}, lhs, rhs)


def _thm4_side(n: int, r: int, wa: int, wb: int, x: int, twist: int = 0) -> RatFun:
    acc = RatFun(0)
    for i in range(n + 1):
        term = (
            math.comb(n, i)
            * q_bracket(wa, 1) ** (n - i)
            * q_bracket(wb, 1) ** (i - r)
            * beta_higher(i, r, wb, wa * wb * x)
            * t_sum(n, i, r, wb, wa)
        )
        if twist and i == n:
            term = term * _mono(twist)
        acc = acc + term
    return acc


def check_thm4(n: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Convolution form of the base-swap symmetry, with T-sums."""
    lhs = _thm4_side(n, r, w1, w2, x, twist=_THM4_LHS_TWIST)
    rhs = _thm4_side(n, r, w2, w1, x)
    return _report("thm4", {"n": n, "r": r, "w1": w1, "w2": w2, "x": x}, lhs, rhs)


def _thm5_side(n: int, h: int, r: int, wa: int, wb: int, x: int) -> RatFun:
    """[wa]^(n-r) * sum over j in {0..wa-1}^r of q^(wb sum_l (h-l+1) j_l)
    * beta_weighted(n, h, r, wa, wa wb x + wb sum j), l one-based.

    The beta_weighted factor depends on j only through s = sum j, so the
    tuple sum regroups exactly as sum_s W[s] * beta_weighted(..., wa wb x + wb s)
    with W[s] = sum over the tuples with sum s of the weight monomials, which
    composition_weights builds from the per-coordinate ratios q^(wb(h-l+1)).
    """
    acc = RatFun(0)
    for s, ws in enumerate(q_power_weights([wb * (h - l) for l in range(r)], wa)):
        acc = acc + RatFun(ws) * beta_weighted(n, h, r, wa, wa * wb * x + wb * s)
    return q_bracket(wa, 1) ** (n - r) * acc


def check_thm5(n: int, h: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Base-swap symmetry of the weighted (h, r) polynomials."""
    lhs = _thm5_side(n, h, r, w1, w2, x)
    rhs = _thm5_side(n, h, r, w2, w1, x)
    return _report("thm5", {"n": n, "r": r, "h": h, "w1": w1, "w2": w2, "x": x}, lhs, rhs)


def _thm6_side(n: int, h: int, r: int, wa: int, wb: int, x: int) -> RatFun:
    acc = RatFun(0)
    for i in range(n + 1):
        acc = acc + (
            math.comb(n, i)
            * q_bracket(wb, 1) ** (n - i)
            * q_bracket(wa, 1) ** (i - r)
            * beta_weighted(i, h, r, wa, wa * wb * x)
            * t_sum_h(n, i, h, r, wa, wb)
        )
    return acc


def check_thm6(n: int, h: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Convolution form of the weighted base-swap symmetry, with weighted T-sums."""
    lhs = _thm6_side(n, h, r, w1, w2, x)
    rhs = _thm6_side(n, h, r, w2, w1, x)
    return _report("thm6", {"n": n, "r": r, "h": h, "w1": w1, "w2": w2, "x": x}, lhs, rhs)


_CHECKERS = {
    "recurrence": check_recurrence,
    "shift": check_shift,
    "expansion": check_expansion,
    "limit-q1": check_limit_q1,
    "multiplication": check_multiplication,
    "thm3": check_thm3,
    "thm4": check_thm4,
    "thm5": check_thm5,
    "thm6": check_thm6,
}


# -- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class GuardLimits:
    """Grid guards; r-fold sums grow like w**r, so sweeps refuse larger ranges."""

    max_n: int = 12
    max_r: int = 4
    max_w: int = 6
    max_abs_x: int = 4
    max_abs_h: int = 8


@dataclass(frozen=True)
class SweepConfig:
    """Parameter ranges and identity selection for one verification sweep.

    hs = None picks, for each r, the offsets h = r + off for off in h_offsets,
    which keeps the weighted checks away from degenerate h.
    """

    identities: tuple = IDENTITIES
    ns: tuple = (0, 1, 2)
    rs: tuple = (1, 2)
    w1s: tuple = (1, 2)
    w2s: tuple = (1, 2)
    xs: tuple = (0, 1)
    hs: tuple | None = None
    h_offsets: tuple = (0, 1, 3)
    guards: GuardLimits = field(default_factory=GuardLimits)
    sample: int | None = None
    seed: int = 0

    def hs_for(self, r: int) -> tuple:
        if self.hs is not None:
            return self.hs
        return tuple(r + off for off in self.h_offsets)

    def validate(self) -> None:
        g = self.guards
        unknown = [i for i in self.identities if i not in IDENTITIES]
        if unknown:
            raise ValueError(f"unknown identities: {unknown}")
        for name, vals in (("n", self.ns), ("r", self.rs), ("w1", self.w1s),
                           ("w2", self.w2s), ("x", self.xs)):
            if not vals:
                raise ValueError(f"empty range for {name}")
        if max(self.ns) > g.max_n or min(self.ns) < 0:
            raise ResourceLimitError(f"n range {self.ns} outside guard 0..{g.max_n}")
        if max(self.rs) > g.max_r or min(self.rs) < 1:
            raise ResourceLimitError(f"r range {self.rs} outside guard 1..{g.max_r}")
        for ws in (self.w1s, self.w2s):
            if max(ws) > g.max_w or min(ws) < 1:
                raise ResourceLimitError(f"w range {ws} outside guard 1..{g.max_w}")
        if any(abs(x) > g.max_abs_x for x in self.xs):
            raise ResourceLimitError(f"x range {self.xs} outside guard |x| <= {g.max_abs_x}")
        for r in self.rs:
            for h in self.hs_for(r):
                if abs(h) > g.max_abs_h:
                    raise ResourceLimitError(f"h = {h} outside guard |h| <= {g.max_abs_h}")

    def jobs(self) -> list:
        """Deterministic (identity, params) list covering the grid."""
        self.validate()
        out = []
        order = [i for i in IDENTITIES if i in self.identities]
        for ident in order:
            if ident in ("recurrence", "shift"):
                for n in self.ns:
                    out.append((ident, {"n": n}))
            elif ident == "expansion":
                for n, x in itertools.product(self.ns, self.xs):
                    out.append((ident, {"n": n, "x": x}))
            elif ident == "limit-q1":
                for n, r, x in itertools.product(self.ns, self.rs, self.xs):
                    out.append((ident, {"n": n, "r": r, "x": x}))
            elif ident == "multiplication":
                for n, r, w1, x in itertools.product(self.ns, self.rs, self.w1s, self.xs):
                    out.append((ident, {"n": n, "r": r, "w1": w1, "x": x}))
            elif ident in ("thm3", "thm4"):
                for n, r, w1, w2, x in itertools.product(
                    self.ns, self.rs, self.w1s, self.w2s, self.xs
                ):
                    out.append((ident, {"n": n, "r": r, "w1": w1, "w2": w2, "x": x}))
            else:  # thm5, thm6
                for n, r in itertools.product(self.ns, self.rs):
                    for h, w1, w2, x in itertools.product(
                        self.hs_for(r), self.w1s, self.w2s, self.xs
                    ):
                        out.append((ident, {"n": n, "r": r, "h": h, "w1": w1, "w2": w2, "x": x}))
        if self.sample is not None and self.sample < len(out):
            rng = random.Random(self.seed)
            idx = sorted(rng.sample(range(len(out)), self.sample))
            out = [out[i] for i in idx]
        return out


def _run_job(job) -> CheckReport:
    ident, params = job
    return _CHECKERS[ident](**params)


def sweep(cfg: SweepConfig, threads: int = 1) -> list[CheckReport]:
    """Run every selected checker over the grid; deterministic report order.

    The pool gets min(threads, jobs, cpu_count) workers: with the fork start
    method every worker starts at once, so more would only cost memory.
    """
    jobs = cfg.jobs()
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_job(j) for j in jobs]
    chunk = max(1, math.ceil(len(jobs) / (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs, chunksize=chunk))
