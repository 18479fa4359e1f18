"""Exact verification of the q-Bernoulli identities over parameter grids.

Each checker builds both sides of an identity from the closed forms only --
never one side from the other -- and certifies equality with exact
cross-multiplication.  The two sides of the base-swap symmetry checks
(thm3..thm6) are the same expression instantiated with (w1, w2) swapped,
so the mirror checks at (w1, w2) and (w2, w1) compare the same two sides.
``_mirror_report`` keeps each unordered pair of sides for the (identity, n, r,
h) block it belongs to, the one block a sweep works in, so it builds each side
once and decides each pair by one cross-multiplication, whose verdict both
mirror checks report: an off-diagonal pair still compares two
independently assembled expression trees, and a diagonal check (w1 = w2,
the same side on both sides) is one side against itself and needs no
cross-multiplication.  A convolution side (thm4,
thm6) at (wa, wb) equals the base-swap side (thm3, thm5) at (wb, wa): binomial
inversion, sum_(i>=j) C(n-j, i-j) N_i = W_j, turns its T-sum numerators N_i
back into window products W_j = T(j, j).  The checkers deliberately do not use
this, so thm4 and thm6 still check the paper's convolution form, not thm3's.

A sweep runs selected checkers over a Cartesian grid, in the order the table
_GRID_AXES fixes, optionally fanned out over worker processes.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from functools import lru_cache

from .qbernoulli import (
    WeightedBetaQuery,
    beta_higher,
    beta_number,
    beta_weighted,
    classical_bernoulli_higher,
    closed_form,
    t_sum,
    t_sum_h,
    weights,
    window_product,
)
from .qcore import bracket_poly, q_bracket
from .ratfun import LaurentPoly, QsymDomainError, RatFun, ResourceLimitError

# Each identity, in report order, with its checker's parameters in grid order:
# a sweep varies the first axis slowest, takes h from SweepConfig.hs_for(r) and
# every other axis a from the SweepConfig field "<a>s".
_GRID_AXES = {
    "recurrence": "n", "shift": "n", "expansion": "n x", "limit-q1": "n r x",
    "multiplication": "n r w1 x",
    "thm3": "n r w1 w2 x", "thm4": "n r w1 w2 x",
    "thm5": "n r h w1 w2 x", "thm6": "n r h w1 w2 x",
}
IDENTITIES = tuple(_GRID_AXES)

# Test-only hook: a nonzero value multiplies the i = n term of the thm4 LHS by
# q**twist, so a sweep must report failures (checker non-vacuity).
_THM4_LHS_TWIST = 0


class CheckReport(namedtuple("CheckReport", "identity params lhs rhs holds")):
    """Outcome of one identity check: parameters, both sides, verdict."""

    __slots__ = ()

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


def _recurrence_rhs(n: int) -> RatFun:
    """q - 1, 1, 0 for n = 0, n = 1, n > 1: the right side of the recurrence and the shift."""
    return RatFun(LaurentPoly({1: 1, 0: -1}) if n == 0 else int(n == 1))


# -- single-family identities -------------------------------------------------


def check_recurrence(n: int) -> CheckReport:
    """q(q beta + 1)^n - beta_n = q-1, 1, 0 for n = 0, n = 1, n > 1 (umbral powers)."""
    q = _mono(1)
    acc = RatFun(0)
    for l in range(n + 1):
        acc = acc + math.comb(n, l) * _mono(l) * beta_number(l)
    lhs = q * acc - beta_number(n)
    return _report("recurrence", {"n": n}, lhs, _recurrence_rhs(n))


def check_shift(n: int) -> CheckReport:
    """q * beta_n(argument 1) - beta_n = q-1, 1, 0 for n = 0, 1, > 1."""
    lhs = _mono(1) * beta_higher(n, 1, 1, 1) - beta_number(n)
    return _report("shift", {"n": n}, lhs, _recurrence_rhs(n))


def check_expansion(n: int, x: int) -> CheckReport:
    """beta_n(x) equals the binomial expansion sum C(n,l) q^(lx) beta_l [x]^(n-l)."""
    lhs = beta_higher(n, 1, 1, x)
    rhs = RatFun(0)
    for l in range(n + 1):
        rhs = rhs + math.comb(n, l) * _mono(l * x) * beta_number(l) * q_bracket(x, 1) ** (n - l)
    return _report("expansion", {"n": n, "x": x}, lhs, rhs)


def check_limit_q1(n: int, r: int, x: int) -> CheckReport:
    """q -> 1 limit of the order-r polynomial equals the classical value."""
    lhs = RatFun(beta_higher(n, r, 1, x).limit_at_one())
    rhs = RatFun(classical_bernoulli_higher(n, r, x))
    return _report("limit-q1", {"n": n, "r": r, "x": x}, lhs, rhs)


def check_multiplication(n: int, r: int, w1: int, x: int) -> CheckReport:
    """Multiplication formula: beta_n^(r) at w1*x as a [w1]-scaled sum over shifts."""
    lhs = beta_higher(n, r, 1, w1 * x)
    rhs = _swap_side(n, r, None, w1, 1, x)
    return _report("multiplication", {"n": n, "r": r, "w1": w1, "x": x}, lhs, rhs)


# -- base-swap symmetry identities: one side builder per form, for both families


def _swap_side(n: int, r: int, h, wa: int, wb: int, x: int) -> RatFun:
    """[wa]^(n-r) * sum over j in {0..wa-1}^r of q^(wb sum_k c_k j_k)
    * (closed form in base q^wa at argument wa wb x + wb sum j), for the
    order-r family (h None: thm3 and the multiplication formula) or the
    weighted (h, r) family (thm5), c read from weights(r, h).

    closed_form takes power(j) in place of q^(j arg) and is linear in it, so
    the tuple sum moves into one call: by the geometric-window identity of
    qbernoulli, term j of the closed form gets
    power(j) = q^(j wa wb x) * prod_k window(wa, wb (c_k + j)).
    """
    exps, mult = weights(r, h)

    def power(j):
        return window_product(wa, [wb * (c + j) for c in exps], mult).shift(j * wa * wb * x)

    return closed_form(n, r, wa, power, h) * RatFun(bracket_poly(wa, 1, max(n - r, 0)),
                                                    bracket_poly(wa, 1, max(r - n, 0)))


def _convolution_side(n: int, r: int, h, wa: int, wb: int, x: int, twist: int) -> RatFun:
    """sum_i C(n,i) [wa]^(n-i) [wb]^(i-r) beta_i T(n,i), beta_i = num_i / den_i the order-r
    (h None) or weighted closed form in base q^wb at wa wb x and T(n,i) its T-sum in base
    q^wa, with no division.  The difference table of the window products T(s,s) ends in
    N_i = T(n,i) (1-q^wa)^(n-i), so [wa]^(n-i) T(n,i) = N_i / (1-q)^(n-i); with e_k =
    [k + c_1]^mult in base q^wb, den_n = den_i (1-q^wb)^(n-i) e_(i+1)...e_n.  The side is thus
    [wb]^(n-r) sum_i C(n,i) e_(i+1)...e_n num_i N_i / den_n, summed by Horner's rule.
    A nonzero twist multiplies the i = n term by q^twist."""
    hr, beta, tsum = ((r,), beta_higher, t_sum) if h is None else ((h, r), beta_weighted, t_sum_h)
    exps, mult = weights(r, h)
    N = [tsum(s, s, *hr, wb, wa).num for s in range(n + 1)]
    for k in range(n, 0, -1):
        N[:k] = [N[s] - N[s + 1] for s in range(k)]
    N[n] = N[n].shift(twist)
    acc = RatFun(0)
    for i in range(n + 1):
        b = beta(i, *hr, wb, wa * wb * x)
        acc = acc * bracket_poly(i + exps[0], wb, mult) + b.num.scale(math.comb(n, i)) * N[i]
    return acc * RatFun(bracket_poly(wb, 1, max(n - r, 0)),
                        bracket_poly(wb, 1, max(r - n, 0)) * b.den)


@lru_cache(maxsize=1)
def _pair_block(identity: str, n: int, r: int, h) -> dict:
    """The side pairs built so far in one (identity, n, r, h) block, by (x, a, b).
    A sweep runs (w1, w2, x) innermost (_GRID_AXES), so a mirror check finds its
    partner's pair in the block in hand, and the reports hold every side it holds."""
    return {}


def _mirror_report(identity: str, params: dict, h, lhs: tuple, rhs: tuple) -> CheckReport:
    """The report of lhs == rhs for the side keys lhs and rhs, each (wa, wb, twist)
    naming the (wa, wb) side of a base-swap identity, h being None for thm3 and
    thm4 and twist nonzero only on thm4's lhs.  The mirror check keys the same
    pair, (x, a, b) with a <= b, in the block in hand, so each pair is built and
    decided once; for a == b both are the one side and the verdict is True.  The
    side builders are looked up as module globals on each call."""
    n, r, x = params["n"], params["r"], params["x"]

    def side(key):
        wa, wb, twist = key
        if identity in ("thm3", "thm5"):
            return _swap_side(n, r, h, wa, wb, x)
        return _convolution_side(n, r, h, wa, wb, x, twist)

    a, b = sorted((lhs, rhs))
    pairs = _pair_block(identity, n, r, h)
    if (x, a, b) not in pairs:
        side_a = side(a)
        side_b = side_a if a == b else side(b)
        pairs[x, a, b] = side_a, side_b, a == b or side_a == side_b
    side_a, side_b, holds = pairs[x, a, b]
    sides = (side_a, side_b) if lhs == a else (side_b, side_a)
    return CheckReport(identity, params, *sides, holds)


def check_thm3(n: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Base-swap symmetry of the order-r polynomials under w1 <-> w2.

    The generating-function form of this symmetry (exponential series in a
    formal variable t) is equivalent to this polynomial identity coefficient
    by coefficient: the t^n/n! coefficient of either generating series is the
    corresponding side here.  Checking every degree n therefore certifies the
    series statement, and no separate series-level checker exists.
    """
    params = {"n": n, "r": r, "w1": w1, "w2": w2, "x": x}
    return _mirror_report("thm3", params, None, (w1, w2, 0), (w2, w1, 0))


def check_thm4(n: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Convolution form of the base-swap symmetry, with T-sums."""
    params = {"n": n, "r": r, "w1": w1, "w2": w2, "x": x}
    return _mirror_report("thm4", params, None, (w1, w2, _THM4_LHS_TWIST), (w2, w1, 0))


def check_thm5(n: int, h: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Base-swap symmetry of the weighted (h, r) polynomials."""
    params = {"n": n, "r": r, "h": h, "w1": w1, "w2": w2, "x": x}
    return _mirror_report("thm5", params, h, (w1, w2, 0), (w2, w1, 0))


def check_thm6(n: int, h: int, r: int, w1: int, w2: int, x: int) -> CheckReport:
    """Convolution form of the weighted base-swap symmetry, with weighted T-sums.

    The weighted closed form and T-sum enter with the roles of the two bases
    exchanged, so the lhs is the convolution side at (w2, w1).
    """
    params = {"n": n, "r": r, "h": h, "w1": w1, "w2": w2, "x": x}
    return _mirror_report("thm6", params, h, (w2, w1, 0), (w1, w2, 0))


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


class GuardLimits(namedtuple("GuardLimits", "max_n max_r max_w max_abs_x max_abs_h",
                             defaults=(12, 4, 6, 4, 8))):
    """Grid guards, checked before any work: a sweep refuses n, r, w, x or h
    outside these ranges, which bound the degree of every closed form and the
    span of every window product."""

    __slots__ = ()


class SweepConfig(namedtuple(
    "SweepConfig",
    "identities ns rs w1s w2s xs hs h_offsets guards sample seed",
    defaults=(IDENTITIES, (0, 1, 2), (1, 2), (1, 2), (1, 2), (0, 1), None, (0, 1, 3),
              GuardLimits(), None, 0),
)):
    """Parameter ranges and identity selection for one verification sweep.

    hs = None picks, for each r, the offsets h = r + off for off in h_offsets,
    which keeps the weighted checks away from degenerate h.  Its fields are
    checked on construction, and again by _replace; jobs() walks the axes of
    _GRID_AXES, which fixes the order of the checks.
    """

    __slots__ = ()

    def hs_for(self, r: int) -> tuple:
        if self.hs is not None:
            return self.hs
        return tuple(r + off for off in self.h_offsets)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        g = self.guards
        unknown = [i for i in self.identities if i not in IDENTITIES]
        if unknown:
            raise QsymDomainError(f"unknown identities: {unknown}")
        for name, vals in (("n", self.ns), ("r", self.rs), ("w1", self.w1s), ("w2", self.w2s),
                           ("x", self.xs), ("h", self.h_offsets if self.hs is None else self.hs)):
            if not vals:
                raise QsymDomainError(f"empty range for {name}")
        if self.sample is not None and self.sample < 0:
            raise QsymDomainError(f"sample must be >= 0, got {self.sample}")
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
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks again
        return cls(*iterable)

    def _points(self, axes: str) -> list:
        """The grid points over axes, each a params dict, the first axis slowest."""
        points = [{}]
        for a in axes.split():
            points = [{**p, a: v} for p in points
                      for v in (self.hs_for(p["r"]) if a == "h" else getattr(self, a + "s"))]
        return points

    def jobs(self) -> list:
        """Deterministic (identity, params) list covering the grid, in _GRID_AXES order."""
        out = [(ident, params) for ident, axes in _GRID_AXES.items() if ident in self.identities
               for params in self._points(axes)]
        if self.sample is not None and self.sample < len(out):
            import random  # lazily: only a sampled sweep draws
            rng = random.Random(self.seed)
            idx = sorted(rng.sample(range(len(out)), self.sample))
            out = [out[i] for i in idx]
        for _, params in out:  # a degenerate h fails here, before any check runs
            if "h" in params:
                WeightedBetaQuery(params["n"], params["h"], params["r"])
        return out


def _run_job(job) -> CheckReport:
    ident, params = job
    return _CHECKERS[ident](**params)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(cfg: SweepConfig, threads: int = 1) -> list[CheckReport]:
    """Run every selected checker over the grid; deterministic report order.

    The pool gets min(threads, jobs, usable CPUs) workers, the CPUs being those
    this process may run on (cpu_count where the platform cannot say): with the
    fork start method every worker starts at once, so more would only cost
    memory, and workers sharing one CPU run slower than no pool.
    """
    jobs = cfg.jobs()
    workers = min(threads, len(jobs), _usable_cpus())
    if workers <= 1:
        return [_run_job(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor  # lazily: most of qsym's import time
    chunk = max(1, math.ceil(len(jobs) / (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs, chunksize=chunk))
