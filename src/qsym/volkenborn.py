"""Finite-N q-Volkenborn Riemann sums with p-adic valuation tracking.

For a prime p, a rational q0 close to 1 in the p-adic sense, and N >= 1, the
stage-N sum over r coordinates is

    S_N = (1 / [p^N])^r * sum over y in {0..p^N-1}^r of
          [x + y_1 + ... + y_r]^n * weight(y)

with brackets evaluated at q = q0, the measure contributing q0^(y_l) per
coordinate, and (for the weighted family) the extra weight
q0^(sum_l (h - l) y_l).  Everything is an exact rational; convergence to the
matching closed form is certified by the p-adic valuations of S_N minus the
closed-form value being nondecreasing in N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .qbernoulli import WeightedBetaQuery, beta_higher, beta_weighted, composition_weights
from .ratfun import ResourceLimitError

FAMILIES = ("single", "multi", "weighted")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def p_valuation(r: Fraction, p: int):
    """Exponent of p in the rational r; +inf for zero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = Fraction(r)
    if r == 0:
        return math.inf
    v = 0
    n = abs(r.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = r.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def default_q0(p: int) -> Fraction:
    """Smallest convenient q0 with v_p(1 - q0) large enough: 1 + p, except 5 for p = 2."""
    return Fraction(5) if p == 2 else Fraction(1 + p)


@dataclass(frozen=True)
class PadicContext:
    """Prime p, evaluation point q0 with v_p(1 - q0) >= 1 (>= 2 for p = 2),
    largest stage Nmax, and a budget on the p^(r N) summation grid."""

    p: int
    q0: Fraction = None
    Nmax: int = 4
    budget: int = 10**6

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.q0 is None:
            object.__setattr__(self, "q0", default_q0(self.p))
        else:
            object.__setattr__(self, "q0", Fraction(self.q0))
        need = 2 if self.p == 2 else 1
        if p_valuation(1 - self.q0, self.p) < need:
            raise ValueError(
                f"q0 = {self.q0} too far from 1: need v_{self.p}(1 - q0) >= {need}"
            )
        if self.Nmax < 1:
            raise ValueError("Nmax must be >= 1")


def _bracket_at(t: int, q0: Fraction) -> Fraction:
    return (1 - q0**t) / (1 - q0)


def _check_budget(ctx: PadicContext, r: int, N: int) -> int:
    grid = ctx.p ** (r * N)
    if grid > ctx.budget:
        raise ResourceLimitError(
            f"summation grid p^(r*N) = {grid} exceeds the budget {ctx.budget}"
        )
    return ctx.p**N


def _riemann_sum(n: int, x: int, ctx: PadicContext, N: int, exps) -> Fraction:
    """(1 / [p^N])^r * sum over y in {0..p^N-1}^r of [x + sum y]^n * q0^(sum_l exps[l] y_l),
    r = len(exps).

    The bracket depends on y only through s = sum y, and the per-coordinate
    weights factor into r geometric windows, so composition_weights groups
    the tuples by s exactly: O(r^2 * p^N) Fraction operations, not p^(rN).
    """
    if not 1 <= N <= ctx.Nmax:
        raise ValueError(f"N must be in 1..{ctx.Nmax}")
    r = len(exps)
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    m = _check_budget(ctx, r, N)
    weights = composition_weights([ctx.q0**e for e in exps], m)
    total = Fraction(0)
    for s, ws in enumerate(weights):
        total += ws * _bracket_at(x + s, ctx.q0) ** n
    return total / _bracket_at(m, ctx.q0) ** r


def riemann_sum_multi(n: int, r: int, x: int, ctx: PadicContext, N: int) -> Fraction:
    """Stage-N r-fold sum for the unweighted family, as an exact rational.

    The measure gives every coordinate the ratio q0, so the tuples are grouped
    by s = sum y with composition_weights([q0] * r): W[s] = #tuples * q0^s.
    """
    return _riemann_sum(n, x, ctx, N, [1] * r)


def riemann_sum_weighted(n: int, h: int, r: int, x: int, ctx: PadicContext, N: int) -> Fraction:
    """Stage-N r-fold sum with the extra per-coordinate weight q0^((h - l) y_l).

    With the measure, coordinate l (one-based) carries the ratio q0^(h - l + 1),
    and composition_weights over those ratios groups the tuples by s = sum y
    exactly, with no enumeration.  Computable for every integer h; only the
    closed-form comparison is restricted to non-degenerate h.
    """
    return _riemann_sum(n, x, ctx, N, [h - l + 1 for l in range(1, r + 1)])


@dataclass
class ConvergenceReport:
    """Per-N valuations of (stage-N sum minus closed form) for one target."""

    family: str
    params: dict
    p: int
    q0: Fraction
    target: str
    points: list
    monotone: bool

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "p": self.p,
            "q0": str(self.q0),
            "points": [[n, "inf" if v == math.inf else v] for n, v in self.points],
            "monotone": self.monotone,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def convergence_report(family: str, params: dict, ctx: PadicContext) -> ConvergenceReport:
    """Compare stage sums against the matching closed form at q0 for N = 1..Nmax."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    n = params["n"]
    x = params.get("x", 0)
    if family == "single":
        r = 1
        closed = beta_higher(n, 1, 1, x)
        target = f"integral of [x + y]^{n} against the q-measure, x = {x}"
    elif family == "multi":
        r = params["r"]
        closed = beta_higher(n, r, 1, x)
        target = f"{r}-fold integral of [x + sum y]^{n}, x = {x}"
    else:
        r = params["r"]
        h = params["h"]
        WeightedBetaQuery(n, h, r, 1, x)
        closed = beta_weighted(n, h, r, 1, x)
        target = f"{r}-fold integral of [x + sum y]^{n} with weight exponent h = {h}, x = {x}"
    closed_val = closed.evaluate(ctx.q0)
    points = []
    for N in range(1, ctx.Nmax + 1):
        if family == "weighted":
            s = riemann_sum_weighted(n, h, r, x, ctx, N)
        else:
            s = riemann_sum_multi(n, r, x, ctx, N)
        points.append((N, p_valuation(s - closed_val, ctx.p)))
    monotone = all(points[i + 1][1] >= points[i][1] for i in range(len(points) - 1))
    return ConvergenceReport(family, dict(params), ctx.p, ctx.q0, target, points, monotone)
