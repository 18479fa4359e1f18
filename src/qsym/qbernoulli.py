"""Closed-form evaluators for the Carlitz q-Bernoulli families.

beta_higher(n, r, w, arg) is the order-r Carlitz q-Bernoulli polynomial in
base q^w, written as the alternating binomial sum

    (1 / (1 - q^w)^n) * sum_{l=0}^{n} C(n,l) (-1)^l q^(l*arg) ((l+1)/[l+1])^r

with every bracket taken in base q^w.  The integer ``arg`` is the scaled
polynomial argument: a polynomial argument y contributes q^(w*l*y), so we
require w*y to be the integer ``arg`` and exponents stay integral.

beta_weighted adds an integer weight parameter h; its l-th bracket factor
becomes the telescoped product over (j+h-k)/[j+h-k], which leaves the
rational-function field when some j+h-k is zero, hence the domain
restriction h > r-1 or h < -n.

classical_bernoulli_higher is an independent oracle for the q -> 1 limits:
exact power series for (t/(e^t - 1))^r * e^(x t), with the ordinary Bernoulli
numbers generated by their additive recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qcore import bracket_poly
from .ratfun import LaurentPoly, RatFun, ResourceLimitError

# Largest index-tuple grid wlim**r that t_sum_h accepts, checked before any work.
MAX_TUPLES = 200_000


class DegenerateWeightError(ValueError):
    """Weighted closed form requested at an h where a factor (j+h-k)/[j+h-k] is 0/0."""


@dataclass(frozen=True)
class BetaQuery:
    """Parameters of one higher-order evaluation: degree n, order r, base q^w,
    scaled argument arg."""

    n: int
    r: int = 1
    w: int = 1
    arg: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree n must be >= 0, got {self.n}")
        if self.r < 1:
            raise ValueError(f"order r must be >= 1, got {self.r}")
        if self.w < 1:
            raise ValueError(f"base exponent w must be >= 1, got {self.w}")


@dataclass(frozen=True)
class WeightedBetaQuery:
    """Parameters of one weighted evaluation; h is the integer weight."""

    n: int
    h: int
    r: int = 1
    w: int = 1
    arg: int = 0

    def __post_init__(self):
        BetaQuery(self.n, self.r, self.w, self.arg)
        if not (self.h > self.r - 1 or self.h < -self.n):
            raise DegenerateWeightError(
                f"h={self.h} is degenerate for n={self.n}, r={self.r}: "
                f"some factor j+h-k with 0<=j<={self.n}, 0<=k<{self.r} is zero"
            )


def _one_minus_qw(w: int) -> LaurentPoly:
    return LaurentPoly({0: 1, w: -1})


def _pre_suf(factors: list[LaurentPoly]) -> tuple[list, list]:
    """Prefix and suffix products; pre[i] = f0*...*fi, suf[i] = fi*...*f_last."""
    pre = []
    acc = LaurentPoly.one()
    for f in factors:
        acc = acc * f
        pre.append(acc)
    suf = [None] * len(factors)
    acc = LaurentPoly.one()
    for i in range(len(factors) - 1, -1, -1):
        acc = factors[i] * acc
        suf[i] = acc
    return pre, suf


@lru_cache(maxsize=None)
def _higher_scaffold(n: int, r: int, w: int):
    """Common denominator and per-term cofactors for beta_higher(n, r, w, .).

    denominator = (1-q^w)^n * prod_{l=1..n} [l+1]^r
    cofactor[l] = prod_{l' != l} [l'+1]^r   (so term l needs no division)
    """
    powers = [bracket_poly(l + 1, w) ** r for l in range(1, n + 1)]
    pre, suf = _pre_suf(powers)
    full = pre[-1] if powers else LaurentPoly.one()
    cof = [full]
    for l in range(1, n + 1):
        left = pre[l - 2] if l >= 2 else LaurentPoly.one()
        right = suf[l] if l <= n - 1 else LaurentPoly.one()
        cof.append(left * right)
    den = _one_minus_qw(w) ** n * full
    return den, tuple(cof)


def beta_higher(n: int, r: int = 1, w: int = 1, arg: int = 0) -> RatFun:
    """Order-r Carlitz q-Bernoulli polynomial in base q^w at scaled argument arg."""
    BetaQuery(n, r, w, arg)
    den, cof = _higher_scaffold(n, r, w)
    num: dict = {}
    for l in range(n + 1):
        scalar = math.comb(n, l) * (l + 1) ** r
        if l % 2:
            scalar = -scalar
        shift = l * arg
        for e, c in cof[l].terms.items():
            e += shift
            s = num.get(e, 0) + scalar * c
            if s:
                num[e] = s
            else:
                del num[e]
    return RatFun(LaurentPoly(num), den)


def beta_number(n: int) -> RatFun:
    """Carlitz q-Bernoulli number: beta_higher at r=1, w=1, arg=0."""
    return beta_higher(n, 1, 1, 0)


@lru_cache(maxsize=None)
def _weighted_scaffold(n: int, h: int, r: int, w: int):
    """Common denominator and cofactors for beta_weighted(n, h, r, w, .).

    Term j carries the bracket window [j+h-r+1 .. j+h]; the union over j is
    the range [h-r+1 .. h+n] with each bracket appearing once, so
    denominator = (1-q^w)^n * prod_{m in range} [m] and cofactor[j] is the
    product outside the window.
    """
    ms = list(range(h - r + 1, h + n + 1))
    brackets = [bracket_poly(m, w) for m in ms]
    pre, suf = _pre_suf(brackets)
    full = pre[-1] if brackets else LaurentPoly.one()
    cof = []
    for j in range(n + 1):
        left = pre[j - 1] if j >= 1 else LaurentPoly.one()
        right = suf[j + r] if j + r < len(brackets) else LaurentPoly.one()
        cof.append(left * right)
    den = _one_minus_qw(w) ** n * full
    return den, tuple(cof)


def beta_weighted(n: int, h: int, r: int = 1, w: int = 1, arg: int = 0) -> RatFun:
    """Weighted (h, r) q-Bernoulli polynomial in base q^w at scaled argument arg.

    Uses the telescoped factor product prod_k (j+h-k)/[j+h-k]; raises
    DegenerateWeightError when some factor would be 0/0.
    """
    WeightedBetaQuery(n, h, r, w, arg)
    den, cof = _weighted_scaffold(n, h, r, w)
    num: dict = {}
    for j in range(n + 1):
        scalar = math.comb(n, j)
        for k in range(r):
            scalar *= j + h - k
        if j % 2:
            scalar = -scalar
        if not scalar:
            continue
        shift = j * arg
        for e, c in cof[j].terms.items():
            e += shift
            s = num.get(e, 0) + scalar * c
            if s:
                num[e] = s
            else:
                del num[e]
    return RatFun(LaurentPoly(num), den)


def composition_weights(ratios, limit: int) -> list:
    """W[s] = sum over j in {0..limit-1}^r with sum j = s of prod_l ratios[l]^(j_l).

    r = len(ratios).  The tuple sum is a product of r geometric windows, so it
    is built one coordinate at a time with the running-window recurrence
    out[s] = z*out[s-1] + W[s] - z^limit * W[s-limit]: O(r * smax) ring
    operations, smax = r(limit-1), over int, Fraction or LaurentPoly.  Unit
    ratios give the number of r-tuples with sum s.
    """
    if limit < 1:
        raise ValueError("composition_weights wants limit >= 1")
    weights = [ratios[0] ** 0 if ratios else 1]
    for z in ratios:
        z_limit = z**limit
        out = [weights[0]]
        for s in range(1, len(weights) + limit - 1):
            v = z * out[s - 1]
            if s < len(weights):
                v = v + weights[s]
            if s >= limit:
                v = v - z_limit * weights[s - limit]
            out.append(v)
        weights = out
    return weights


def q_power_weights(exps, limit: int) -> list[LaurentPoly]:
    """composition_weights over the monomial ratios q^e, e in exps."""
    return composition_weights([LaurentPoly({e: 1}) for e in exps], limit)


def _check_t_args(n: int, i: int, r: int, wlim: int, base: int) -> None:
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    if wlim < 1:
        raise ValueError(f"summation limit must be >= 1, got {wlim}")
    if base < 1:
        raise ValueError(f"base exponent must be >= 1, got {base}")


def _t_sum_grouped(n: int, i: int, exps: tuple, wlim: int, base: int) -> RatFun:
    """sum over tuples j in {0..wlim-1}^r of [sum j]^(n-i) q^(sum_l exps[l] j_l),
    brackets in base q^base, grouped by s = sum j through composition_weights."""
    acc: dict = {}
    for s, ws in enumerate(q_power_weights(exps, wlim)):
        if n == i:
            p = {0: 1}
        elif s == 0:
            continue
        else:
            p = (bracket_poly(s, base) ** (n - i)).terms
        for e1, c1 in ws.terms.items():
            for e2, c2 in p.items():
                e = e1 + e2
                v = acc.get(e, 0) + c1 * c2
                if v:
                    acc[e] = v
                else:
                    del acc[e]
    return RatFun(LaurentPoly(acc))


@lru_cache(maxsize=None)
def t_sum(n: int, i: int, r: int, wlim: int, base: int = 1) -> RatFun:
    """The r-fold sum over tuples j in {0..wlim-1}^r of [sum j]^(n-i) q^((i+1) sum j),
    brackets and weights in base q^base.  Convention: [0]^0 = 1.

    Every coordinate carries the ratio q^(base(i+1)), so the tuple sum
    collapses to a sum over s = sum j with composition weights.
    """
    _check_t_args(n, i, r, wlim, base)
    return _t_sum_grouped(n, i, (base * (i + 1),) * r, wlim, base)


@lru_cache(maxsize=None)
def t_sum_h(n: int, i: int, h: int, r: int, wlim: int, base: int = 1) -> RatFun:
    """Weighted T-sum: sum over tuples j of [sum j]^(n-i) q^(base * sum_l (i+h-l+1) j_l).

    The weight gives coordinate l (one-based) the ratio q^(base(i+h-l+1)); the
    bracket depends on the tuple only through s = sum j, so the sum is grouped
    by s with composition_weights over those ratios, exactly as in t_sum.
    """
    _check_t_args(n, i, r, wlim, base)
    if wlim**r > MAX_TUPLES:
        raise ResourceLimitError(f"{wlim}^{r} index tuples exceed MAX_TUPLES={MAX_TUPLES}")
    return _t_sum_grouped(n, i, tuple(base * (i + h - l) for l in range(r)), wlim, base)


# -- classical (q = 1) oracle -------------------------------------------------


@lru_cache(maxsize=None)
def classical_bernoulli(m: int) -> Fraction:
    """Ordinary Bernoulli number B_m from the additive recurrence
    sum_{l<m+1} C(m+1, l) B_l = 0 (m >= 1), B_0 = 1."""
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for l in range(m):
        total += math.comb(m + 1, l) * classical_bernoulli(l)
    return -total / (m + 1)


def _trunc_conv(a: list[Fraction], b: list[Fraction], length: int) -> list[Fraction]:
    out = [Fraction(0)] * length
    for i, x in enumerate(a):
        if i >= length or not x:
            continue
        for j, y in enumerate(b):
            if i + j >= length:
                break
            out[i + j] += x * y
    return out


def classical_bernoulli_higher(n: int, r: int, x) -> Fraction:
    """Higher-order Bernoulli polynomial value: n! times the t^n coefficient of
    (t/(e^t - 1))^r * e^(x t), computed by exact truncated power series."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    x = Fraction(x)
    length = n + 1
    base = [classical_bernoulli(m) / math.factorial(m) for m in range(length)]
    series = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(r):
        series = _trunc_conv(series, base, length)
    exp_series = [x**m / math.factorial(m) for m in range(length)]
    series = _trunc_conv(series, exp_series, length)
    return series[n] * math.factorial(n)
