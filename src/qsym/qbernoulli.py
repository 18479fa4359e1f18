"""Closed-form evaluators for the Carlitz q-Bernoulli families.

Both families come from one q-Volkenborn integral whose coordinate k carries
the weight exponent c_k: c = (1, ..., 1) for the order-r polynomials
beta_higher(n, r, w, arg), c = weight_exponents(h, r) = (h, ..., h-r+1) for
the weighted ones beta_weighted(n, h, r, w, arg).  Both are

    (1 / (1 - q^w)^n) * sum_{j=0}^{n} C(n,j) (-1)^j q^(j*arg) prod_k (j+c_k)/[j+c_k]

with every bracket in base q^w; the T-sums give coordinate k the ratio
q^(base(i+c_k)).  A polynomial argument y contributes q^(w*j*y), so w*y must
be the integer ``arg``.  The weighted product is 0/0 when some j+c_k is zero,
hence the domain restriction h > r-1 or h < -n.

classical_bernoulli_higher is an independent oracle for the q -> 1 limits:
exact power series for (t/(e^t - 1))^r * e^(x t), with the ordinary Bernoulli
numbers generated by their additive recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import ratfun
from .qcore import bracket_poly
from .ratfun import LaurentPoly, QsymDomainError, RatFun, ResourceLimitError


class DegenerateWeightError(QsymDomainError):
    """Weighted closed form requested at an h where a factor (j+c_k)/[j+c_k] is 0/0."""


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
            raise QsymDomainError(f"degree n must be >= 0, got {self.n}")
        if self.r < 1:
            raise QsymDomainError(f"order r must be >= 1, got {self.r}")
        if self.w < 1:
            raise QsymDomainError(f"base exponent w must be >= 1, got {self.w}")


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


def weight_exponents(h: int, r: int) -> range:
    """c = (h, h-1, ..., h-r+1), the weight exponents of the weighted (h, r)
    family; a range, so an unbounded r costs nothing before a guard sees it."""
    return range(h, h - r, -1)


def denominator_brackets(n: int, r: int, w: int, h: int | None = None) -> range:
    """The m of the denominator (1-q^w)^n * prod_m [m]^mult: m = 1..n+1 with
    mult = r for beta_higher (h None), the union of the windows j + c with
    mult = 1 for beta_weighted.  Refuses, before any work, a denominator
    spanning more than ratfun.MAX_SPAN: [m] spans w(|m|-1) and no m is 0, so
    sum |m| = |sum m| and the span costs O(1) for any n, r and h."""
    if h is None:
        ms, mult = range(1, n + 2), r
    else:
        c = weight_exponents(h, r)
        ms, mult = range(c[-1], c[0] + n + 1), 1
    span = w * (n + mult * (abs((ms.start + ms.stop - 1) * len(ms)) // 2 - len(ms)))
    if span > ratfun.MAX_SPAN:
        raise ResourceLimitError(
            f"predicted denominator span {span} exceeds the guard MAX_SPAN={ratfun.MAX_SPAN}"
        )
    return ms


def _scaffold(factors: list[LaurentPoly], width: int):
    """Denominator (1-q)^n * prod(factors) and per-term cofactors of a closed
    form in base q whose term j divides by factors[j : j+width],
    n = len(factors) - width.  Cofactor j, the product outside that window, is
    a prefix times a suffix product, so no term needs a division."""
    pre = [LaurentPoly.one()]
    for f in factors:
        pre.append(pre[-1] * f)
    suf = [LaurentPoly.one()]
    for f in reversed(factors):
        suf.append(f * suf[-1])
    suf.reverse()
    n = len(factors) - width
    cof = tuple(pre[j] * suf[j + width] for j in range(n + 1))
    return LaurentPoly({0: 1, 1: -1}) ** n * pre[-1], cof


def _inflate(scaffold, w: int):
    """The base-q^w scaffold from the base-q one: every bracket [m] in base q^w
    is [m] in base q with q -> q^w, so each polynomial is inflated once."""
    den, cof = scaffold
    return den.inflate(w), tuple(c.inflate(w) for c in cof)


@lru_cache(maxsize=None)
def _higher_scaffold(n: int, r: int, w: int):
    """Scaffold of beta_higher(n, r, w, .): factors [m]^r for m = 1..n+1, window width 1."""
    ms = denominator_brackets(n, r, w)  # the span guard runs at base q^w
    if w > 1:
        return _inflate(_higher_scaffold(n, r, 1), w)
    return _scaffold([bracket_poly(m) ** r for m in ms], 1)


@lru_cache(maxsize=None)
def _weighted_scaffold(n: int, h: int, r: int, w: int):
    """Scaffold of beta_weighted(n, h, r, w, .): factors [m] for m = h-r+1..h+n,
    window width r (term j divides by [j + c_k] for every k)."""
    ms = denominator_brackets(n, r, w, h)  # the span guard runs at base q^w
    if w > 1:
        return _inflate(_weighted_scaffold(n, h, r, 1), w)
    return _scaffold([bracket_poly(m) for m in ms], r)


def _closed_form(n: int, arg: int, scaffold, factor) -> RatFun:
    """sum_j C(n,j) (-1)^j factor(j) q^(j arg) cofactor[j] / denominator."""
    den, cof = scaffold
    num = LaurentPoly.zero()
    for j in range(n + 1):
        scalar = math.comb(n, j) * factor(j)
        num = num + cof[j].scale(-scalar if j % 2 else scalar).shift(j * arg)
    return RatFun(num, den)


def beta_higher(n: int, r: int = 1, w: int = 1, arg: int = 0) -> RatFun:
    """Order-r Carlitz q-Bernoulli polynomial in base q^w at scaled argument arg."""
    BetaQuery(n, r, w, arg)
    return _closed_form(n, arg, _higher_scaffold(n, r, w), lambda j: (j + 1) ** r)


def beta_number(n: int) -> RatFun:
    """Carlitz q-Bernoulli number: beta_higher at r=1, w=1, arg=0."""
    return beta_higher(n, 1, 1, 0)


def beta_weighted(n: int, h: int, r: int = 1, w: int = 1, arg: int = 0) -> RatFun:
    """Weighted (h, r) q-Bernoulli polynomial in base q^w at scaled argument arg.

    Uses the telescoped factor product prod_k (j+c_k)/[j+c_k]; raises
    DegenerateWeightError when some factor would be 0/0.
    """
    WeightedBetaQuery(n, h, r, w, arg)
    c = weight_exponents(h, r)
    return _closed_form(n, arg, _weighted_scaffold(n, h, r, w),
                        lambda j: math.prod(j + ck for ck in c))


def composition_weights(ratios, limit: int) -> list:
    """W[s] = sum over j in {0..limit-1}^r with sum j = s of prod_l ratios[l]^(j_l).

    r = len(ratios).  The tuple sum is a product of r geometric windows, so it
    is built one coordinate at a time with the running-window recurrence
    out[s] = z*out[s-1] + W[s] - z^limit * W[s-limit]: O(r * smax) ring
    operations, smax = r(limit-1), over int, Fraction or LaurentPoly.  Unit
    ratios give the number of r-tuples with sum s.
    """
    if limit < 1:
        raise QsymDomainError("composition_weights wants limit >= 1")
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


def _check_t_args(n: int, i: int, r: int, wlim: int, base: int, h: int | None = None) -> tuple:
    """Validate the T-sum arguments and return the ratio exponents base(i+c_k),
    c = (1, ..., 1) for t_sum and weight_exponents(h, r) for t_sum_h.

    Before any work, refuse a sum whose order, composition kernel length
    smax + 1 (smax = r(wlim-1)) or result span exceeds ratfun.MAX_SPAN.  The
    exponents of W[s] lie between (wlim-1) times the sum of the negative ratio
    exponents and (wlim-1) times the sum of the positive ones, and [s]^(n-i)
    in base q^base adds 0 .. base(s-1)(n-i).
    """
    if not 0 <= i <= n:
        raise QsymDomainError(f"need 0 <= i <= n, got i={i}, n={n}")
    if r < 1:
        raise QsymDomainError(f"order r must be >= 1, got {r}")
    if wlim < 1:
        raise QsymDomainError(f"summation limit must be >= 1, got {wlim}")
    if base < 1:
        raise QsymDomainError(f"base exponent must be >= 1, got {base}")
    smax = r * (wlim - 1)
    for what, size in (("order r", r), ("composition kernel length", smax + 1)):
        if size > ratfun.MAX_SPAN:
            raise ResourceLimitError(f"{what} {size} exceeds the guard MAX_SPAN={ratfun.MAX_SPAN}")
    cs = (1,) * r if h is None else weight_exponents(h, r)
    exps = tuple(base * (i + ck) for ck in cs)
    lo = (wlim - 1) * sum(e for e in exps if e < 0)
    hi = (wlim - 1) * sum(e for e in exps if e > 0) + base * max(smax - 1, 0) * (n - i)
    if hi - lo > ratfun.MAX_SPAN:
        raise ResourceLimitError(
            f"predicted exponent span {hi - lo} exceeds the guard MAX_SPAN={ratfun.MAX_SPAN}"
        )
    return exps


def _t_sum_grouped(n: int, i: int, exps: tuple, wlim: int, base: int) -> RatFun:
    """sum over tuples j in {0..wlim-1}^r of [sum j]^(n-i) q^(sum_l exps[l] j_l),
    brackets in base q^base, grouped by s = sum j through composition_weights."""
    acc = LaurentPoly.zero()
    for s, ws in enumerate(q_power_weights(exps, wlim)):
        if n == i:
            acc = acc + ws
        elif s:
            acc = acc + ws * bracket_poly(s, base, n - i)
    return RatFun(acc)


@lru_cache(maxsize=None)
def t_sum(n: int, i: int, r: int, wlim: int, base: int = 1) -> RatFun:
    """The r-fold sum over tuples j in {0..wlim-1}^r of [sum j]^(n-i) q^((i+1) sum j),
    brackets and weights in base q^base.  Convention: [0]^0 = 1.

    Every coordinate carries the ratio q^(base(i+1)), so the tuple sum
    collapses to a sum over s = sum j with composition weights.
    """
    return _t_sum_grouped(n, i, _check_t_args(n, i, r, wlim, base), wlim, base)


@lru_cache(maxsize=None)
def t_sum_h(n: int, i: int, h: int, r: int, wlim: int, base: int = 1) -> RatFun:
    """Weighted T-sum: sum over tuples j of [sum j]^(n-i) q^(base * sum_k (i+c_k) j_k),
    c = weight_exponents(h, r).

    The bracket depends on the tuple only through s = sum j, so the sum is
    grouped by s with composition_weights over the ratios q^(base(i+c_k)),
    exactly as in t_sum.
    """
    return _t_sum_grouped(n, i, _check_t_args(n, i, r, wlim, base, h), wlim, base)


# -- classical (q = 1) oracle -------------------------------------------------


@lru_cache(maxsize=None)
def classical_bernoulli(m: int) -> Fraction:
    """Ordinary Bernoulli number B_m from the additive recurrence
    sum_{l<m+1} C(m+1, l) B_l = 0 (m >= 1), B_0 = 1."""
    if m < 0:
        raise QsymDomainError("Bernoulli index must be >= 0")
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
        raise QsymDomainError("need n >= 0 and r >= 1")
    x = Fraction(x)
    length = n + 1
    base = [classical_bernoulli(m) / math.factorial(m) for m in range(length)]
    series = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(r):
        series = _trunc_conv(series, base, length)
    exp_series = [x**m / math.factorial(m) for m in range(length)]
    series = _trunc_conv(series, exp_series, length)
    return series[n] * math.factorial(n)
