"""Closed-form evaluators for the Carlitz q-Bernoulli families.

Both families come from one q-Volkenborn integral whose coordinate k carries
the weight exponent c_k, read from weights(r, h): c = (1, ..., 1) for the
order-r polynomials beta_higher(n, r, w, arg), c = (h, ..., h-r+1) for the
weighted ones beta_weighted(n, h, r, w, arg).  Both are

    (1 / (1 - q^w)^n) * sum_{j=0}^{n} C(n,j) (-1)^j q^(j*arg) prod_k (j+c_k)/[j+c_k]

with every bracket in base q^w.  A polynomial argument y contributes
q^(w*j*y), so w*y must be the integer ``arg``.  The weighted product is 0/0
when some j+c_k is zero, hence the domain restriction h > r-1 or h < -n.

Every r-fold sum over a box j in {0..L-1}^r rests on one identity, the
geometric window.  Once [x + sum j]^n is expanded binomially in powers of
q^(sum j), a summand q^(sum_k e_k j_k) factors over the coordinates, so

    sum over j in {0..L-1}^r of q^(sum_k e_k j_k) = prod_k sum_{t<L} q^(e_k t),

and each window is [L] in base q^e for e >= 1, q^(e(L-1)) [L] in base q^-e
for e < 0 and the constant L for e = 0 (window_product).  The T-sums expand
[s]^(n-i) = (1-q^base)^-(n-i) sum_m C(n-i,m) (-1)^m q^(base m s), so T(s, s)
is a window product and T(n,i) (1-q^base)^(n-i) = sum_m C(n-i,m) (-1)^m
T(i+m, i+m); the base-swap sides substitute window products for the powers
q^(j arg) of a closed form (closed_form is linear in them); the Volkenborn
stage sums use the same windows at a rational point.

classical_bernoulli_higher is an independent oracle for the q -> 1 limits:
exact power series for (t/(e^t - 1))^r * e^(x t), with the ordinary Bernoulli
numbers generated by their additive recurrence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import ratfun
from .qcore import bracket_poly
from .ratfun import LaurentPoly, QsymDomainError, RatFun, ResourceLimitError

_ONE_MINUS_Q = LaurentPoly({0: 1, 1: -1})


class DegenerateWeightError(QsymDomainError):
    """Weighted closed form requested at an h where a factor (j+c_k)/[j+c_k] is 0/0."""


class BetaQuery(namedtuple("BetaQuery", "n r w arg", defaults=(1, 1, 0))):
    """Parameters of one higher-order evaluation: degree n, order r, base q^w,
    scaled argument arg.  An immutable named tuple, checked on construction."""

    __slots__ = ()

    def __new__(cls, n: int, r: int = 1, w: int = 1, arg: int = 0):
        if n < 0:
            raise QsymDomainError(f"degree n must be >= 0, got {n}")
        if r < 1:
            raise QsymDomainError(f"order r must be >= 1, got {r}")
        if w < 1:
            raise QsymDomainError(f"base exponent w must be >= 1, got {w}")
        return super().__new__(cls, n, r, w, arg)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks again
        return cls(*iterable)


class WeightedBetaQuery(namedtuple("WeightedBetaQuery", "n h r w arg", defaults=(1, 1, 0))):
    """Parameters of one weighted evaluation; h is the integer weight."""

    __slots__ = ()

    def __new__(cls, n: int, h: int, r: int = 1, w: int = 1, arg: int = 0):
        BetaQuery(n, r, w, arg)
        if not (h > r - 1 or h < -n):
            raise DegenerateWeightError(
                f"h={h} is degenerate for n={n}, r={r}: "
                f"some factor j+h-k with 0<=j<={n}, 0<=k<{r} is zero"
            )
        return super().__new__(cls, n, h, r, w, arg)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def weights(r: int, h: int | None = None) -> tuple:
    """c as (exps, mult), each exponent of the range exps taken mult times, for the
    order-r (h None) or weighted (h, r) family; nothing of length r is built, so an
    unbounded r costs nothing before a guard sees it."""
    if h is None:
        return range(1, 2), r
    return range(h, h - r, -1), 1


def denominator_brackets(n: int, r: int, w: int, h: int | None = None) -> range:
    """The m of the denominator (1-q^w)^n * prod_m [m]^mult, (exps, mult) =
    weights(r, h): the union of the windows j + exps over j = 0..n.  Refuses,
    before any work, a denominator spanning more than ratfun.MAX_SPAN: [m]
    spans w(|m|-1) and no m is 0, so sum |m| = |sum m| and the span costs O(1)
    for any n, r and h."""
    exps, mult = weights(r, h)
    ms = range(exps[-1], exps[0] + n + 1)
    span = w * (n + mult * (abs((ms.start + ms.stop - 1) * len(ms)) // 2 - len(ms)))
    ratfun.check_span(span, "predicted denominator")
    return ms


def numerator_span_guard(n: int, r: int, w: int, arg: int) -> None:
    """Refuse, before any work, a beta_higher(n, r, w, arg) whose numerator
    spans more than ratfun.MAX_SPAN.  Term j is q^(j arg) times a cofactor of
    degree w r (T - j), T = n(n+1)/2, so the span is w r T + max(0, n (arg - w r))
    for arg >= 0 and w r T + n |arg| for arg < 0: it grows with n, r, w and |arg|."""
    span = w * r * n * (n + 1) // 2 + max(0, n * (arg - w * r)) - min(0, n * arg)
    ratfun.check_span(span, "predicted numerator")


def _term_scalars(n: int, r: int, h: int | None = None) -> list:
    """(-1)^j C(n,j) prod_k (j+c_k) for j = 0..n: the scalar of closed-form term j."""
    exps, mult = weights(r, h)
    return [(-1) ** j * math.comb(n, j) * math.prod(range(j + exps[-1], j + exps[0] + 1)) ** mult
            for j in range(n + 1)]


def _closed_value(n: int, r: int, x: int, q0: Fraction, h: int | None = None) -> Fraction:
    """The order-r (h None) or weighted (h, r) closed form in base q at argument
    x, valued at q = q0 = a/b (q0 not 0, 1 or -1) with no polynomial built:

        (1-q0)^-n sum_j scalar_j q0^(j x) prod_k (1-q0)/(1-q0^(j+c_k)).

    With e = j + c_k and k = |e|, a factor is (b-a) b^(k-1) / (b^k - a^k) for
    e > 0 and -(b-a) a^k / (b (b^k - a^k)) for e < 0.  Term j is num / den times
    a^i b^l, its dens meet in one lcm, and the sum ends in one Fraction: O(n r)
    integer operations.  The RatFun of beta_higher / beta_weighted is its
    oracle.  It validates its query and reads c from weights, as the oracle
    does, although a convergence report has done both already; the size of
    a^i b^l is bounded only by the report's stage-size guard."""
    BetaQuery(n, r, 1, x) if h is None else WeightedBetaQuery(n, h, r, 1, x)
    exps, mult = weights(r, h)
    a, b = q0.numerator, q0.denominator
    terms = []  # (num, den, i, l): num / den * a^i b^l
    for j, scalar in enumerate(_term_scalars(n, r, h)):
        num, den, i, l = scalar, 1, j * x, n - j * x  # q0^(j x) b^n / (b-a)^n
        for c in exps:
            e = j + c
            k = abs(e)
            den *= (b**k - a**k) ** mult
            if e > 0:
                l += mult * (k - 1)
            else:
                num, i, l = (-1) ** mult * num, i + mult * k, l - mult
        terms.append((num, den, i, l))
    lcm = math.lcm(*(t[1] for t in terms))
    low_i, low_l = min(t[2] for t in terms), min(t[3] for t in terms)
    total = sum(num * (lcm // den) * a ** (i - low_i) * b ** (l - low_l)
                for num, den, i, l in terms)
    return Fraction(total * (b - a) ** max(r - n, 0) * a ** max(low_i, 0) * b ** max(low_l, 0),
                    lcm * (b - a) ** max(n - r, 0) * a ** max(-low_i, 0) * b ** max(-low_l, 0))


def _scaffold(ms: range, n: int, r: int, h: int | None):
    """Denominator (1-q)^n * prod_(m in ms) [m]^mult and per-term cofactors of the
    closed form in base q, (exps, mult) = weights(r, h): term j divides by the
    len(exps) factors from [ms[j]]^mult on.  Cofactor j, the product outside that
    window, is a prefix times a suffix product, so no term needs a division.  The
    cofactors share the width that holds their sum with the term scalars, so a
    closed form at a monomial argument re-widths none of them."""
    exps, mult = weights(r, h)
    factors = [bracket_poly(m, 1, mult) for m in ms]
    pre = [LaurentPoly.one()]
    for f in factors:
        pre.append(pre[-1] * f)
    suf = [LaurentPoly.one()]
    for f in reversed(factors):
        suf.append(f * suf[-1])
    suf.reverse()
    cof = ratfun.common_width([pre[j] * suf[j + len(exps)] for j in range(n + 1)],
                              (sum(map(abs, _term_scalars(n, r, h))) - 1).bit_length())
    return _ONE_MINUS_Q ** n * pre[-1], tuple(cof)


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
    return _scaffold(ms, n, r, None)


@lru_cache(maxsize=None)
def _weighted_scaffold(n: int, h: int, r: int, w: int):
    """Scaffold of beta_weighted(n, h, r, w, .): factors [m] for m = h-r+1..h+n,
    window width r (term j divides by [j + c_k] for every k)."""
    ms = denominator_brackets(n, r, w, h)  # the span guard runs at base q^w
    if w > 1:
        return _inflate(_weighted_scaffold(n, h, r, 1), w)
    return _scaffold(ms, n, r, h)


def closed_form(n: int, r: int, w: int, power, h: int | None = None) -> RatFun:
    """The order-r (h None) or weighted (h, r) closed form in base q^w with the
    Laurent polynomial power(j) in place of q^(j arg):

        sum_j C(n,j) (-1)^j power(j) prod_k (j+c_k) cofactor[j] / denominator.

    It is linear in power, so a sum of closed forms over several arguments is
    one call whose power(j) sums their monomials.  The n+1 terms are summed by
    one ratfun.linear_combination; a one-digit power(j) = c q^s folds into the
    term's scalar and shift, any other multiplies its cofactor first."""
    if h is None:
        BetaQuery(n, r, w)
        den, cof = _higher_scaffold(n, r, w)
    else:
        WeightedBetaQuery(n, h, r, w)
        den, cof = _weighted_scaffold(n, h, r, w)
    terms = []
    for j, scalar in enumerate(_term_scalars(n, r, h)):
        p = power(j)
        if p.n == 1:  # p = (P / den) q^lo
            k = scalar * p.P if p.den == 1 else Fraction(scalar * p.P, p.den)
            terms.append((k, p.lo, cof[j]))
        else:
            terms.append((scalar, 0, cof[j] * p))
    return RatFun(ratfun.linear_combination(terms), den)


def _monomials(arg: int):
    """power(j) = q^(j arg), the powers of a closed form at one argument."""
    return lambda j: LaurentPoly.one().shift(j * arg)


def beta_higher(n: int, r: int = 1, w: int = 1, arg: int = 0) -> RatFun:
    """Order-r Carlitz q-Bernoulli polynomial in base q^w at scaled argument arg."""
    return closed_form(n, r, w, _monomials(arg))


def beta_number(n: int) -> RatFun:
    """Carlitz q-Bernoulli number: beta_higher at r=1, w=1, arg=0."""
    return beta_higher(n, 1, 1, 0)


def beta_weighted(n: int, h: int, r: int = 1, w: int = 1, arg: int = 0) -> RatFun:
    """Weighted (h, r) q-Bernoulli polynomial in base q^w at scaled argument arg.

    Uses the telescoped factor product prod_k (j+c_k)/[j+c_k]; raises
    DegenerateWeightError when some factor would be 0/0.
    """
    return closed_form(n, r, w, _monomials(arg), h)


def window_product(limit: int, exps, mult: int) -> LaurentPoly:
    """prod_k sum_{t<limit} q^(e_k t) over the exponents e_k, each e of exps
    taken mult times, limit >= 1: the geometric windows of the module
    docstring.  The mult windows of one exponent are one cached bracket power."""
    out = LaurentPoly.one()
    for e in exps:
        if e:
            out = out * bracket_poly(limit, abs(e), mult).shift(min(e, 0) * (limit - 1) * mult)
        else:
            out = out.scale(limit**mult)
    return out


def _check_t_args(n: int, i: int, r: int, wlim: int, base: int, h: int | None = None) -> tuple:
    """Validate the T-sum arguments and return the ratio exponents base(i+c_k)
    as (exps, mult), c read from weights(r, h): h None for t_sum.

    Before any work, refuse a sum whose order r or predicted span exceeds
    ratfun.MAX_SPAN.  The span is that of the largest polynomial built, the
    numerator of _t_sum_grouped: its term m is a product of windows over the
    exponents e_k + base m, which lies between (wlim-1) times the sum of the
    negative e_k and (wlim-1) times the sum of the positive e_k plus
    base r (wlim-1) m, m <= n-i, so it spans (wlim-1) sum |e_k| + base r (wlim-1)(n-i).
    The divisor (1-q^base)^(n-i) spans base(n-i), which the bound also covers when wlim = 1.
    """
    if not 0 <= i <= n:
        raise QsymDomainError(f"need 0 <= i <= n, got i={i}, n={n}")
    if r < 1:
        raise QsymDomainError(f"order r must be >= 1, got {r}")
    if wlim < 1:
        raise QsymDomainError(f"summation limit must be >= 1, got {wlim}")
    if base < 1:
        raise QsymDomainError(f"base exponent must be >= 1, got {base}")
    if r > ratfun.MAX_SPAN:
        raise ResourceLimitError(f"order r {r} exceeds the guard MAX_SPAN={ratfun.MAX_SPAN}")
    c, mult = weights(r, h)
    exps = tuple(base * (i + ck) for ck in c)
    span = (wlim - 1) * mult * sum(map(abs, exps)) + base * max(r * (wlim - 1), 1) * (n - i)
    ratfun.check_span(span, "predicted exponent")
    return exps, mult


def _t_sum_grouped(n: int, i: int, exps: tuple, mult: int, wlim: int, base: int) -> RatFun:
    """sum over tuples j in {0..wlim-1}^r of [sum j]^(n-i) q^(sum_k e_k j_k), each
    e of exps taken mult times as an e_k, brackets in base q^base.  With [s]^(n-i)
    expanded binomially in q^(base s), the tuple sum groups by the binomial index m
    into window products over the exponents e_k + base m, and one exact division
    by (1-q^base)^(n-i) follows; [0]^0 = 1 is the m = 0 term of n = i."""
    num = ratfun.linear_combination(
        ((-1) ** m * math.comb(n - i, m), 0,
         window_product(wlim, [e + base * m for e in exps], mult))
        for m in range(n - i + 1))
    return RatFun(num.exact_div((_ONE_MINUS_Q ** (n - i)).inflate(base)))


@lru_cache(maxsize=None)
def t_sum(n: int, i: int, r: int, wlim: int, base: int = 1) -> RatFun:
    """The r-fold sum over tuples j in {0..wlim-1}^r of [sum j]^(n-i) q^((i+1) sum j),
    brackets and weights in base q^base.  Convention: [0]^0 = 1.

    Every coordinate carries the ratio q^(base(i+1)), so each window product
    of _t_sum_grouped is one cached bracket power.
    """
    return _t_sum_grouped(n, i, *_check_t_args(n, i, r, wlim, base), wlim, base)


@lru_cache(maxsize=None)
def t_sum_h(n: int, i: int, h: int, r: int, wlim: int, base: int = 1) -> RatFun:
    """Weighted T-sum: sum over tuples j of [sum j]^(n-i) q^(base * sum_k (i+c_k) j_k),
    c = (h, ..., h-r+1).

    The same window expansion as t_sum, over the ratios q^(base(i+c_k)); a
    zero exponent (i + c_k = 0) contributes the constant window wlim.
    """
    return _t_sum_grouped(n, i, *_check_t_args(n, i, r, wlim, base, h), wlim, base)


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
