"""Finite-N q-Volkenborn Riemann sums with p-adic valuation tracking.

For a prime p, a rational q0 close to 1 in the p-adic sense, and N >= 1, the
stage-N sum over r coordinates, with brackets at q = q0 and c = (1, ..., 1)
(unweighted) or c = (h, ..., h-r+1) (weighted), read from qbernoulli.weights, is

    S_N = (1 / [p^N])^r * sum over y in {0..p^N-1}^r of [x + sum y]^n * q0^(sum c_k y_k).

Expanding [x + s]^n binomially in q0^s gives each coordinate one geometric
window (the identity stated in the qsym.qbernoulli docstring, here at q = q0):
with M = p^N and Q = q0^M,

    S_N = (1-q0)^(r-n) / (1-Q)^r * sum_{m=0..n} C(n,m) (-1)^m q0^(m x) prod_k G(m + c_k),

G(e) = (1-Q^e) / (1-q0^e) and G(0) = M.  With q0 = a/b, A = a^M and B = b^M the
stage is built in integers.  For k = |e| >= 1, B^k - A^k = (B - A) K_k with K_k =
sum_{t<k} A^t B^(k-1-t), so G(e) = (B - A) K_k / (b^k - a^k) over a^(k(M-1)) if
e < 0 or b^(e(M-1)) if e > 0, and the r factors B - A cancel 1/(1-Q)^r =
B^r / (B - A)^r; only a zero window of a degenerate h keeps one.  The K_k are
products alone, powers of a and b stay exponents, the small b^k - a^k meet in one
lcm, and O(n r) products of numbers of about (n + max|c_k|) p^N log2 height(q0)
bits end in one Fraction, over a few dozen bits for b = 1 and no zero window.
Convergence to the matching closed form is certified by the p-adic valuations
of S_N minus the closed-form value being nondecreasing in N.  A report has no
zero window (WeightedBetaQuery refuses a degenerate h), so with [e]_Q =
(1-Q^e) / (1-Q), which is 1 + ... + Q^(e-1) for e > 0 and -(Q^e + ... + Q^-1)
for e < 0, every window is (1-Q) [e]_Q / (1-q0^e), the (1-Q)^r cancels, and

    S_N = P(Q) = (1-q0)^(r-n) sum_m C(n,m) (-1)^m q0^(m x) prod_k [m+c_k]_Q / (1-q0^(m+c_k))

for one Laurent polynomial P that does not depend on N; the closed value is P(1).
A report builds P once (_stage_polynomial): each bracket product is a sliding sum
of small integers, the small b^k - a^k meet in one exact lcm, the scale, and the
powers of a and b are taken mod p^K, K = Nmax + 64 + v_p(scale) + v_p(d), d the
closed value's denominator.  It subtracts the closed value and reads every stage
N from that one polynomial R as B^deg R(A/B) mod p^K by homogeneous Horner:
O(deg P) operations on numbers of K digits in base p, deg P being about
r (n + max|c_k|).  a and b are p-adic units, as v_p(1 - q0) >= 1, so a nonzero
residue has the valuation of the integer; a zero one means S_N agrees with the
closed value to Nmax + 64 digits, and the report then builds the stage exactly,
as an unreduced numerator and denominator, since for b != 1 the reduced
Fraction's gcd would cost more than the stage itself.  The closed value P(1) is
the integer stage sum at M = 0, where A = B = 1 and K_k = k (_stage_sum: O(n r)
products of powers of a, b and b - a, one lcm, one Fraction), with no rational
function built.  P shares nothing with it but the definition of c (weights), so
each residue valuation compares two independent computations; only the exact
fallback, where P's residue has vanished, reads S_N and P(1) from one kernel.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .qbernoulli import WeightedBetaQuery, weights
from .ratfun import QsymDomainError, ResourceLimitError

FAMILIES = ("single", "multi", "weighted")

# Largest predicted size, in bits, of the numbers an exact stage sum builds.  At
# p = 5, q0 = 6 the single family needs 0.70M bits for n = 2, N = 7, 1.4M for n = 5
# and 2.6M for n = 10, whose exact stages take 0.02, 0.10 and 0.50 s on a shared
# 2-core machine (CPython 3.11): the products that build the windows K_k, not a gcd,
# cost superlinearly in this size, and no budget on index tuples bounds it.  A
# report reads its stages from one stage polynomial mod p^K, in 0.13 ms for n = 2
# and 0.18 ms for n = 5 at Nmax = 7, and builds a stage exactly only as the
# fallback, which this guard bounds.  An argument x adds the powers q0^(m x): the
# weighted report n = 2, h = 2, r = 1, N = 1, x = -300000 needs 1.8M bits and takes
# 1.4 s, nearly all of it the closed value's gcd (its exact stage takes 0.26 s).
MAX_STAGE_BITS = 2_000_000

# p-adic digits of S_N minus the closed value, past Nmax, that a report reads: its
# precision is K = Nmax + this + v_p(scale) + v_p(d) (see convergence_report).  The
# count only decides where a report falls back to the exact stage.
_RESIDUE_DIGITS = 64


# The first 13 primes: as Miller-Rabin bases they decide every p < PSI_13
# (Sorenson and Webster, 2015); bases 2..37 alone stop near 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p >= PSI_13 is refused, not guessed."""
    if p >= PSI_13:
        raise ResourceLimitError(f"p = {p} is past the primality bound {PSI_13}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in _MR_BASES:
        ys = [pow(a, (p - 1) >> t, p) for t in range(s, 0, -1)]  # a^d, a^(2d), ..., a^(2^(s-1) d)
        if ys[0] != 1 and p - 1 not in ys:
            return False
    return True


def p_valuation(r: Fraction, p: int):
    """Exponent of p in the rational r; +inf for zero."""
    if not is_prime(p):
        raise QsymDomainError(f"{p} is not prime")
    r = Fraction(r)
    if r == 0:
        return math.inf
    return _int_valuation(r.numerator, p) - _int_valuation(r.denominator, p)


def _int_valuation(k: int, p: int) -> int:
    """Exponent of p in the nonzero integer k; 0, of infinite exponent, raises."""
    if not k:
        raise ZeroDivisionError("the p-adic valuation of 0 is infinite")
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def default_q0(p: int) -> Fraction:
    """Smallest convenient q0 with v_p(1 - q0) large enough: 1 + p, except 5 for p = 2."""
    return Fraction(5) if p == 2 else Fraction(1 + p)


class PadicContext(namedtuple("PadicContext", "p q0 Nmax budget", defaults=(None, 4, 10**6))):
    """Prime p, evaluation point q0 with v_p(1 - q0) >= 1 (>= 2 for p = 2),
    largest stage Nmax, and a budget on the p^(r N) index tuples a stage sum
    stands for; the closed form never visits them, so it no longer tracks cost
    (MAX_STAGE_BITS bounds that).  q0 = None means default_q0(p)."""

    __slots__ = ()

    def __new__(cls, p: int, q0: Fraction = None, Nmax: int = 4, budget: int = 10**6):
        if budget < 1:  # a bad parameter, not a stage too large for it
            raise QsymDomainError(f"budget must be >= 1, got {budget}")
        if p > budget:  # refuses every stage (r N >= 1)
            raise ResourceLimitError(f"p = {p} exceeds the budget {budget}")
        if not is_prime(p):
            raise QsymDomainError(f"p = {p} is not prime")
        q0 = default_q0(p) if q0 is None else Fraction(q0)
        need = 2 if p == 2 else 1
        if q0 == 1:  # the stage sums divide by 1 - q0
            raise QsymDomainError("q0 = 1 is excluded: the stage sums divide by 1 - q0")
        a, b = q0.numerator, q0.denominator
        if _int_valuation(b - a, p) - _int_valuation(b, p) < need:  # v_p(1 - q0)
            raise QsymDomainError(f"q0 = {q0} too far from 1: need v_{p}(1 - q0) >= {need}")
        if Nmax < 1:
            raise QsymDomainError("Nmax must be >= 1")
        return super().__new__(cls, p, q0, Nmax, budget)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks again
        return cls(*iterable)


def _check_budget(ctx: PadicContext, r: int, N: int) -> int:
    """Refuse a stage sum that stands for more than ctx.budget index tuples,
    p^(r N), which bounds its meaning and no longer its cost; return p^N.
    p^(r N) > budget exactly when r N > k, the largest k with p^k <= budget."""
    k, power = 0, ctx.p
    while power <= ctx.budget:
        k, power = k + 1, power * ctx.p
    if r * N > k:
        raise ResourceLimitError(
            f"summation grid p^(r*N) = {ctx.p}^({r * N}) exceeds the budget {ctx.budget}"
        )
    return ctx.p**N


def _check_stage(ctx: PadicContext, n: int, r: int, x: int, exps: range, N: int) -> int:
    """Refuse stage N before it is built, by ctx.budget and then by MAX_STAGE_BITS,
    and return p^N.  Its numbers take about r (n + max|c_k|) p^N + n |x| times
    the bit length of q0's larger term, the n |x| being the powers q0^(m x) that
    the stage and the closed value both build; both bounds grow with N, so a
    report checks its deepest stage first."""
    if not 1 <= N <= ctx.Nmax:
        raise QsymDomainError(f"N must be in 1..{ctx.Nmax}")
    if n < 0 or r < 1:
        raise QsymDomainError("need n >= 0 and r >= 1")
    size = _check_budget(ctx, r, N)
    height = max(abs(ctx.q0.numerator), ctx.q0.denominator).bit_length()
    bits = (r * (n + max(abs(exps[0]), abs(exps[-1]))) * size + n * abs(x)) * height
    if bits > MAX_STAGE_BITS:
        raise ResourceLimitError(
            f"stage N = {N} builds numbers of about {bits} bits, over the guard "
            f"MAX_STAGE_BITS={MAX_STAGE_BITS}"
        )
    return size


def _windows(a: int, b: int, big_a: int, big_b: int, size: int, lo: int, hi: int) -> dict:
    """G(e) = (B - A)^(1-z) M^z K / (d a^i b^j) for lo <= e <= hi as (K, d, z, i, j):
    K_k and d = b^k - a^k with k = |e| (K_0 = 0, K_(k+1) = A K_k + B^k), or z = 1 at e = 0."""
    ks, big_bk = [0], 1
    for _ in range(max(-lo, hi)):
        ks.append(big_a * ks[-1] + big_bk)
        big_bk *= big_b
    return {e: (ks[abs(e)], b ** abs(e) - a ** abs(e), 0, max(-e, 0) * (size - 1),
                max(e, 0) * (size - 1)) if e else (size, 1, 1, 0, 0) for e in range(lo, hi + 1)}


def _riemann_sum(n: int, x: int, ctx: PadicContext, N: int, exps: range, mult: int) -> tuple:
    """S_N of the module docstring, c being each exponent of exps taken mult
    times (r = mult * len(exps)), once _check_stage admits stage N: the
    unreduced pair (num, den) of _stage_sum at M = p^N."""
    size = _check_stage(ctx, n, mult * len(exps), x, exps, N)
    return _stage_sum(n, x, ctx.q0, size, exps, mult)


def _stage_sum(n: int, x: int, q0: Fraction, size: int, exps: range, mult: int) -> tuple:
    """The stage sum at M = size in integers, unguarded: O(n * len(exps))
    operations and no O(r) object.  Returns the unreduced pair (num, den), whose
    denominator keeps B - A only for e = 0 windows.  At M = 0, A = B = 1 and
    K_k = k, so it is P(1), the closed value, for windows with no e = 0."""
    r = mult * len(exps)
    a, b = q0.numerator, q0.denominator
    big_a, big_b = a**size, b**size
    window = _windows(a, b, big_a, big_b, size, min(exps), max(exps) + n)
    terms = []  # term m over (B - A)^(r - z) as (num, den, z, i, j): num / (den a^i b^j)
    for m in range(n + 1):
        num, den, z, i, j = (-1) ** m * math.comb(n, m), 1, 0, -m * x, m * x  # q0^(m x)
        for c in exps:
            wk, wd, wz, wi, wj = window[m + c]
            num, den = num * wk**mult, den * wd**mult
            z, i, j = z + mult * wz, i + mult * wi, j + mult * wj
        terms.append((num, den, z, i, j))
    lcm = math.lcm(*(t[1] for t in terms))
    top_z, top_i, top_j = (max(t[k] for t in terms) for k in (2, 3, 4))  # < 0 only at M = 0
    total = sum(num * (lcm // den) * (big_b - big_a) ** (top_z - z) * a ** (top_i - i)
                * b ** (top_j - j) for num, den, z, i, j in terms)
    # (1-q0)^(r-n) / (1-Q)^r = (b-a)^(r-n) b^(M r - r + n) / (B - A)^r
    k = size * r - r + n - top_j
    num = total * (b - a) ** max(r - n, 0) * a ** max(-top_i, 0) * b ** max(k, 0)
    den = ((big_b - big_a) ** top_z * lcm * (b - a) ** max(n - r, 0) * a ** max(top_i, 0)
           * b ** max(-k, 0))
    return num, den


def _window_denominators(a: int, b: int, lo: int, hi: int) -> dict:
    """d = b^k - a^k, k = |e|, for each window lo <= e <= hi of the stage
    polynomial: 1 / (1 - q0^e) is b^k / d for e > 0 and -a^k / d for e < 0."""
    return {e: b ** abs(e) - a ** abs(e) for e in range(lo, hi + 1) if e}


def _times_bracket(w: list, k: int) -> list:
    """The coefficient list w times [k]_Q = (1 - Q^k) / (1 - Q), k >= 1: w (1 - Q^k),
    then a running sum, whose last entry is 0."""
    return list(itertools.accumulate(map(operator.sub, w + [0] * k, [0] * k + w)))[:-1]


def _stage_polynomial(n: int, x: int, q0: Fraction, exps: range, mult: int, p: int,
                      digits: int) -> tuple:
    """P of the module docstring, with S_N = P(Q) at every stage N, for windows
    e = m + c with no e = 0, c being each exponent of exps taken mult times.

    Returns (coeffs, lo, scale, unit, mod) with scale * unit * P(Q) congruent to
    sum_t coeffs[t] Q^(lo + t) mod `mod`, lo <= 0 <= lo + len(coeffs) - 1.  scale,
    the lcm of the window denominators times a power of b - a, is exact and holds
    every factor of p that P divides by; unit = a^i b^j (i, j >= 0) is a p-adic
    unit; mod = p^(digits + v_p(scale)).  The bracket products are sliding sums
    of small integers; the powers of a and b, and so coeffs and unit, are taken
    mod `mod`."""
    a, b = q0.numerator, q0.denominator
    r = mult * len(exps)
    dens = _window_denominators(a, b, min(exps), max(exps) + n)
    terms = []  # term m: (-1)^m C(n,m) a^i b^j / den times Q^s w(Q)
    for m in range(n + 1):
        # q0^(m x) = a^(m x) b^(-m x), and (1-q0)^(r-n) = (b-a)^(r-n) b^(n-r)
        den, i, j, s, w = 1, m * x, n - r - m * x, 0, [1]
        for c in exps:
            e = m + c
            den *= dens[e] ** mult
            if e > 0:
                j += mult * e
            else:
                i, s = i - mult * e, s + mult * e
            for _ in range(mult):
                w = _times_bracket(w, abs(e))
        terms.append(((-1) ** m * math.comb(n, m), den, i, j, s, w))
    lcm = math.lcm(*(t[1] for t in terms))
    scale = lcm * (b - a) ** max(n - r, 0)
    mod = p ** (digits + _int_valuation(scale, p))
    low_i, low_j = (min(0, *(t[k] for t in terms)) for k in (2, 3))
    lo = min(0, *(t[4] for t in terms))
    coeffs = [0] * (max(1, *(t[4] + len(t[5]) for t in terms)) - lo)
    for sign, den, i, j, s, w in terms:
        scalar = (sign * (lcm // den) * (b - a) ** max(r - n, 0)
                  * pow(a, i - low_i, mod) * pow(b, j - low_j, mod) % mod)
        span = slice(s - lo, s - lo + len(w))
        coeffs[span] = map(operator.add, coeffs[span], map(scalar.__mul__, w))
    return coeffs, lo, scale, pow(a, -low_i, mod) * pow(b, -low_j, mod), mod


def riemann_sum_multi(n: int, r: int, x: int, ctx: PadicContext, N: int) -> Fraction:
    """Stage-N r-fold sum for the unweighted family, as an exact rational; every
    c_k is 1, so the r windows G(m + 1) are one power."""
    return Fraction(*_riemann_sum(n, x, ctx, N, *weights(r)))


def riemann_sum_weighted(n: int, h: int, r: int, x: int, ctx: PadicContext, N: int) -> Fraction:
    """Stage-N r-fold sum with the extra per-coordinate weight q0^((c_k - 1) y_k),
    c = (h, ..., h-r+1), as an exact rational.  Computable for every
    integer h, including the e = 0 windows of a degenerate h; only the
    closed-form comparison is not."""
    return Fraction(*_riemann_sum(n, x, ctx, N, *weights(r, h)))


class ConvergenceReport(namedtuple("ConvergenceReport",
                                   "family params p q0 target points monotone")):
    """Per-N valuations of (stage-N sum minus closed form) for one target."""

    __slots__ = ()

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
    """Compare stage sums against the matching closed form at q0 for N = 1..Nmax.

    With c / d the closed value and P = _stage_polynomial(...), the integer
    polynomial R(Q) = scale unit d Q^(-lo) (P(Q) - c / d) is built once, mod p^K,
    K = Nmax + _RESIDUE_DIGITS + v_p(scale) + v_p(d).  Every stage N reads
    B^deg R(A / B) mod p^K by homogeneous Horner; A, B and unit are p-adic units,
    so a nonzero residue has valuation v_p(scale d) + v_p(S_N - c / d), and a zero
    one, v_p(S_N - c / d) >= Nmax + _RESIDUE_DIGITS, falls back to the exact stage."""
    if family not in FAMILIES:
        raise QsymDomainError(f"family must be one of {FAMILIES}")
    n = params["n"]
    x = params.get("x", 0)
    if family == "single":
        r, h = 1, None
        target = f"integral of [x + y]^{n} against the q-measure, x = {x}"
    elif family == "multi":
        r, h = params["r"], None
        target = f"{r}-fold integral of [x + sum y]^{n}, x = {x}"
    else:
        r, h = params["r"], params["h"]
        WeightedBetaQuery(n, h, r, 1, x)
        target = f"{r}-fold integral of [x + sum y]^{n} with weight exponent h = {h}, x = {x}"
    exps, mult = weights(r, h)
    _check_stage(ctx, n, r, x, exps, ctx.Nmax)
    closed = Fraction(*_stage_sum(n, x, ctx.q0, 0, exps, mult))  # P(1)
    c, d = closed.numerator, closed.denominator
    p, a, b = ctx.p, ctx.q0.numerator, ctx.q0.denominator
    digits = ctx.Nmax + _RESIDUE_DIGITS + _int_valuation(d, p)
    coeffs, lo, scale, unit, mod = _stage_polynomial(n, x, ctx.q0, exps, mult, p, digits)
    rs = [t * d % mod for t in coeffs]
    rs[-lo] = (rs[-lo] - c % mod * scale * unit) % mod
    v_scale = _int_valuation(scale * d, p)
    points = []
    for N in range(1, ctx.Nmax + 1):
        big_a, big_b = pow(a, p**N, mod), pow(b, p**N, mod)
        acc, b_power = 0, 1
        for t in reversed(rs):
            acc, b_power = (acc * big_a + t * b_power) % mod, b_power * big_b % mod
        if acc:
            v = _int_valuation(acc, p) - v_scale
        else:
            num, den = _riemann_sum(n, x, ctx, N, exps, mult)
            diff = num * d - c * den
            v = _int_valuation(diff, p) - _int_valuation(den * d, p) if diff else math.inf
        points.append((N, v))
    monotone = all(points[i + 1][1] >= points[i][1] for i in range(len(points) - 1))
    return ConvergenceReport(family, dict(params), ctx.p, ctx.q0, target, points, monotone)
