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

One kernel gives every number of this module.  Its part that does not depend on
M, the table (_stage_table), holds the lcm, each term's integer coefficient, its
window indices k and zero-window count, and its exponents of a and b, affine in
M - 1; _stage_sum evaluates the table at one M, exactly or with every power and
K_k reduced mod p^K.  At M = 0, A = B = 1 and K_k = k, so with no zero window
the kernel sums the closed value c/d, the limit of S_N as Q -> 1, with no
rational function built.

Convergence to the closed form is certified by the p-adic valuations of S_N
minus c/d being nondecreasing in N.  A report builds the table once, reads c/d
at M = 0 and, at each M = p^N, forms E = num d - c den, num / den being the
stage's unreduced pair: mod p^K first, K = Nmax + 64 + v_p(scale) + v_p(d) and
scale = lcm (b - a)^max(n-r, 0), in O(n r + max|c_k|) operations on numbers of
K digits in base p, and exactly, from the same table, only where that residue
is 0, that is where S_N agrees with c/d to Nmax + 64 digits.  a and b are p-adic
units, as v_p(1 - q0) >= 1, and a report has no zero window (WeightedBetaQuery
refuses a degenerate h), so every stage's den has the valuation of scale and one
rule gives every point: v_p(S_N - c/d) = v_p(E) - v_p(scale d), or inf where
E = 0.  The exact E stays unreduced, since for b != 1 the reduced Fraction's gcd
would cost more than the stage itself.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .qbernoulli import WeightedBetaQuery, weights
from .ratfun import QsymDomainError, ResourceLimitError

# The params each family takes besides an optional x, which the CLI lists after n.
FAMILIES = {"single": ("n",), "multi": ("n", "r"), "weighted": ("n", "r", "h")}

# Largest predicted size, in bits, of the numbers an exact stage sum builds.  At
# p = 5, q0 = 6 the single family needs 0.70M bits for n = 2, N = 7, 1.4M for n = 5
# and 2.6M for n = 10, whose exact stages take 0.007, 0.05 and 0.23 s on a shared
# 2-core machine (CPython 3.11): the products that build the windows K_k, not a gcd,
# cost superlinearly in this size, and no budget on index tuples bounds it.  A
# report reads each stage from the kernel's table mod p^K, the whole report taking
# 0.07 ms for n = 2 and 0.10 ms for n = 5 at Nmax = 7, and builds a stage exactly
# only as the fallback, which this guard bounds.  An argument x adds the powers
# q0^(m x): the weighted report n = 2, h = 2, r = 1, N = 1, x = -300000 needs 1.8M
# bits and takes 0.11 s, nearly all of it the exact closed value (its exact stage
# takes 0.11 s too, and the reduced Fraction of that stage 1.1 s).
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


def _check_stage(ctx: PadicContext, n: int, r: int, x: int, exps: range, N: int) -> int:
    """Refuse stage N before it is built, and return p^N.  ctx.budget bounds the
    p^(r N) index tuples it stands for, its meaning and no longer its cost: p^(r N)
    > budget exactly when r N > k, the largest k with p^k <= budget.
    MAX_STAGE_BITS bounds its cost: its numbers take about r (n + max|c_k|) p^N
    + n |x| times the bit length of q0's larger term, the n |x| being the powers
    q0^(m x) that the stage and the closed value both build.  Both bounds grow
    with N, so a report checks its deepest stage first."""
    if not 1 <= N <= ctx.Nmax:
        raise QsymDomainError(f"N must be in 1..{ctx.Nmax}")
    if n < 0 or r < 1:
        raise QsymDomainError("need n >= 0 and r >= 1")
    k, power = 0, ctx.p
    while power <= ctx.budget:
        k, power = k + 1, power * ctx.p
    if r * N > k:
        raise ResourceLimitError(
            f"summation grid p^(r*N) = {ctx.p}^({r * N}) exceeds the budget {ctx.budget}"
        )
    size = ctx.p**N
    height = max(abs(ctx.q0.numerator), ctx.q0.denominator).bit_length()
    bits = (r * (n + max(abs(exps[0]), abs(exps[-1]))) * size + n * abs(x)) * height
    if bits > MAX_STAGE_BITS:
        raise ResourceLimitError(
            f"stage N = {N} builds numbers of about {bits} bits, over the guard "
            f"MAX_STAGE_BITS={MAX_STAGE_BITS}"
        )
    return size


_StageTable = namedtuple("_StageTable", "a b mult kmax lift scale top_z terms")


def _stage_table(n: int, x: int, q0: Fraction, exps: range, mult: int) -> _StageTable:
    """The part of the stage sum that does not depend on M, c being each exponent
    of exps taken mult times (r = mult * len(exps)).  Term m of the module
    docstring's sum, times (1-q0)^(r-n) / (1-Q)^r, is

        coef lift prod_(k in ks) K_k^mult / (scale (B - A)^z a^i b^j)

    with i = i0 + (M-1) di and j = j0 + (M-1) dj; ks holds the |m + c_k|, 0 for
    a zero window (whose factor is M), z counts those and top_z is the largest z.
    lift = (b - a)^max(r-n, 0), scale = lcm (b - a)^max(n-r, 0), lcm being that
    of the terms' products of window denominators b^k - a^k, and each term's coef
    is an integer."""
    a, b = q0.numerator, q0.denominator
    r = mult * len(exps)
    dens = {e: b ** abs(e) - a ** abs(e) if e else 1
            for e in range(min(exps), max(exps) + n + 1)}
    rows = []  # (den, coef, ks, z, i0, di, j0, dj), den the term's product of b^k - a^k
    for m in range(n + 1):
        es, den = [m + c for c in exps], 1
        for e in es:
            den *= dens[e]
        rows.append((den ** mult, (-1) ** m * math.comb(n, m), [abs(e) for e in es],
                     mult * es.count(0), -m * x, -mult * sum([e for e in es if e < 0]),
                     m * x - n, mult * sum([e for e in es if e > 0]) - r))
    lcm = math.lcm(*[row[0] for row in rows])
    terms = [(coef * (lcm // den), *rest) for den, coef, *rest in rows]
    return _StageTable(a, b, mult, max(-min(exps), max(exps) + n), (b - a) ** max(r - n, 0),
                       lcm * (b - a) ** max(n - r, 0), max([t[2] for t in terms]), terms)


def _stage_sum(table: _StageTable, size: int, mod: int = None) -> tuple:
    """The stage sum at M = size from its table, unguarded: the unreduced pair
    (num, den), whose denominator keeps B - A only for zero windows.  With mod
    set, both are only congruent to that pair mod it, every power and K_k being
    taken mod it (pow(v, 1, None) is v).  At M = 0, A = B = 1 and K_k = k, so it
    is the closed value for windows with no e = 0.

    Only factors that can differ from 1 are taken: B^k and b^e where b != 1,
    product^mult where mult != 1, (B - A)^(top_z - z) where z != top_z, a^e where
    e != 0, and a final power where its base is not 1 and its exponent not 0.
    Each factor skipped is exactly 1 and no term's exponent is negative, top_z,
    top_i and top_j being maxima, so the pair is the one with every factor taken."""
    a, b, mult, kmax, lift, scale, top_z, terms = table
    big_a, big_b = pow(a, size, mod), pow(b, size, mod)
    ks, big_bk = [0], 1  # K_0 = 0, K_(k+1) = A K_k + B^k
    for _ in range(kmax):
        ks.append(pow(big_a * ks[-1] + big_bk, 1, mod))
        if b != 1:
            big_bk = pow(big_bk * big_b, 1, mod)
    ks[0] = size  # a zero window is G(0) = M
    shift = size - 1
    top_i = max([t[3] + shift * t[4] for t in terms])  # < 0 only at M = 0
    top_j = max([t[5] + shift * t[6] for t in terms])
    total, gap = 0, big_b - big_a
    for coef, window, z, i0, di, j0, dj in terms:
        product = 1
        for k in window:
            product *= ks[k]
        if mult != 1:
            product = pow(product, mult, mod)
        if z != top_z:
            product *= pow(gap, top_z - z, mod)
        e = top_i - i0 - shift * di
        if e:
            product *= pow(a, e, mod)
        if b != 1:
            product *= pow(b, top_j - j0 - shift * dj, mod)
        total += coef * pow(product, 1, mod)  # coef is exact, often far wider than mod
    num, den = total * lift, scale
    for v, top in ((gap, top_z), (a, top_i), (b, top_j)):
        if top > 0 and v != 1:
            den *= pow(v, top, mod)
        elif top < 0 and v != 1:
            num *= pow(v, -top, mod)
    return pow(num, 1, mod), pow(den, 1, mod)


def _riemann_sum(n: int, x: int, ctx: PadicContext, N: int, exps: range, mult: int) -> tuple:
    """S_N of the module docstring, c being each exponent of exps taken mult
    times (r = mult * len(exps)), once _check_stage admits stage N: the
    unreduced pair (num, den) of _stage_sum at M = p^N."""
    size = _check_stage(ctx, n, mult * len(exps), x, exps, N)
    return _stage_sum(_stage_table(n, x, ctx.q0, exps, mult), size)


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


class ConvergenceReport(namedtuple("ConvergenceReport", "family params p q0 points monotone")):
    """Per-N valuations of (stage-N sum minus closed form) for one family and params."""

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

    One table (_stage_table) gives the closed value c / d at M = 0, with no gcd:
    only the powers of p common to c and d are divided out, so v_p(d) is that of
    the reduced denominator.  At each M = p^N it gives E = num d - c den, num /
    den being the stage's unreduced pair, mod p^K, K = Nmax + _RESIDUE_DIGITS +
    v_p(scale) + v_p(d), and exactly only where that residue is 0, that is where
    v_p(S_N - c / d) >= Nmax + _RESIDUE_DIGITS.  den is scale times p-adic units,
    as d is before the division, so every point is v_p(E) - v_p(scale d), or inf
    where E = 0.  The one _check_stage at Nmax bounds every stage built."""
    if family not in FAMILIES:
        raise QsymDomainError(f"family must be one of {tuple(FAMILIES)}")
    need = set(FAMILIES[family])
    if not need <= params.keys() <= need | {"x"}:
        raise QsymDomainError(f"{family} takes {sorted(need)}, x optional; got {sorted(params)}")
    n, x, r, h = params["n"], params.get("x", 0), params.get("r", 1), params.get("h")
    if family == "weighted":
        WeightedBetaQuery(n, h, r, 1, x)
    exps, mult = weights(r, h)
    _check_stage(ctx, n, r, x, exps, ctx.Nmax)
    table = _stage_table(n, x, ctx.q0, exps, mult)
    c, d = _stage_sum(table, 0)
    p = ctx.p
    v_den = _int_valuation(table.scale, p)
    shared = min(_int_valuation(c, p), v_den) if c else v_den  # the p in gcd(c, d)
    c, d = c // p**shared, d // p**shared
    v_scale = 2 * v_den - shared  # v_p(scale d)
    mod = p ** (ctx.Nmax + _RESIDUE_DIGITS + v_scale)
    points = []
    for N in range(1, ctx.Nmax + 1):
        num, den = _stage_sum(table, p**N, mod)
        diff = (num * d - c * den) % mod
        if not diff:
            num, den = _stage_sum(table, p**N)
            diff = num * d - c * den
        points.append((N, _int_valuation(diff, p) - v_scale if diff else math.inf))
    monotone = all(points[i + 1][1] >= points[i][1] for i in range(len(points) - 1))
    return ConvergenceReport(family, dict(params), ctx.p, ctx.q0, points, monotone)
