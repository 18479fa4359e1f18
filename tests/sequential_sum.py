"""The sequential scale / shift / + loops that qsym.ratfun.linear_combination
fuses, kept as test oracles: one for the primitive, one for the closed form."""

import math

from qsym.qbernoulli import _higher_scaffold, _weighted_scaffold
from qsym.ratfun import LaurentPoly, RatFun


def sequential_sum(terms) -> LaurentPoly:
    """sum k * q**s * p over the triples (k, s, p), one add at a time."""
    total = LaurentPoly()
    for k, s, p in terms:
        total = total + p.scale(k).shift(s)
    return total


def sequential_closed_form(n: int, r: int, w: int, power, h=None) -> RatFun:
    """The closed form of qsym.qbernoulli.closed_form as its term loop was
    written before the fused sum: scale each cofactor, multiply by power(j), add."""
    if h is None:
        den, scaffold = _higher_scaffold(n, r, w)
        factor = lambda j: (j + 1) ** r
    else:
        den, scaffold = _weighted_scaffold(n, h, r, w)
        factor = lambda j: math.prod(j + c for c in range(h, h - r, -1))
    num = LaurentPoly()
    for j, (_, cof) in enumerate(scaffold):  # its own scalars, not the scaffold's
        scalar = math.comb(n, j) * factor(j)
        num = num + cof.scale(-scalar if j % 2 else scalar) * power(j)
    return RatFun(num, den)
