"""The per-i convolution side of thm4 and thm6, kept as a test oracle for the
difference-table side of qsym.identities: it builds every T-sum T(n, i) by
its own exact division and adds the n + 1 terms as rational functions."""

import math

from qsym.qcore import bracket_poly
from qsym.ratfun import LaurentPoly, RatFun


def convolution_side(n: int, r: int, wa: int, wb: int, x: int, closed, tsum,
                     twist: int = 0) -> RatFun:
    """sum_i C(n,i) [wa]^(n-i) [wb]^(i-r) closed(i, wb, wa wb x) tsum(i, wb, wa),
    tsum(i, wlim, base) being t_sum (thm4) or t_sum_h (thm6) in base q^base;
    a nonzero twist multiplies the i = n term by q^twist.  [wb]^(i-r) is a
    denominator for i < r."""
    acc = RatFun(0)
    for i in range(n + 1):
        brackets = RatFun(bracket_poly(wa, 1, n - i) * bracket_poly(wb, 1, max(i - r, 0)),
                          bracket_poly(wb, 1, max(r - i, 0)))
        term = math.comb(n, i) * brackets * closed(i, wb, wa * wb * x) * tsum(i, wb, wa)
        if twist and i == n:
            term = term * RatFun(LaurentPoly({twist: 1}))
        acc = acc + term
    return acc
