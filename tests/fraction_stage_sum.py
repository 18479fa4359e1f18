"""The Fraction form of the Volkenborn stage sum, kept as a test oracle for
qsym.volkenborn._riemann_sum, which builds the same value in integers."""

import math
from fractions import Fraction


def fraction_stage_sum(n: int, x: int, q0, size: int, exps, mult: int = 1):
    """S_N of the qsym.volkenborn docstring with M = size and c each exponent of
    exps taken mult times: every window G(e) = (1-Q^e) / (1-q0^e), G(0) = M,
    and every power and product a reduced Fraction."""
    r = mult * len(exps)
    big_q = q0**size
    window = {e: Fraction(size) if e == 0 else (1 - big_q**e) / (1 - q0**e)
              for e in range(min(exps), max(exps) + n + 1)}
    total = sum((-1) ** m * math.comb(n, m) * q0 ** (m * x)
                * math.prod(window[m + c] ** mult for c in exps) for m in range(n + 1))
    return (1 - q0) ** (r - n) / (1 - big_q) ** r * total
