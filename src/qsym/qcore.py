"""q-analogue primitives: brackets, q-factorials and q-binomials in base q^w.

The bracket [m] in base q^w is (1 - q^(w*m)) / (1 - q^w).  It is always a
Laurent polynomial: a geometric sum for m >= 0 and a negative-exponent sum
for m < 0.  bracket_poly returns that LaurentPoly; every other function here
returns a RatFun whose denominator is 1 except for q_binomial.
"""

from __future__ import annotations

from functools import lru_cache

from .ratfun import LaurentPoly, QsymDomainError, RatFun


def _check_base(w: int) -> None:
    if not isinstance(w, int) or w < 1:
        raise QsymDomainError(f"bracket base exponent must be a positive integer, got {w!r}")


@lru_cache(maxsize=None)
def bracket_poly(m: int, w: int = 1, k: int = 1) -> LaurentPoly:
    """[m]^k in base q^w as a Laurent polynomial.  The powers share the cache
    because the T-sums raise the same brackets to the same powers on every call."""
    _check_base(w)
    if k != 1:
        return bracket_poly(m, w) ** k
    if m >= 0:
        return LaurentPoly({w * i: 1 for i in range(m)})
    return LaurentPoly({-w * i: -1 for i in range(1, -m + 1)})


def _factorial_poly(r: int, w: int) -> LaurentPoly:
    """[r]! in base q^w: r - 1 products of cached brackets, rebuilt on each
    call because no sweep, CLI command or stage sum asks for it."""
    out = LaurentPoly.one()
    for m in range(2, r + 1):
        out = out * bracket_poly(m, w)
    return out


def q_bracket(m: int, w: int = 1) -> RatFun:
    """The q-analogue [m] = (1 - q^(w*m)) / (1 - q^w)."""
    return RatFun(bracket_poly(m, w))


def q_factorial(r: int, w: int = 1) -> RatFun:
    """[r]! = [r][r-1]...[1] in base q^w; the empty product is 1."""
    if r < 0:
        raise QsymDomainError(f"q-factorial wants r >= 0, got {r}")
    _check_base(w)
    return RatFun(_factorial_poly(r, w))


def q_binomial(m: int, r: int, w: int = 1) -> RatFun:
    """Gaussian binomial [m][m-1]...[m-r+1] / [r]! in base q^w.

    m may be any integer; the value is zero when some factor [m-k] vanishes.
    """
    if r < 0:
        raise QsymDomainError(f"q-binomial wants r >= 0, got {r}")
    _check_base(w)
    num = LaurentPoly.one()
    for k in range(r):
        num = num * bracket_poly(m - k, w)
    return RatFun(num, _factorial_poly(r, w))
