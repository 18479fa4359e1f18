"""Differential tests of the LaurentPoly/RatFun core against sympy.

sympy is an independent oracle here and is used only in tests; the module is
skipped when it is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qsym.ratfun import LaurentPoly, RatFun

sympy = pytest.importorskip("sympy")
q = sympy.Symbol("q")


def sp(p: LaurentPoly):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * q**e
                       for e, c in p.terms.items()])


def qq_pair(f: RatFun):
    """f as N / D, two sympy Polys over QQ: both Laurent parts shifted by one
    power of q, so no expression is built or simplified."""
    lo = min(e for p in (f.num, f.den) for e in p.terms)
    return tuple(sympy.Poly.from_dict({(e - lo,): sympy.QQ(c.numerator, c.denominator)
                                       for e, c in p.terms.items()}, q, domain=sympy.QQ)
                 for p in (f.num, f.den))


def sp_poly(p: LaurentPoly):
    """The polynomial part of p (its monomial factor removed) as a sympy Poly."""
    return sympy.Poly(sympy.expand(sp(p) * q ** (-p.min_exp)), q)


coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def laurent_polys(draw, max_terms=6):
    return LaurentPoly(draw(st.dictionaries(st.integers(-6, 6), coeffs, max_size=max_terms)))


@st.composite
def nonzero_polys(draw):
    p = draw(laurent_polys())
    if p.is_zero:
        p = p + LaurentPoly({draw(st.integers(-3, 3)): draw(st.integers(1, 5))})
    return p


@st.composite
def ratfuns(draw):
    return RatFun(draw(laurent_polys()), draw(nonzero_polys()))


# Scales that make a divisor non-primitive (integer content > 1) or rational.
scales = st.sampled_from([1, 2, -3, 12, Fraction(1, 6), Fraction(-5, 4)])


@settings(derandomize=True, max_examples=150)
@given(laurent_polys(), laurent_polys())
def test_ring_operations_match_sympy(a, b):
    assert sympy.expand(sp(a * b) - sp(a) * sp(b)) == 0
    assert sympy.expand(sp(a + b) - sp(a) - sp(b)) == 0
    assert (a == b) == (sympy.expand(sp(a) - sp(b)) == 0)
    assert (a + b) - b == a


@settings(derandomize=True, max_examples=100)
@given(ratfuns(), ratfuns(), nonzero_polys(), st.booleans())
def test_ratfun_eq_and_canonical_match_sympy(f, g, c, same):
    if same:
        g = RatFun(f.num * c, f.den * c)
    (fn, fd), (gn, gd) = qq_pair(f), qq_pair(g)
    assert (f == g) == (fn * gd - gn * fd).is_zero
    red = f.canonical()
    rn, rd = qq_pair(red)
    assert (rn * fd - fn * rd).is_zero
    # sympy's reduced denominator, without its power of q, made primitive over
    # ZZ with a positive leading coefficient, is the canonical denominator.
    _, den = fn.cancel(fd, include=True)
    low = min(m for (m,) in den.monoms())
    den = sympy.Poly.from_dict({(m - low,): c for (m,), c in den.terms()}, q, domain=sympy.QQ)
    den = den.clear_denoms(convert=True)[1].primitive()[1]
    if den.LC() < 0:
        den = -den
    assert red.den.min_exp == 0
    assert red.den.terms == {m: int(c) for (m,), c in zip(den.monoms(), den.coeffs())}


@settings(derandomize=True, max_examples=150)
@given(nonzero_polys(), nonzero_polys(), scales)
def test_exact_div_matches_sympy(a, d, scale):
    d = d.scale(scale)
    assert (a * d).exact_div(d) == a
    quot = a.exact_div(d)
    divisible = sp_poly(a).rem(sp_poly(d)).is_zero
    assert (quot is not None) == divisible
    if quot is not None:
        assert quot * d == a


@pytest.mark.parametrize("num, den, divisible", [
    ({0: 1, 1: 1, 2: 1}, {0: 1, 1: 2}, False),  # the first integer step is 1/2
    ({0: 1, 1: 3, 2: 1}, {0: 1, 1: 2}, False),  # floor steps would leave a zero low remainder
    ({0: 1, 2: 1}, {0: 1, 1: 1}, False),  # integral steps, remainder 2
    ({0: -2, 2: 2}, {0: 4, 1: 4}, True),  # non-primitive divisor: 2(q^2-1) / 4(q+1)
    ({-3: 3, -5: Fraction(-1, 2)}, {2: 6, 0: -1}, True),  # rational quotient q^-5 / 2
    ({0: 3, 1: 7, 2: 2}, {0: 3, 1: 1}, True),  # non-monic: (3+q)(1+2q)
    ({0: 3, 1: 7, 2: 3}, {0: 3, 1: 1}, False),
])
def test_exact_div_frozen_pairs(num, den, divisible):
    num, den = LaurentPoly(num), LaurentPoly(den)
    quot = num.exact_div(den)
    assert (quot is not None) == divisible == sp_poly(num).rem(sp_poly(den)).is_zero
    if divisible:
        assert quot * den == num
