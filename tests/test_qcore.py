import math

import pytest

from qsym.qcore import bracket_poly, q_bracket, q_binomial, q_factorial
from qsym.ratfun import LaurentPoly, QsymDomainError, RatFun, limit_at_one


def test_bracket_examples():
    assert q_bracket(0, 1) == RatFun(0)
    assert q_bracket(2, 1) == RatFun(LaurentPoly({0: 1, 1: 1}))
    assert q_bracket(-1, 1) == RatFun(LaurentPoly({-1: -1}))


def test_bracket_matches_definition():
    # (1 - q^(w m)) / (1 - q^w) for a spread of m and w, including negative m
    for w in (1, 2, 3):
        den = LaurentPoly({0: 1, w: -1})
        for m in range(-4, 7):
            defn = RatFun(LaurentPoly({0: 1}) - LaurentPoly({w * m: 1}), den)
            assert q_bracket(m, w) == defn, (m, w)


def test_factorial_examples():
    assert q_factorial(0) == RatFun(1)
    assert q_factorial(2) == q_bracket(2)
    assert q_factorial(3) == q_bracket(2) * q_bracket(3)
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_binomial_examples():
    assert q_binomial(7, 0) == RatFun(1)
    assert q_binomial(2, 1) == q_bracket(2)
    assert q_binomial(1, 2) == RatFun(0)
    with pytest.raises(QsymDomainError):
        q_binomial(3, -1)


def test_factorial_and_binomial_in_base_q_w():
    for w in (2, 3):
        assert q_factorial(0, w) == RatFun(1)
        assert q_binomial(5, 0, w) == RatFun(1)
        for r in range(1, 5):
            fact = RatFun(1)
            for m in range(1, r + 1):
                fact = fact * q_bracket(m, w)
            assert q_factorial(r, w) == fact, (r, w)
            for m in range(-2, 6):
                falling = RatFun(1)
                for k in range(r):
                    falling = falling * q_bracket(m - k, w)
                assert q_binomial(m, r, w) == falling / fact, (m, r, w)


def test_binomial_negative_upper_index():
    # Laurent-valued brackets keep the definition uniform for m < 0.
    for m in (-1, -2, -3):
        for r in (1, 2):
            expected = RatFun(1)
            for k in range(r):
                expected = expected * q_bracket(m - k)
            expected = expected / q_factorial(r)
            assert q_binomial(m, r) == expected, (m, r)


def test_base_change_law():
    for m in range(1, 9):
        for n in range(1, 9):
            assert q_bracket(m * n, 1) == q_bracket(m, 1) * q_bracket(n, m), (m, n)


def test_limits_at_one():
    for m in range(9):
        assert limit_at_one(q_bracket(m, 1)) == m
    for m in range(9):
        for r in range(m + 1):
            assert limit_at_one(q_binomial(m, r, 1)) == math.comb(m, r), (m, r)


def test_pascal_style_recursion():
    q = RatFun(LaurentPoly({1: 1}))
    for m in range(1, 11):
        assert q_bracket(m, 1) == q * q_bracket(m - 1, 1) + 1


def test_base_validation():
    with pytest.raises(ValueError):
        q_bracket(2, 0)
    with pytest.raises(ValueError):
        q_factorial(2, -1)


def test_bracket_power_is_the_repeated_product():
    for w in (1, 2):
        for m in range(-3, 6):
            prod = LaurentPoly.one()
            for k in range(5):
                assert bracket_poly(m, w, k) == prod, (m, w, k)
                prod = prod * bracket_poly(m, w)
