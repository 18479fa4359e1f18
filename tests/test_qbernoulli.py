"""The closed-form evaluators checked against independent oracles: the number
family against its defining recurrence, T-sums against brute-force tuple
enumeration, and the classical limit against the power-series oracle."""

import itertools
import math
from fractions import Fraction

import pytest

from qsym.qbernoulli import (
    BetaQuery,
    DegenerateWeightError,
    WeightedBetaQuery,
    beta_higher,
    beta_number,
    beta_weighted,
    classical_bernoulli,
    classical_bernoulli_higher,
    composition_weights,
    t_sum,
    t_sum_h,
)
from qsym.qcore import q_bracket
from qsym.ratfun import LaurentPoly, RatFun, limit_at_one

Q = RatFun(LaurentPoly({1: 1}))


def betas_by_recurrence(nmax):
    """Solve q(q*beta + 1)^n - beta_n = [n == 1] for beta_n, degree by degree.

    Expanding umbral powers: q * sum_{l<=n} C(n,l) q^l beta_l - beta_n, so
    beta_n (q^(n+1) - 1) = rhs - q * sum_{l<n} C(n,l) q^l beta_l.
    """
    betas = [RatFun(1)]
    for n in range(1, nmax + 1):
        s = RatFun(0)
        for l in range(n):
            s = s + math.comb(n, l) * Q**l * betas[l]
        rhs = RatFun(1) if n == 1 else RatFun(0)
        betas.append((rhs - Q * s) / (Q ** (n + 1) - 1))
    return betas


def t_sum_brute(n, i, r, wlim, base):
    acc = RatFun(0)
    for jt in itertools.product(range(wlim), repeat=r):
        s = sum(jt)
        if n == i:
            br = RatFun(1)
        elif s == 0:
            continue
        else:
            br = q_bracket(s, base) ** (n - i)
        acc = acc + br * RatFun(LaurentPoly({base * (i + 1) * s: 1}))
    return acc


def t_sum_h_brute(n, i, h, r, wlim, base):
    acc = RatFun(0)
    for jt in itertools.product(range(wlim), repeat=r):
        s = sum(jt)
        if n == i:
            br = RatFun(1)
        elif s == 0:
            continue
        else:
            br = q_bracket(s, base) ** (n - i)
        # exponent: sum over one-based l of (i + h - l + 1) * j_l
        e = base * sum((i + h - l + 1) * j for l, j in enumerate(jt, start=1))
        acc = acc + br * RatFun(LaurentPoly({e: 1}))
    return acc


# -- beta_higher / beta_number -------------------------------------------------


def test_beta_zero_degree_is_one():
    for r in (1, 2, 3):
        for w in (1, 2):
            for arg in (0, 5):
                assert beta_higher(0, r, w, arg) == RatFun(1)


def test_beta_number_matches_recurrence_oracle():
    oracle = betas_by_recurrence(8)
    for n in range(9):
        assert beta_number(n) == oracle[n], n


def test_beta_one_closed_form():
    assert beta_number(1) == RatFun(LaurentPoly({0: -1}), LaurentPoly({0: 1, 1: 1}))
    assert beta_higher(1, 1, 1, 0) == beta_number(1)


def test_beta_two_classical_limit():
    assert limit_at_one(beta_higher(2, 1, 1, 0)) == Fraction(1, 6)


def test_query_validation():
    with pytest.raises(ValueError):
        BetaQuery(-1)
    with pytest.raises(ValueError):
        BetaQuery(1, r=0)
    with pytest.raises(ValueError):
        BetaQuery(1, w=0)


# -- classical oracle ------------------------------------------------------------


def test_bernoulli_numbers_table():
    # Classical values, checkable by hand from the additive recurrence.
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
    ]
    assert [classical_bernoulli(m) for m in range(7)] == expected


def test_classical_higher_examples():
    assert classical_bernoulli_higher(0, 1, 0) == 1
    assert classical_bernoulli_higher(1, 1, 0) == Fraction(-1, 2)
    assert classical_bernoulli_higher(1, 2, 0) == -1
    # B_1 of order r is -r/2
    for r in range(1, 6):
        assert classical_bernoulli_higher(1, r, 0) == Fraction(-r, 2)


def test_classical_higher_argument_shift():
    # Difference identity of the ordinary Bernoulli polynomials: B_n(x+1) - B_n(x) = n x^(n-1).
    for n in range(1, 7):
        for x in range(3):
            diff = classical_bernoulli_higher(n, 1, x + 1) - classical_bernoulli_higher(n, 1, x)
            assert diff == n * Fraction(x) ** (n - 1)


def test_q_to_one_consistency():
    for n in range(7):
        for r in (1, 2, 3):
            for x in (0, 1, 2):
                assert limit_at_one(beta_higher(n, r, 1, x)) == classical_bernoulli_higher(
                    n, r, x
                ), (n, r, x)


# -- beta_weighted ----------------------------------------------------------------


def test_weighted_reduces_to_unweighted_at_h1_r1():
    for n in range(7):
        for x in (0, 1, 2):
            assert beta_weighted(n, 1, 1, 1, x) == beta_higher(n, 1, 1, x), (n, x)


def test_weighted_degree_zero_telescopes():
    from qsym.qcore import q_factorial

    for r in (1, 2, 3):
        for w in (1, 2):
            assert beta_weighted(0, r, r, w) == RatFun(math.factorial(r)) / q_factorial(r, w)


def test_weighted_degenerate_h_raises():
    with pytest.raises(DegenerateWeightError):
        beta_weighted(1, 0, 1, 1, 0)
    with pytest.raises(DegenerateWeightError):
        WeightedBetaQuery(3, h=-2, r=1)
    # boundary cases that are fine
    beta_weighted(3, 4, 4, 1, 0)
    beta_weighted(2, -3, 1, 1, 0)


def test_weighted_negative_h_is_laurent_but_consistent():
    # h < -n: every bracket factor has negative index; the value is still a
    # well-formed rational function, equal under both constructions.
    f = beta_weighted(2, -4, 1, 1, 1)
    g = RatFun(0)
    for j in range(3):
        scal = math.comb(2, j) * (-1) ** j * (j - 4)
        g = g + scal * RatFun(LaurentPoly({j * 1: 1})) / q_bracket(j - 4, 1)
    g = g / (RatFun(LaurentPoly({0: 1, 1: -1})) ** 2)
    assert f == g


# -- T-sums -----------------------------------------------------------------------


def test_t_sum_wlim_one_is_kronecker_delta():
    for n in range(4):
        for i in range(n + 1):
            for r in (1, 2, 3):
                for b in (1, 2):
                    expected = RatFun(1) if i == n else RatFun(0)
                    assert t_sum(n, i, r, 1, b) == expected


def test_t_sum_diagonal_is_geometric_power():
    for n in range(4):
        for r in (1, 2):
            for wlim in (1, 2, 3):
                for b in (1, 2):
                    assert t_sum(n, n, r, wlim, b) == q_bracket(wlim, b * (n + 1)) ** r


def test_t_sum_simple_value():
    assert t_sum(1, 0, 1, 2, 1) == Q


def test_t_sum_matches_brute_force():
    for n, i, r, wlim, b in [(2, 0, 2, 3, 1), (3, 1, 2, 2, 2), (4, 2, 1, 4, 1), (2, 2, 3, 2, 1)]:
        assert t_sum(n, i, r, wlim, b) == t_sum_brute(n, i, r, wlim, b), (n, i, r, wlim, b)


def test_t_sum_h_matches_brute_force():
    cases = [(2, 1, 3, 2, 2, 1), (3, 0, -5, 1, 3, 2), (2, 2, 4, 2, 2, 1), (1, 0, 2, 3, 2, 1)]
    for n, i, h, r, wlim, b in cases:
        assert t_sum_h(n, i, h, r, wlim, b) == t_sum_h_brute(n, i, h, r, wlim, b)


def test_t_sum_h_weight_one_reduces_to_t_sum():
    for n in range(3):
        for i in range(n + 1):
            for wlim in (1, 2, 3):
                assert t_sum_h(n, i, 1, 1, wlim, 1) == t_sum(n, i, 1, wlim, 1)


def test_t_sum_h_diagonal_two_fold():
    for i, h in [(0, 4), (1, 3), (2, 5)]:
        lhs = t_sum_h(i, i, h, 2, 2, 1)
        rhs = RatFun(LaurentPoly({0: 1, i + h: 1})) * RatFun(LaurentPoly({0: 1, i + h - 1: 1}))
        assert lhs == rhs


def test_composition_counts():
    assert composition_weights([1] * 1, 4) == [1, 1, 1, 1]
    assert composition_weights([1] * 2, 2) == [1, 2, 1]
    assert composition_weights([1] * 3, 2) == [1, 3, 3, 1]
    for r, lim in [(2, 3), (3, 3)]:
        counts = composition_weights([1] * r, lim)
        brute = [0] * (r * (lim - 1) + 1)
        for jt in itertools.product(range(lim), repeat=r):
            brute[sum(jt)] += 1
        assert counts == brute


def composition_weights_brute(ratios, limit, one):
    """Plain tuple enumeration of the composition weights, as an oracle."""
    out = [one * 0 for _ in range(len(ratios) * (limit - 1) + 1)]
    for jt in itertools.product(range(limit), repeat=len(ratios)):
        term = one
        for z, j in zip(ratios, jt):
            term = term * z**j
        out[sum(jt)] = out[sum(jt)] + term
    return out


@pytest.mark.parametrize("exps, limit", [
    ((1,), 4), ((2, 3), 3), ((0, 1, 5), 3), ((3, 2, 1), 2), ((4, 4), 1), ((), 3),
])
def test_composition_weights_int_matches_enumeration(exps, limit):
    ratios = [2**e for e in exps]
    assert composition_weights(ratios, limit) == composition_weights_brute(ratios, limit, 1)


@pytest.mark.parametrize("exps, limit", [
    ((-3, -4), 3), ((2, -1, -5), 3), ((-7,), 5), ((1, 0, -1), 1),
])
def test_composition_weights_fraction_matches_enumeration(exps, limit):
    # q0 = 4 as in the p = 3 Volkenborn sums; negative exponents are the h < -n weights.
    ratios = [Fraction(4) ** e for e in exps]
    got = composition_weights(ratios, limit)
    assert got == composition_weights_brute(ratios, limit, Fraction(1))
    assert all(isinstance(w, Fraction) for w in got)


@pytest.mark.parametrize("exps, limit", [
    ((3, 2, 1), 3), ((-4, -5), 4), ((2, -3, 0), 2), ((5,), 1), ((), 2),
])
def test_composition_weights_laurent_matches_enumeration(exps, limit):
    ratios = [LaurentPoly({e: 1}) for e in exps]
    got = composition_weights(ratios, limit)
    assert got == composition_weights_brute(ratios, limit, LaurentPoly.one())
    if exps:
        assert all(isinstance(w, LaurentPoly) for w in got)


def test_composition_weights_rejects_empty_window():
    with pytest.raises(ValueError):
        composition_weights([1, 1], 0)
