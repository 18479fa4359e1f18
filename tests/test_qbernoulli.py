"""The closed-form evaluators checked against independent oracles: the number
family against its defining recurrence, T-sums against brute-force tuple
enumeration, and the classical limit against the power-series oracle."""

import itertools
import math
from fractions import Fraction

import pytest

from composition_kernel import composition_weights
from sequential_sum import sequential_closed_form
from qsym.qbernoulli import (
    BetaQuery,
    DegenerateWeightError,
    WeightedBetaQuery,
    _check_t_args,
    _higher_scaffold,
    _t_sum_grouped,
    _weighted_scaffold,
    beta_higher,
    beta_number,
    beta_weighted,
    classical_bernoulli,
    classical_bernoulli_higher,
    closed_form,
    t_sum,
    t_sum_h,
    weights,
    window_product,
)
from qsym.qcore import bracket_poly, q_bracket
import qsym.ratfun as ratfun_mod
from qsym.ratfun import (LaurentPoly, QsymDomainError, RatFun, ResourceLimitError,
                          limit_at_one)

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
    with pytest.raises(QsymDomainError):
        classical_bernoulli(-1)


def test_classical_higher_examples():
    assert classical_bernoulli_higher(0, 1, 0) == 1
    assert classical_bernoulli_higher(1, 1, 0) == Fraction(-1, 2)
    assert classical_bernoulli_higher(1, 2, 0) == -1
    # B_1 of order r is -r/2
    for r in range(1, 6):
        assert classical_bernoulli_higher(1, r, 0) == Fraction(-r, 2)
    with pytest.raises(QsymDomainError):
        classical_bernoulli_higher(-1, 1, 0)


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


# Every (r, wlim, base) with r <= 3 and wlim <= 4, so at most 4^3 = 64 tuples.
T_SUM_GRID = list(itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3)))


@pytest.mark.parametrize("r, wlim, b", T_SUM_GRID)
def test_t_sum_matches_brute_force(r, wlim, b):
    for n in range(5):
        for i in range(n + 1):
            assert t_sum(n, i, r, wlim, b) == t_sum_brute(n, i, r, wlim, b), (n, i)


@pytest.mark.parametrize("r, wlim, b", T_SUM_GRID)
def test_t_sum_h_matches_brute_force(r, wlim, b):
    for n in range(5):
        for i in range(n + 1):
            # ratio exponents base(i+h-k), k < r: all positive; one zero with the
            # rest of both signs; zero and negative; all negative
            for h in (r, 1 - i, -i, -i - r):
                assert t_sum_h(n, i, h, r, wlim, b) == t_sum_h_brute(n, i, h, r, wlim, b), (n, i, h)


@pytest.mark.parametrize("r, wlim, b", [(1, 3, 2), (2, 1, 3), (2, 4, 1), (3, 2, 2)])
def test_t_sum_guard_covers_every_polynomial_built(r, wlim, b, monkeypatch):
    # At the smallest MAX_SPAN _check_t_args accepts, building the sum must
    # not trip the span check of any intermediate polynomial.
    for n in range(4):
        for i in range(n + 1):
            for h in (None, r, -i, -i - r):
                lo, hi = 0, 1000
                while lo < hi:
                    mid = (lo + hi) // 2
                    monkeypatch.setattr(ratfun_mod, "MAX_SPAN", mid)
                    try:
                        _check_t_args(n, i, r, wlim, b, h)
                        hi = mid
                    except ResourceLimitError:
                        lo = mid + 1
                monkeypatch.setattr(ratfun_mod, "MAX_SPAN", lo)
                exps, mult = _check_t_args(n, i, r, wlim, b, h)
                _t_sum_grouped(n, i, exps, mult, wlim, b)


@pytest.mark.parametrize("r, wlim, b", [(1, 3, 2), (2, 2, 1), (2, 3, 3), (3, 2, 2)])
def test_t_sum_numerator_is_a_difference_of_diagonals(r, wlim, b):
    # T(n,i) (1-q^b)^(n-i) = sum_m C(n-i,m) (-1)^m T(i+m, i+m): the thm4/thm6
    # sides build every T-sum numerator from the diagonal window products.
    for n in range(5):
        for i in range(n + 1):
            scale = RatFun(LaurentPoly({0: 1, b: -1})) ** (n - i)
            for h in (None, r, 1 - i, -i - r):
                tsum = ((lambda s, t: t_sum(s, t, r, wlim, b)) if h is None
                        else (lambda s, t: t_sum_h(s, t, h, r, wlim, b)))
                diffs = RatFun(0)
                for m in range(n - i + 1):
                    diffs = diffs + (-1) ** m * math.comb(n - i, m) * tsum(i + m, i + m)
                assert tsum(n, i) * scale == diffs, (n, i, h)


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


# -- one exponent vector for both families ----------------------------------------


def _product(polys) -> LaurentPoly:
    out = LaurentPoly.one()
    for f in polys:
        out = out * f
    return out


def _assert_scaffold(scaffold, n, w, windows, factor):
    """den = (1-q^w)^n * prod(factors), and term j is the pair (scalar, cof) with
    scalar = (-1)^j C(n,j) factor(j) and cof * prod(window j) = prod(factors),
    factors being the union of the windows with multiplicity one."""
    den, terms = scaffold
    factors = {m: f for window in windows for m, f in window.items()}
    full = _product(factors.values())
    assert den == LaurentPoly({0: 1, w: -1}) ** n * full
    assert len(terms) == n + 1
    for j, window in enumerate(windows):
        scalar, cof = terms[j]
        assert scalar == (-1) ** j * math.comb(n, j) * factor(j), j
        assert cof * _product(window.values()) == full, j


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("r, w", [(1, 1), (2, 1), (3, 2), (1, 3)])
def test_higher_scaffold_windows(n, r, w):
    # term j of beta_higher divides by [j+1]^r
    windows = [{j + 1: bracket_poly(j + 1, w) ** r} for j in range(n + 1)]
    _assert_scaffold(_higher_scaffold(n, r, w), n, w, windows, lambda j: (j + 1) ** r)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("r, w", [(1, 1), (2, 1), (3, 2), (2, 3)])
def test_weighted_scaffold_windows(n, r, w):
    # h on both sides of the degenerate band -n <= h <= r-1
    for h in (r, r + 2, -n - 1, -n - 3):
        # term j of beta_weighted divides by [j+h-k] for k = 0..r-1
        windows = [{j + h - k: bracket_poly(j + h - k, w) for k in range(r)} for j in range(n + 1)]
        _assert_scaffold(_weighted_scaffold(n, h, r, w), n, w, windows,
                         lambda j: math.prod(j + h - k for k in range(r)))


@pytest.mark.parametrize("r, w", [(1, 1), (2, 1), (3, 2), (2, 3)])
def test_closed_form_denominators_nest(r, w):
    # den_n = den_i (1-q^w)^(n-i) e_(i+1) ... e_n with e_k = [k+1]^r (order r) or
    # [h+k] (weighted), all in base q^w: the thm4/thm6 sides sum over one den_n.
    n = 5
    for h in (None, r, r + 2, -n - 1, -n - 3):
        def den(i):
            return (beta_higher(i, r, w, 1) if h is None else beta_weighted(i, h, r, w, 1)).den

        def e(k):
            return bracket_poly(k + 1, w, r) if h is None else bracket_poly(h + k, w)

        for i in range(n + 1):
            nested = den(i) * LaurentPoly({0: 1, w: -1}) ** (n - i)
            for k in range(i + 1, n + 1):
                nested = nested * e(k)
            assert nested == den(n), (h, i)


def _expanded(exps, mult):
    """c as a vector: each exponent of exps taken mult times."""
    return [e for e in exps for _ in range(mult)]


def test_weight_exponents():
    assert _expanded(*weights(3)) == [1, 1, 1]
    assert _expanded(*weights(1)) == [1]
    assert _expanded(*weights(3, 5)) == [5, 4, 3]
    assert _expanded(*weights(2, -2)) == [-2, -3]
    assert _expanded(*weights(1, 1)) == [1]
    assert _expanded(*weights(4, 2)) == [2, 1, 0, -1]
    # nothing of length r is built: one exponent taken r times, or a range
    assert weights(10**18) == (range(1, 2), 10**18)
    assert weights(10**18, 0) == (range(0, -10**18, -1), 1)
    # T-sum ratios base(i+1), r times, and base(i+h-k), k = 0..r-1
    assert _check_t_args(4, 1, 3, 2, 2) == ((4,), 3)
    assert _check_t_args(4, 1, 3, 2, 2, h=5) == ((12, 10, 8), 1)
    assert _check_t_args(2, 0, 2, 2, 1, h=-4) == ((-4, -5), 1)


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_window_product_matches_explicit_windows(limit):
    # prod_k sum_{t<limit} q^(e_k t) over the expanded vector, each window
    # summed term by term, so a zero exponent gives the constant limit
    for exps in ([0], [2], [-1], [1, 0, -2], [-3, -1], [3, 2, 1], [0, -1, -2]):
        for mult in (1, 2, 3):
            want = LaurentPoly.one()
            for e in _expanded(exps, mult):
                window = LaurentPoly()
                for t in range(limit):
                    window = window + LaurentPoly({e * t: 1})
                want = want * window
            assert window_product(limit, exps, mult) == want, (exps, mult)


def closed_form_by_terms(n, w, arg, factor):
    """(1-q^w)^(-n) sum_j C(n,j) (-1)^j q^(j arg) factor(j), with RatFun division."""
    acc = RatFun(0)
    for j in range(n + 1):
        acc = acc + (-1) ** j * math.comb(n, j) * RatFun(LaurentPoly({j * arg: 1})) * factor(j)
    return acc / RatFun(LaurentPoly({0: 1, w: -1})) ** n


@pytest.mark.parametrize("n, r, w, arg", [(0, 2, 1, 0), (2, 2, 1, 1), (3, 1, 2, 0), (3, 3, 2, 2)])
def test_closed_forms_match_term_by_term_formula(n, r, w, arg):
    def higher(j):
        return (RatFun(j + 1) / q_bracket(j + 1, w)) ** r

    assert beta_higher(n, r, w, arg) == closed_form_by_terms(n, w, arg, higher)
    for h in (r, r + 2, -n - 1, -n - 2):
        def weighted(j):
            out = RatFun(1)
            for k in range(r):
                out = out * RatFun(j + h - k) / q_bracket(j + h - k, w)
            return out

        assert beta_weighted(n, h, r, w, arg) == closed_form_by_terms(n, w, arg, weighted), h


# power(j) as closed_form receives it: one-digit powers fold into the term's
# scalar and shift, multi-digit ones multiply the cofactor first.
POWERS = {
    "monomial": lambda j: LaurentPoly({3 * j: 1}),
    "negative exponent": lambda j: LaurentPoly({-2 * j - 1: 1}),
    "int coefficient": lambda j: LaurentPoly({j: 7 - 3 * j}),
    "fraction coefficient": lambda j: LaurentPoly({-j: Fraction(2 * j + 1, 6)}),
    "multi-digit": lambda j: LaurentPoly({0: 1, j + 1: Fraction(-1, 3), -j: 5}),
    "mixed": lambda j: LaurentPoly({j: 2}) if j % 2 else LaurentPoly({0: 1, 2 * j + 1: -4}),
}


@pytest.mark.parametrize("power", POWERS.values(), ids=POWERS.keys())
def test_closed_form_matches_the_sequential_loop(power):
    for n, r, w in itertools.product((0, 1, 3, 5), (1, 2), (1, 3)):
        for h in (None, r, r + 2, -n - 1):
            got, want = closed_form(n, r, w, power, h), sequential_closed_form(n, r, w, power, h)
            assert got.den is want.den and got.num == want.num, (n, r, w, h)


def closed_forms_for_canonical():
    """Unreduced closed forms and T-sums, some of them already in q^w."""
    for n, r, w in itertools.product(range(6), (1, 2, 3), (1, 2)):
        for arg in (0, w, 1, -w):
            yield beta_higher(n, r, w, arg)
        for h in (r, r + 2, -n - 1):
            yield beta_weighted(n, h, r, w, arg)
    for n, r, wlim, base in itertools.product(range(5), (1, 2), (2, 3), (1, 2)):
        for i in range(n + 1):
            yield t_sum(n, i, r, wlim, base)
            yield t_sum_h(n, i, r + 1, r, wlim, base)


def reduce_without_deflation(f):
    """canonical()'s primitive (num, den), reduced by one gcd on the full
    stride-1 primitive parts."""
    n_prim = ratfun_mod._primitive(f.num, 1)[1]
    d_prim = ratfun_mod._primitive(f.den, 1)[1]
    return ratfun_mod._gcd_cofactors(n_prim, d_prim)[1:]


def test_canonical_commutes_with_inflation():
    # canonical() reduces a pair in q^g as a pair in q; inflating by g before or
    # after it must give the same form, and the gcd at stride 1 agrees.
    count = 0
    for f in closed_forms_for_canonical():
        c = f.canonical()
        for g in (1, 2, 3):
            got = RatFun(f.num.inflate(g), f.den.inflate(g)).canonical()
            want = RatFun(c.num.inflate(g), c.den.inflate(g))
            assert got.to_json_obj() == want.to_json_obj() and str(got) == str(want), (f, g)
            num, den = reduce_without_deflation(RatFun(f.num.inflate(g), f.den.inflate(g)))
            assert got.den == den, (f, g)
            assert ratfun_mod._primitive(got.num, 1)[1] == num, (f, g)
            count += 1
    assert count > 1000
