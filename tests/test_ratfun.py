import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qsym.ratfun import (
    LaurentPoly,
    PoleError,
    QsymDomainError,
    RatFun,
    ResourceLimitError,
    eval_rational,
    limit_at_one,
    ratfun_eq,
)
import qsym.ratfun as ratfun_mod


def P(terms):
    return LaurentPoly(terms)


ONE_PLUS_Q = P({0: 1, 1: 1})
ONE_MINUS_Q = P({0: 1, 1: -1})
ONE_MINUS_Q2 = P({0: 1, 2: -1})


# -- frozen examples ---------------------------------------------------------


def test_additive_inverse():
    f = RatFun(ONE_PLUS_Q)
    assert (f + (-f)).num.is_zero
    q = P({1: 1})
    assert 2 - q == P({0: 2, 1: -1}) and repr(2 - q) == "LaurentPoly(-q + 2)"
    assert 1 - RatFun(q, ONE_PLUS_Q) == RatFun(1, ONE_PLUS_Q)
    assert str(1 - RatFun(q, ONE_PLUS_Q)) == "1/(q + 1)"


def test_multiplicative_inverse():
    f = RatFun(LaurentPoly.one(), ONE_MINUS_Q)
    assert f * RatFun(ONE_MINUS_Q) == RatFun(1)
    q = P({1: 1})
    assert 1 / RatFun(q, ONE_PLUS_Q) == RatFun(ONE_PLUS_Q, q)
    assert str(1 / RatFun(q, ONE_PLUS_Q)) == "(q + 1)/q"
    with pytest.raises(ZeroDivisionError):
        2 / RatFun(0)


def test_add_zero_canonicalizes_to_reduced_form():
    f = RatFun(ONE_MINUS_Q2, ONE_MINUS_Q) + RatFun(0)
    c = f.canonical()
    assert c.num == ONE_PLUS_Q
    assert c.den == LaurentPoly.one()


def test_eq_by_cross_multiplication():
    assert ratfun_eq(RatFun(ONE_MINUS_Q2, ONE_MINUS_Q), RatFun(ONE_PLUS_Q))
    assert not ratfun_eq(RatFun(1, ONE_MINUS_Q), RatFun(1, ONE_MINUS_Q2))


def test_eq_closed_form_vs_recurrence_solution():
    # Solving q(q*b + 1) - b = 1 gives b = (1 - q)/(q^2 - 1).
    closed = RatFun(P({0: -1}), ONE_PLUS_Q)
    solved = RatFun(ONE_MINUS_Q, P({2: 1, 0: -1}))
    assert closed == solved


def test_eval_rational():
    assert eval_rational(RatFun(ONE_PLUS_Q), 6) == 7
    assert eval_rational(RatFun(P({0: -1}), ONE_PLUS_Q), 6) == Fraction(-1, 7)
    with pytest.raises(PoleError, match="q = 1"):
        eval_rational(RatFun(1, ONE_MINUS_Q), 1)


def test_eval_cancels_removable_pole():
    f = RatFun(ONE_MINUS_Q2, ONE_MINUS_Q)
    assert eval_rational(f, 1) == 2


def test_limit_at_one():
    assert limit_at_one(RatFun(ONE_MINUS_Q2, ONE_MINUS_Q)) == 2
    assert limit_at_one(RatFun(P({0: -1}), ONE_PLUS_Q)) == Fraction(-1, 2)
    with pytest.raises(PoleError):
        limit_at_one(RatFun(1, ONE_MINUS_Q))


def _reduced_value(f: RatFun, q0: Fraction):
    """The oracle for evaluate: canonical(), then the value of each side; None at a pole."""
    c = f.canonical()
    try:
        dv = c.den.evaluate(q0)
        return None if dv == 0 else c.num.evaluate(q0) / dv
    except PoleError:  # a negative power of the numerator at q0 = 0
        return None


@pytest.mark.parametrize("q0", [Fraction(1), Fraction(-1), Fraction(0), Fraction(2),
                                Fraction(1, 2), Fraction(-3, 2)], ids=str)
def test_evaluate_matches_canonical_oracle_without_a_gcd(q0, monkeypatch):
    # (f * L^i) / (g * L^j) with L = b*q - a, q0 = a/b: L^min(i, j) cancels,
    # and q0 is a pole exactly when j > i and f does not vanish there.
    rng = random.Random(20261018)
    lin = P({1: q0.denominator, 0: -q0.numerator})

    def rand_poly():
        lo = rng.randint(-3, 3)
        return P({lo + k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for k in range(rng.randint(1, 4))})

    cases = [
        RatFun(0, lin**2),                              # zero over a vanishing denominator
        RatFun(P({0: 3, 1: -1}), P({3: 2})),            # monomial-only denominator
        RatFun(P({-1: 1, 0: 2}), P({-2: 5})),           # negative exponents on both sides
        RatFun(P({-2: 1}), P({0: 1, 1: 1})),            # a negative power alone
        RatFun(lin**2 * P({0: 1, 1: 1}), lin**2 * P({-1: 2})),
    ]
    for _ in range(150):
        num, den = rand_poly(), rand_poly()
        if den.is_zero:
            continue
        cases.append(RatFun(num * lin ** rng.randint(0, 3), den * lin ** rng.randint(0, 3)))
    expected = [_reduced_value(f, q0) for f in cases]
    assert None in expected and any(v is not None for v in expected)

    def no_gcd(*args):
        raise AssertionError("evaluate computed a gcd")

    monkeypatch.setattr(ratfun_mod, "_gcd_cofactors", no_gcd)
    value = limit_at_one if q0 == 1 else lambda f: eval_rational(f, q0)
    for f, want in zip(cases, expected):
        if want is None:
            with pytest.raises(PoleError):
                value(f)
        else:
            assert value(f) == want, f


def test_negative_power_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RatFun(0) ** -1
    with pytest.raises(ValueError):  # a polynomial has no inverse powers
        P({1: 1}) ** -1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(LaurentPoly.one(), LaurentPoly())
    with pytest.raises(ZeroDivisionError):
        ONE_PLUS_Q.exact_div(LaurentPoly())
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    with pytest.raises(TypeError):
        RatFun("x")


# A float would become an exponent or a binary fraction: qsym is exact, so the
# scalar and exponent arguments refuse it, as the constructor and * do.


def test_float_shift_is_refused():
    with pytest.raises(TypeError):
        ONE_PLUS_Q.shift(0.5)


def test_float_scale_is_refused():
    with pytest.raises(TypeError):
        ONE_PLUS_Q.scale(0.1)


def test_float_inflate_is_refused():
    with pytest.raises(QsymDomainError):
        ONE_PLUS_Q.inflate(2.0)


def test_exact_div_stops_at_the_mignotte_width(monkeypatch):
    # Every width passes the remainder test and fails the bound: each quotient
    # read back has a digit just under half a digit, the divisor 1 + q being
    # 1 + X at width X.  The width at least doubles up to the cap, where no
    # integer quotient fits, and the division reports no quotient.
    sizes = []

    def wide_quotient(a, b):
        sizes.append(((b - 1).bit_length() - 1) // 8)
        return (b - 1) // 2 - 1, 0

    monkeypatch.setattr(ratfun_mod, "divmod", wide_quotient, raising=False)
    dividend = P({e: 1 for e in range(100)})
    assert dividend.exact_div(ONE_PLUS_Q) is None
    start, cap = sizes[0], sizes[-1]
    assert start == max(dividend.size, ONE_PLUS_Q.size) and cap > start
    assert all(2 * s <= t or t == cap for s, t in zip(sizes, sizes[1:]))
    assert len(sizes) <= math.ceil(math.log2(cap / start)) + 1


def test_span_guard(monkeypatch):
    monkeypatch.setattr(ratfun_mod, "MAX_SPAN", 10)
    with pytest.raises(ResourceLimitError):
        LaurentPoly({0: 1, 11: 1})
    LaurentPoly({0: 1, 10: 1})  # at the bound: fine
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            LaurentPoly({0: 1, 10**12: 1})
        assert tracemalloc.get_traced_memory()[1] < 10**6  # no dense list was allocated
    finally:
        tracemalloc.stop()

    def no_rewidth(*args):
        raise AssertionError("a polynomial past the span guard was packed")

    monkeypatch.setattr(ratfun_mod, "_rewidth", no_rewidth)
    with pytest.raises(ResourceLimitError):
        LaurentPoly({0: 1, 6: 1}) * LaurentPoly({0: 1, 5: 2})  # span 6 + 5 > 10
    with pytest.raises(ResourceLimitError):
        LaurentPoly({0: 1}) + LaurentPoly({11: 1})


def test_canonical_pushes_monomials_into_numerator():
    f = RatFun(LaurentPoly.one(), P({2: 1}))  # 1/q^2
    c = f.canonical()
    assert c.num == P({-2: 1})
    assert c.den == LaurentPoly.one()


def test_canonical_denominator_is_primitive_positive():
    f = RatFun(P({0: Fraction(1, 2)}), P({1: -2, 0: -2}))
    c = f.canonical()
    assert c.den.terms[max(c.den.terms)] > 0
    assert all(isinstance(v, int) for v in c.den.terms.values())
    assert c == f


@pytest.mark.parametrize("den", [P({0: 1}), P({3: 5}), P({0: 1, 1: 1}), P({0: 1, 2: 1}),
                                 P({-1: 2, 3: -2}), P({0: 1, 2: 1}) * P({0: 1, 6: -1})],
                         ids=["one", "monomial", "stride-1", "factor", "stride-4", "stride-2"])
def test_canonical_of_a_stride_below_the_offset_gcd(den):
    # 1 + q + q^2 - q is built at stride 1 and lives in q^2: canonical() reduces
    # it at its structural stride and gives the form of the stride-2 value.
    summed, built = P({0: 1, 1: 1, 2: 1}) - P({1: 1}), P({0: 1, 2: 1})
    assert (summed.g, built.g) == (1, 2) and summed == built
    got, want = RatFun(summed, den).canonical(), RatFun(built, den).canonical()
    assert str(got) == str(want) and got.to_json_obj() == want.to_json_obj()


def test_str_parenthesises_sums_only():
    assert str(RatFun(P({0: -1}), ONE_PLUS_Q)) == "-1/(q + 1)"
    assert str(RatFun(P({3: 1, 0: 2}), P({2: 1}))) == "(q^3 + 2)/q^2"
    assert str(RatFun(P({1: Fraction(1, 2)}), P({0: 3}))) == "1/2*q/3"
    assert str(RatFun(ONE_MINUS_Q2)) == "-q^2 + 1"
    assert str(RatFun(0, ONE_PLUS_Q)) == "0/(q + 1)"


# -- serialization ------------------------------------------------------------


def test_json_round_trip_golden():
    f = RatFun(P({0: -1}), ONE_PLUS_Q)
    obj = f.to_json_obj()
    assert obj == {"num": [[0, "-1"]], "den": [[0, "1"], [1, "1"]]}
    back = {side: LaurentPoly({int(e): Fraction(s) for e, s in pairs})
            for side, pairs in json.loads(json.dumps(obj)).items()}
    assert RatFun(back["num"], back["den"]) == f


def test_json_pairs_sorted_ascending():
    p = P({3: 1, -2: Fraction(1, 2), 0: -4})
    assert p.to_pairs() == [[-2, "1/2"], [0, "-4"], [3, "1"]]
    assert LaurentPoly({int(e): Fraction(s) for e, s in p.to_pairs()}) == p


# -- property tests -----------------------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def laurent_polys(draw, max_terms=5):
    pairs = draw(st.dictionaries(st.integers(-5, 5), coeffs, max_size=max_terms))
    return LaurentPoly(pairs)


@st.composite
def nonzero_polys(draw):
    p = draw(laurent_polys())
    if p.is_zero:
        p = p + LaurentPoly({draw(st.integers(-3, 3)): 1})
    return p


@st.composite
def ratfuns(draw):
    return RatFun(draw(laurent_polys()), draw(nonzero_polys()))


@settings(derandomize=True, max_examples=150)
@given(ratfuns(), ratfuns(), ratfuns())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(derandomize=True, max_examples=150)
@given(ratfuns(), ratfuns(), ratfuns())
def test_eq_is_equivalence(a, b, c):
    assert a == a
    if a == b:
        assert b == a
    if a == b and b == c:
        assert a == c


@settings(derandomize=True, max_examples=100)
@given(ratfuns())
def test_canonical_idempotent_and_class_preserving(f):
    c = f.canonical()
    assert c == f
    cc = c.canonical()
    assert cc.num == c.num and cc.den == c.den


@settings(derandomize=True, max_examples=100)
@given(ratfuns(), ratfuns(), st.fractions(min_value=-4, max_value=4, max_denominator=4))
def test_eval_is_a_homomorphism(a, b, q0):
    try:
        va, vb = a.evaluate(q0), b.evaluate(q0)
        vsum = (a + b).evaluate(q0)
        vprod = (a * b).evaluate(q0)
    except PoleError:
        return
    assert vsum == va + vb
    assert vprod == va * vb


@settings(derandomize=True, max_examples=100)
@given(laurent_polys(), laurent_polys())
def test_mul_matches_schoolbook(a, b):
    ref = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            ref[e1 + e2] = ref.get(e1 + e2, 0) + c1 * c2
    assert (a * b).terms == {e: c for e, c in ref.items() if c}


@settings(derandomize=True, max_examples=100)
@given(nonzero_polys(), nonzero_polys())
def test_exact_div_inverts_mul(a, b):
    prod = a * b
    q = prod.exact_div(b)
    assert q is not None and q == a


@settings(derandomize=True, max_examples=60)
@given(nonzero_polys(), nonzero_polys())
def test_gcd_divides_both(a, b):
    g = _checked_cofactors(_prim(a), _prim(b))[0]
    assert a.exact_div(g) is not None
    assert b.exact_div(g) is not None


_rng = random.Random(20261018)
_K = 8


def _signed(bits_lo: int, bits_hi: int) -> int:
    return _rng.choice((-1, 1)) * _rng.getrandbits(_rng.randint(bits_lo, bits_hi)) or 1


def _dense_case(la: int, lb: int, bits_lo: int = 1, bits_hi: int = 200) -> tuple:
    return ({i: _signed(bits_lo, bits_hi) for i in range(la)},
            {i - 3: _signed(bits_lo, bits_hi) for i in range(lb)})


def _extreme_case(bits: int, lb: int, sign: int) -> tuple:
    """The middle product coefficients reach max|a| * max|b| * len(b), the
    bound the digit width is chosen from.  Over the cases below its bit
    length falls just under and on a byte boundary (with _K = 8: 15 and 16
    bits at bits = 6)."""
    m = 2**bits - 1
    return {i: m for i in range(lb + 3)}, {i: sign * m for i in range(lb)}


KRONECKER_CASES = {
    "400x350": ({i: (i % 11) - 5 for i in range(400)}, {i: (i % 7) - 3 for i in range(350)}),
    "square-below-crossover": _dense_case(_K - 1, _K - 1),
    "square-at-crossover": _dense_case(_K, _K),
    "long-below-crossover": _dense_case(300, _K - 1),
    "long-at-crossover": _dense_case(300, _K),
    "wide-digits": _dense_case(60, 40, 150, 200),
    "q6-sparse": ({6 * i: _signed(1, 40) for i in range(60)},
                  {i: _signed(1, 40) for i in range(25)}),
    **{f"digit-bound-{bits}x{lb}{'-+'[s > 0]}": _extreme_case(bits, lb, s)
       for bits in (1, 2, 6, 8, 63, 100) for lb in (_K, _K + 1) for s in (1, -1)},
}


@pytest.mark.parametrize("a, b", KRONECKER_CASES.values(), ids=KRONECKER_CASES.keys())
def test_big_integer_product_uses_kronecker_path(a, b):
    a, b = LaurentPoly(a), LaurentPoly(b)
    prod = a * b
    ref = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            ref[e1 + e2] = ref.get(e1 + e2, 0) + c1 * c2
    assert prod.terms == {e: c for e, c in ref.items() if c}


# -- heuristic gcd ---------------------------------------------------------------


def _prim(p: LaurentPoly) -> LaurentPoly:
    """The primitive part of p in q, packed, as _gcd_cofactors takes it."""
    return ratfun_mod._primitive(p, 1)[1]


def _dense(p: LaurentPoly) -> list:
    """The integer coefficient list of q**lo .. the top term of p (den 1)."""
    terms = p.terms
    return [terms.get(e, 0) for e in range(p.lo, max(terms) + 1)]


def _checked_cofactors(a: LaurentPoly, b: LaurentPoly) -> tuple:
    """_gcd_cofactors(a, b) = (G, a/G, b/G), packed, once G * (a/G) = a and
    G * (b/G) = b are checked."""
    g, qa, qb = got = ratfun_mod._gcd_cofactors(a, b)
    assert g * qa == a and g * qb == b
    return got


def _reduce_by(f: RatFun, g: list) -> RatFun:
    """f reduced by its gcd g the long way: shift out the monomials, exact_div
    both sides by g, move the denominator's content into the numerator."""
    a, b = f.num.lo, f.den.lo
    g = LaurentPoly(dict(enumerate(g)))
    n_poly, d_poly = f.num.shift(-a).exact_div(g), f.den.shift(-b).exact_div(g)
    content, d_prim = ratfun_mod._primitive(d_poly, 1)
    return RatFun(n_poly.scale(Fraction(d_poly.den, content)).shift(a - b),
                  d_prim.shift(d_poly.lo))


def _assert_matches_prs(f: RatFun) -> None:
    a, b = _prim(f.num), _prim(f.den)
    g = ratfun_mod._prs_gcd(_dense(a), _dense(b))
    assert _checked_cofactors(a, b)[0] == P(dict(enumerate(g)))
    c, ref = f.canonical(), _reduce_by(f, g)
    assert c.num == ref.num and c.den == ref.den


wide_coeffs = st.one_of(coeffs, st.integers(-10**12, 10**12))


@st.composite
def wide_polys(draw):
    p = LaurentPoly(draw(st.dictionaries(st.integers(-3, 8), wide_coeffs, max_size=6)))
    return p if p else LaurentPoly({draw(st.integers(-3, 3)): draw(st.integers(1, 10**6))})


@settings(derandomize=True, max_examples=150)
@given(st.one_of(nonzero_polys(), wide_polys()), st.one_of(nonzero_polys(), wide_polys()),
       st.one_of(nonzero_polys(), wide_polys()))
def test_heuristic_gcd_matches_prs_on_planted_factor(a, b, c):
    _assert_matches_prs(RatFun(a * c, b * c))


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("arg", (0, 1))
def test_heuristic_gcd_matches_prs_on_beta_higher(n, arg):
    from qsym.qbernoulli import beta_higher, beta_weighted

    for r in (1, 2, 3):
        for w in (1, 2, 3):
            _assert_matches_prs(beta_higher(n, r, w, arg))
    if n <= 5:  # and the weighted forms, whose brackets [m] run over m = j + h - k
        for r in (1, 2):
            for h in (r, r + 2, -n - 1):
                for w in (1, 2):
                    _assert_matches_prs(beta_weighted(n, h, r, w, arg))


def spy_heuristic_points(monkeypatch) -> list:
    """Patch _tight_bits to log the digit size of each heuristic evaluation
    point: _gcd_cofactors calls it once per point, to bound the digits of h."""
    points, tight_bits = [], ratfun_mod._tight_bits

    def spy(P, n, size):
        if sys._getframe(1).f_code.co_name == "_gcd_cofactors":
            points.append(size)
        return tight_bits(P, n, size)

    monkeypatch.setattr(ratfun_mod, "_tight_bits", spy)
    return points


@pytest.mark.parametrize("size", (1, 2, 3))
def test_symmetric_digits_read_back_every_value(size):
    # _gcd_cofactors reads h at width size with n = h.bit_length() // (8*size) + 2
    # digits: its balanced digits in [-x/2, x/2) read back h, and _tight_bits
    # stays below 8*size exactly when no digit is -x/2, the one packing refuses.
    x = 2 ** (8 * size)
    half = x // 2
    edges = [0, 1, half - 1, half, x - 1, x, half * x - 1, half * x, x * x - 1, half * x * x - 1]
    for h in edges + [_rng.getrandbits(_rng.randint(1, 300)) for _ in range(200)]:
        n = h.bit_length() // (8 * size) + 2
        digits = ratfun_mod._unpack_int(h, n, size)
        assert sum(d * x**i for i, d in enumerate(digits)) == h
        assert all(-half <= d < half for d in digits)
        bits = ratfun_mod._tight_bits(h, n, size)
        assert bits == max(abs(d) for d in digits).bit_length()
        assert (bits < 8 * size) == (-half not in digits)
        if bits < 8 * size:
            assert ratfun_mod._pack_int(digits, size) == h


def test_heuristic_gcd_skips_an_h_with_a_half_digit(monkeypatch):
    # A = q^2 + 6 and B = 17q^3 - 4q^2 - 26q - 27 are coprime (B = -128q - 3
    # mod A), and their widest coefficient, 27, puts the first point at
    # x = 2**8.  There gcd(A(x), B(x)) = 3 + 128x, whose balanced digits
    # [3, -128, 1] hold -x/2: no packing holds it, so the point is skipped
    # before any trial division, and the next, x = 2**16, proves the gcd 1.
    A, B = [6, 0, 1], [-27, -26, -4, 17]
    pack = ratfun_mod._pack_int
    assert math.gcd(pack(A, 1), pack(B, 1)) == 3 + 128 * 2**8
    points = spy_heuristic_points(monkeypatch)
    divisors, exact_div = [], LaurentPoly.exact_div

    def div_spy(self, d):
        divisors.append(_dense(d))
        return exact_div(self, d)

    monkeypatch.setattr(LaurentPoly, "exact_div", div_spy)
    got = _checked_cofactors(_prim(P(dict(enumerate(A)))), _prim(P(dict(enumerate(B)))))
    assert [_dense(p) for p in got] == [[1], A, B]
    assert points == [1, 2]
    assert divisors == [[1], [1]]  # both trial divisions at x = 2**16


def test_heuristic_gcd_retries_then_falls_back(monkeypatch):
    # A = q^3 - 2q^2 + 23q - 22 and B = q + 50 are coprime, but the first
    # evaluation point is x = 2**16 (half a digit above 2**(6 + 1) + 29, the
    # widest coefficient 50 having 6 bits), and
    # A(-50) = -2 * (x + 50), so B(x) divides A(x): the gcd of the packed
    # values reads back as q + 50, which fails trial division.
    A, B = [-22, 23, -2, 1], [50, 1]
    pack = ratfun_mod._pack_int
    assert math.gcd(pack(A, 2), pack(B, 2)) == pack(B, 2) == 2**16 + 50
    prs_calls, prs = [], ratfun_mod._prs_gcd

    def spy(*lists):
        prs_calls.append(lists)
        return prs(*lists)

    monkeypatch.setattr(ratfun_mod, "_prs_gcd", spy)
    points = spy_heuristic_points(monkeypatch)

    def cofactor_lists(A, B):
        points.clear()
        return [_dense(p) for p in _checked_cofactors(_prim(P(dict(enumerate(A)))),
                                                      _prim(P(dict(enumerate(B)))))]

    # (q + 1)(q + 2) and (q + 1)(q + 3): the first point proves the gcd q + 1.
    assert cofactor_lists([2, 3, 1], [3, 4, 1]) == [[1, 1], [2, 1], [3, 1]] and points == [1]
    assert cofactor_lists(A, B) == [[1], A, B] and points == [2, 4]
    assert cofactor_lists(B, A) == [[1], B, A]  # q + 50 divides the first only
    assert prs_calls == []  # the second, wider point proved the gcd
    monkeypatch.setattr(ratfun_mod, "_HEU_ATTEMPTS", 1)
    assert cofactor_lists(A, B) == [[1], A, B] and points == [2]
    assert prs_calls == [(A, B)]
    monkeypatch.setattr(ratfun_mod, "_HEU_ATTEMPTS", 0)
    assert cofactor_lists([2, 3, 1], [3, 4, 1]) == [[1, 1], [2, 1], [3, 1]] and points == []
    assert len(prs_calls) == 2

    # With no heuristic attempt at all, canonical() reduces through PRS alone.
    c = P({0: 1, 1: 3, 2: 1})
    f = RatFun(P(dict(enumerate(A))) * c, P(dict(enumerate(B))) * c.shift(2))
    reduced = f.canonical()
    assert reduced.num == P({-2: -22, -1: 23, 0: -2, 1: 1}) and reduced.den == P({0: 50, 1: 1})
    assert len(prs_calls) == 3
