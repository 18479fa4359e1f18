"""The packed LaurentPoly core against the dense-list core it replaced.

The reference below is the former list implementation: ``conv`` with its
schoolbook branch and its Kronecker branch (crossover at 8 coefficients), and
the list add, on normal forms ``(lo, coeffs, den)``.  Every packed operation
must give the reference's normal form, and every packed value must satisfy the
invariants of the module docstring of ``qsym.ratfun``.
"""

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import qsym.ratfun as ratfun_mod
from qsym.qbernoulli import t_sum, t_sum_h
from qsym.qcore import bracket_poly
from qsym.ratfun import (LaurentPoly, QsymDomainError, ResourceLimitError, _new, _pack_int,
                         _rewidth, _tight, _tight_bits, _unpack_int)
from sequential_sum import sequential_sum

KRONECKER_MIN = 8


# -- the reference: the former dense-list core ---------------------------------


def normal_form(lo: int, coeffs: list, den: int = 1) -> tuple:
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    if not end:
        return 0, [], 1
    start = 0
    while not coeffs[start]:
        start += 1
    coeffs = coeffs[start:end]
    g = math.gcd(den, *coeffs)
    return lo + start, [c // g for c in coeffs], den // g


def conv(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    if len(b) < KRONECKER_MIN:
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    if x:
                        out[j] += x * y
        return out
    bound = max(map(abs, a)) * max(map(abs, b)) * len(b)
    size = bound.bit_length() // 8 + 1
    packed = _pack_int(a, size)
    prod = packed * (packed if b is a else _pack_int(b, size))
    return _unpack_int(prod, len(a) + len(b) - 1, size)


def ref_add(a: tuple, b: tuple) -> tuple:
    if not b[1]:
        return a
    if not a[1]:
        return b
    if a[0] > b[0]:
        a, b = b, a
    (alo, ca, ad), (blo, cb, bd) = a, b
    length = max(len(ca), blo - alo + len(cb))
    den = ad
    if ad != bd:
        den = math.lcm(ad, bd)
        ca = [c * (den // ad) for c in ca]
        cb = [c * (den // bd) for c in cb]
    out = ca + [0] * (length - len(ca))
    for i, c in enumerate(cb, blo - alo):
        out[i] += c
    return normal_form(alo, out, den)


def ref_mul(a: tuple, b: tuple) -> tuple:
    if not a[1] or not b[1]:
        return 0, [], 1
    return normal_form(a[0] + b[0], conv(a[1], b[1]), a[2] * b[2])


def ref_scale(a: tuple, c: Fraction) -> tuple:
    return normal_form(a[0], [x * c.numerator for x in a[1]], a[2] * c.denominator)


def ref_divides(a: tuple, d: tuple) -> bool:
    """Long division over Q of the polynomial parts: is the remainder zero?"""
    rem, dd = [Fraction(c) for c in a[1]], [Fraction(c) for c in d[1]]
    while len(rem) >= len(dd):
        top = rem[-1] / dd[-1]
        for j, c in enumerate(dd, len(rem) - len(dd)):
            rem[j] -= top * c
        rem.pop()
    return not any(rem)


def fields(p: LaurentPoly) -> tuple:
    """p's normal form, read through the boundary, after checking the packed
    invariants: P packs the digits coeffs[::g] of the dense list (built from
    terms times den), every off-stride coefficient is 0, and a monomial or zero
    has stride 0."""
    terms = {e: c * p.den for e, c in p.terms.items()}
    assert all(Fraction(c).denominator == 1 for c in terms.values())
    assert min(terms, default=p.lo) == p.lo
    coeffs = [0] * (max(terms) - p.lo + 1) if terms else []
    for e, c in terms.items():
        coeffs[e - p.lo] = int(c)
    if p.n > 1:
        assert p.g >= 1 and len(coeffs) == (p.n - 1) * p.g + 1
        assert not any(c for i, c in enumerate(coeffs) if i % p.g)
        digits = coeffs[::p.g]
    else:
        assert p.g == 0
        digits = coeffs
    assert p.n == len(digits)
    assert p.P == sum(c << (8 * p.size * i) for i, c in enumerate(digits))
    assert p.bits <= 8 * p.size - 1
    assert all(abs(c) < 2**p.bits for c in coeffs)
    assert p.den >= 1 and math.gcd(p.den, *coeffs) == 1
    if coeffs:
        assert coeffs[0] and coeffs[-1]
    else:
        assert (p.lo, p.P, p.den) == (0, 0, 1)
    return p.lo, coeffs, p.den


def widened(p: LaurentPoly, extra: int) -> LaurentPoly:
    """The value p stored at a digit width `extra` bytes wider."""
    size = p.size + extra
    return _new(p.lo, _rewidth(p.P, p.n, p.size, size), p.n, size, p.bits, p.den, p.g)


def restrided(p: LaurentPoly, g: int) -> LaurentPoly:
    """The value p stored at stride g, a divisor of p's stride, with zero
    digits between its coefficients (a monomial keeps stride 0)."""
    if p.n < 2:
        return p
    k = p.g // g
    return _new(p.lo, _rewidth(p.P, p.n, p.size, p.size, k), (p.n - 1) * k + 1, p.size,
                p.bits, p.den, g)


# -- strategies: coefficients on both sides of byte boundaries --------------------

EDGES = [s * (2 ** (8 * k - 1) + d) for k in (1, 2, 3, 5) for d in (-2, -1, 0, 1) for s in (1, -1)]
ints = st.one_of(st.integers(-9, 9), st.sampled_from(EDGES), st.integers(-2**70, 2**70))
coeffs = st.one_of(ints, st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def polys(draw, max_terms=9):
    p = LaurentPoly(draw(st.dictionaries(st.integers(-4, 10), coeffs, max_size=max_terms)))
    extra = draw(st.integers(0, 3))
    return widened(p, extra) if extra and p else p


@st.composite
def nonzero_polys(draw):
    p = draw(polys())
    return p if p else LaurentPoly({draw(st.integers(-3, 3)): draw(st.sampled_from(EDGES))})


@settings(derandomize=True, max_examples=300)
@given(polys(), polys())
def test_add_and_sub_match_list_core(a, b):
    assert fields(a + b) == ref_add(fields(a), fields(b))
    neg = fields(-b)
    assert neg == (b.lo, [-c for c in fields(b)[1]], b.den)
    assert fields(a - b) == ref_add(fields(a), neg)


@settings(derandomize=True, max_examples=300)
@given(polys(), st.one_of(ints, coeffs, st.sampled_from([0, 1, -1])))
def test_scale_and_shift_match_list_core(a, c):
    assert fields(a.scale(c)) == ref_scale(fields(a), Fraction(c))
    lo, cs, den = fields(a)
    assert fields(a.shift(3)) == ((lo + 3) if cs else 0, cs, den)


@settings(derandomize=True, max_examples=300)
@given(polys(), polys())
def test_mul_matches_both_list_branches(a, b):
    want = ref_mul(fields(a), fields(b))
    assert fields(a * b) == want
    assert fields(a * a) == ref_mul(fields(a), fields(a))
    la, lb = fields(a)[1], fields(b)[1]
    if la and lb:  # the two branches of the reference agree with each other
        school = [0] * (len(la) + len(lb) - 1)
        for i, x in enumerate(la):
            for j, y in enumerate(lb):
                school[i + j] += x * y
        assert conv(la, lb) == school


@settings(derandomize=True, max_examples=300)
@given(polys(), polys(), st.integers(1, 4))
def test_eq_is_exact_across_widths(a, b, extra):
    wa = widened(a, extra)
    assert wa == a and a == wa and fields(wa) == fields(a)
    assert (a == b) == (fields(a) == fields(b)) == (wa == b)
    assert (a + b) - b == a  # the sum's width need not be a's


@pytest.mark.parametrize("c", [1, -1, 127, -127, 128, -128, 129, -129, 255, -256])
def test_tight_bits_is_the_least_bound(c):
    # The least b with every |c_i| < 2**b, with c the widest digit, at every
    # width that holds it and with a spare top digit for a carry; a product
    # narrowed by it keeps the invariants.
    want = abs(c).bit_length()
    for coeffs in ([c], [1, c], [c, -1, 0, c]):
        for size, spare in itertools.product(range(want // 8 + 1, 4), (0, 1)):
            P = _pack_int(coeffs, size)
            assert _tight_bits(P, len(coeffs) + spare, size) == want, (coeffs, size, spare)
    p = widened(LaurentPoly({0: c, 1: 1}), 2)
    assert _tight(p) == want
    assert fields(p * p) == ref_mul(fields(p), fields(p))


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.sampled_from(EDGES + [0, 1, -1]), min_size=1, max_size=12), st.integers(0, 4))
def test_widen_narrow_round_trip(digits, extra):
    size = max(abs(c) for c in digits).bit_length() // 8 + 1
    P = _pack_int(digits, size)
    wide = _rewidth(P, len(digits), size, size + extra)
    assert wide == sum(c << (8 * (size + extra) * i) for i, c in enumerate(digits))
    assert _rewidth(wide, len(digits), size + extra, size) == P
    assert _unpack_int(wide, len(digits), size + extra) == digits


@settings(derandomize=True, max_examples=200)
@given(nonzero_polys(), nonzero_polys(), polys())
def test_exact_div_matches_list_core(a, d, noise):
    prod = a * d
    assert fields(prod.exact_div(d)) == fields(a)
    for num in (a, prod + noise):  # usually a non-divisor
        quot = num.exact_div(d)
        assert (quot is not None) == ref_divides(fields(num), fields(d))
        if quot is not None:
            assert fields(quot * d) == fields(num)


def spy_digit_reads(monkeypatch) -> list:
    """Patch exact_div to log, per call, how many coefficient lists it reads
    (calls of ratfun._unpack_int); returns that log."""
    reads, counts = [], []
    unpack, exact_div = ratfun_mod._unpack_int, LaurentPoly.exact_div

    def logged(self, d):
        start = len(reads)
        quot = exact_div(self, d)
        counts.append(len(reads) - start)
        return quot

    monkeypatch.setattr(ratfun_mod, "_unpack_int", lambda *a: reads.append(a) or unpack(*a))
    monkeypatch.setattr(LaurentPoly, "exact_div", logged)
    return counts


@pytest.mark.parametrize("m, k, packed", [(2, 40, True), (2, 300, True), (3, 100, True),
                                           (4, 60, True), (5, 20, True)])
def test_exact_div_quotient_wider_than_dividend(m, k, packed, monkeypatch):
    # (1 - q^k)^m / (1 - q)^m: the dividend has 1-byte binomial digits, the
    # quotient (1 + ... + q^(k-1))^m digits of up to ~k^(m-1).  The first
    # divmod is at the dividend's width; its failed bound retries at least
    # twice as wide, never past the width Mignotte's bound proves enough, so
    # the quotient stays packed and is stored at its narrowest width.
    num = LaurentPoly((LaurentPoly({0: 1, k: -1}) ** m).terms)  # at its narrowest width
    den = LaurentPoly({0: 1, 1: -1}) ** m
    want = LaurentPoly({i: 1 for i in range(k)}) ** m
    off = num + LaurentPoly({0: 1})  # 1 at q = 1, where den vanishes
    assert num.size < want.size
    counts = spy_digit_reads(monkeypatch)
    quot = num.exact_div(den)
    assert off.exact_div(den) is None
    if packed:  # the divisor is primitive, so no coefficient list is read
        assert counts == [0, 0]
    assert fields(quot) == fields(want)
    assert quot.size == _tight(quot) // 8 + 1


def test_sweep_sized_t_sums_take_no_digit_path(monkeypatch, cold_caches):
    # The T-sums of the benchmark's thm4/thm6 grid at n = 8 divide by the
    # primitive (1 - q^base)^(8-i); at i = 0 and wlim = 4 their quotients are
    # several bytes wider than the numerators.
    counts = spy_digit_reads(monkeypatch)
    for i, r, wlim, base in itertools.product(range(9), (2, 3), (2, 3, 4), (2, 3, 4)):
        t_sum(8, i, r, wlim, base)
        for h in (r, r + 1, r + 3):
            t_sum_h(8, i, h, r, wlim, base)
    assert counts and not any(counts)


def test_exact_div_divides_by_the_primitive_part_of_the_divisor(monkeypatch):
    # (1 + q) / (2 + 2q) = 1/2: the integer values leave a remainder, so only
    # the primitive part of the divisor decides.
    num, den, prim = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 2, 1: 2}), LaurentPoly({0: 1, 1: 1})
    off, wide = LaurentPoly({0: 1, 1: 3}), LaurentPoly({0: 2, 1: 3, 2: 1})
    counts = spy_digit_reads(monkeypatch)
    assert fields(num.exact_div(den)) == (0, [1], 2)
    assert off.exact_div(den) is None
    # (2 + 3q + q^2) / (2 + 2q) = 1 + q/2: the integer division is exact,
    # 1 + X/2, but its digit X/2 fails the bound; the divisor's content 2,
    # read from its digits, gives the quotient (2 + q) / 2 instead.
    assert fields(wide.exact_div(den)) == (0, [2, 1], 2)
    assert counts[0] and counts[1] and counts[2]  # den's content is read every time
    # The same divisions by the primitive part read no coefficient list.
    counts.clear()
    assert fields(num.exact_div(prim)) == (0, [1], 1)
    assert off.exact_div(prim) is None
    assert fields(wide.exact_div(prim)) == (0, [2, 1], 1)
    assert counts == [0, 0, 0]


@settings(derandomize=True, max_examples=100)
@given(polys(), st.integers(1, 5))
def test_inflate_substitutes_q_to_the_w(a, w):
    lo, cs, den = fields(a)
    spread = [0] * (len(cs) * w)
    spread[::w] = cs
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_rewidths(mp)
        b = a.inflate(w)
    assert fields(b) == normal_form(lo * w, spread, den)
    # Only the stride changes: no digit moves.
    assert not calls and (b.P, b.n, b.size, b.bits) == (a.P, a.n, a.size, a.bits)
    assert b.g == a.g * w
    with pytest.raises(QsymDomainError):
        a.inflate(1 - w)


def test_one_and_zero_are_shared_constants():
    zero = ratfun_mod._ZERO
    assert LaurentPoly.one() is LaurentPoly.one() is ratfun_mod._ONE
    assert LaurentPoly({0: 1}) * zero is zero and LaurentPoly({0: 3}) - 3 is zero
    # Pool workers send values back pickled; that must not touch the constants.
    for p in (zero, LaurentPoly.one(), LaurentPoly({-2: Fraction(7, 3), 5: 2**70})):
        assert fields(pickle.loads(pickle.dumps(p))) == fields(p)
    assert fields(LaurentPoly.one()) == (0, [1], 1)
    assert fields(zero) == fields(LaurentPoly()) == (0, [], 1)


# -- the fused linear combination -------------------------------------------------

scalars = st.one_of(st.integers(-9, 9), st.sampled_from(EDGES), st.integers(-2**80, 2**80),
                    st.fractions(min_value=-50, max_value=50, max_denominator=12))


@st.composite
def combinations(draw):
    """Terms (k, s, p) with one-digit and multi-digit p, negative shifts and
    exponents, Fraction scalars and denominators, and sometimes the negation of
    an earlier term, so that parts or all of the sum cancel."""
    one_digit = st.builds(lambda e, c: LaurentPoly({e: c}), st.integers(-6, 6), coeffs)
    terms = draw(st.lists(st.tuples(scalars, st.integers(-6, 6),
                                    st.one_of(polys(), one_digit)), max_size=6))
    for i in draw(st.lists(st.integers(0, 5), max_size=3)):
        if i < len(terms):
            k, s, p = terms[i]
            terms.append((-k, s, p))
    return terms


@settings(derandomize=True, max_examples=400)
@given(combinations())
def test_linear_combination_matches_the_sequential_loop(terms):
    assert fields(ratfun_mod.linear_combination(terms)) == fields(sequential_sum(terms))


@pytest.mark.parametrize("terms", [
    [(3, -2, LaurentPoly({-1: Fraction(1, 4), 3: 5}))],  # a single term
    [(Fraction(2, 3), 0, LaurentPoly({0: 1}))],  # a one-digit term with a Fraction scalar
    [(5, 1, LaurentPoly({0: 2, 4: -7})), (-5, 1, LaurentPoly({0: 2, 4: -7}))],  # cancels
    [(1, 0, LaurentPoly({0: 1, 1: 1})), (-1, 1, LaurentPoly({-1: 1, 0: 1}))],  # cancels shifted
    [(0, 3, LaurentPoly({0: 1})), (7, 0, LaurentPoly())],  # nothing to add
])
def test_linear_combination_edge_cases(terms):
    assert fields(ratfun_mod.linear_combination(terms)) == fields(sequential_sum(terms))


def test_linear_combination_span_guard_runs_before_packing(monkeypatch):
    def packed(*args):
        raise AssertionError("an operand was packed before the span guard")

    wide = LaurentPoly({0: 1, 3: 2})
    monkeypatch.setattr(ratfun_mod, "_rewidth", packed)
    monkeypatch.setattr(ratfun_mod, "_make", packed)
    monkeypatch.setattr(ratfun_mod, "_tight", packed)
    terms = [(1, -ratfun_mod.MAX_SPAN + 2, wide), (5, 0, wide)]  # span MAX_SPAN + 1
    with pytest.raises(ResourceLimitError, match=f"span {ratfun_mod.MAX_SPAN + 1} "):
        ratfun_mod.linear_combination(terms)
    monkeypatch.undo()
    edge = [(1, -ratfun_mod.MAX_SPAN + 3, wide), (5, 0, wide)]  # span MAX_SPAN: allowed
    assert fields(ratfun_mod.linear_combination(edge)) == fields(sequential_sum(edge))


def spy_rewidths(monkeypatch) -> list:
    """Patch ratfun._rewidth to log each call's (s1, s2, k): a re-width when
    s1 != s2, a respread when k != 1; returns that log."""
    calls, real = [], ratfun_mod._rewidth

    def spy(P, n, s1, s2, k=1):
        calls.append((s1, s2, k))
        return real(P, n, s1, s2, k)

    monkeypatch.setattr(ratfun_mod, "_rewidth", spy)
    return calls


@settings(derandomize=True, max_examples=200)
@given(st.lists(polys(), min_size=1, max_size=5), st.integers(0, 40), st.integers(1, 3), st.data())
def test_common_width_holds_any_sum_within_its_grow(ps, grow, g, data):
    # Operands at one stride g, each shifted onto a multiple of g, so that the
    # combination is at stride g too: it moves no digit, by width or stride.
    ps = [p for p in ps if p] or [LaurentPoly({0: 1})]
    ps = [restrided(LaurentPoly({g * e: c.numerator for e, c in p.terms.items()}), g)
          for p in ps]  # den 1
    same = ratfun_mod.common_width(ps, grow)
    assert [fields(p) for p in same] == [fields(p) for p in ps]
    assert len({p.size for p in same}) == 1
    assert all(p.bits == _tight(p) for p in same)
    # Multipliers whose absolute values add up to at most 2**grow.
    ks = [data.draw(st.integers(-2**grow, 2**grow)) for _ in ps]
    ks = [(1 if k > 0 else -1) * (abs(k) // len(ks)) for k in ks]
    terms = [(k, g * i, p) for i, (k, p) in enumerate(zip(ks, same))]
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_rewidths(mp)
        total = ratfun_mod.linear_combination(terms)
    assert all(s1 == s2 and k == 1 for s1, s2, k in calls)
    assert fields(total) == fields(sequential_sum(terms))


# -- strides: polynomials in q^g --------------------------------------------------


@st.composite
def strided_polys(draw):
    """A polynomial in q^g, g = 1..4, at any offset: sometimes a monomial or
    zero, sometimes stored at a finer stride (zero digits between its
    coefficients, as a product of mixed strides leaves it), sometimes wider."""
    g, lo = draw(st.integers(1, 4)), draw(st.integers(-5, 5))
    p = LaurentPoly({lo + g * e: c for e, c in
                     draw(st.dictionaries(st.integers(0, 6), coeffs, max_size=6)).items()})
    if p.n > 1:
        p = restrided(p, draw(st.sampled_from([d for d in range(1, p.g + 1) if p.g % d == 0])))
    extra = draw(st.integers(0, 2))
    return widened(p, extra) if extra and p else p


def ref_pow(a: tuple, k: int) -> tuple:
    out = (0, [1], 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


@settings(derandomize=True, max_examples=300)
@given(strided_polys(), strided_polys(), st.integers(-3, 3), st.integers(0, 3))
def test_strided_ring_operations_match_list_core(a, b, shift, k):
    # The shift of b may break the common stride of a and b.
    b = b.shift(shift)
    fa, fb = fields(a), fields(b)
    assert fields(a + b) == ref_add(fa, fb)
    assert fields(a - b) == ref_add(fa, fields(-b))
    assert fields(a * b) == ref_mul(fa, fb)
    assert fields(a ** k) == ref_pow(fa, k)
    assert (a == b) == (fa == fb) == (b == a)
    assert (a + b) - b == a
    lo, cs, den = fa
    for q0 in (Fraction(2), Fraction(-3, 2)):  # Horner at q0**g, against the dense sum
        assert a.evaluate(q0) == sum(Fraction(c, den) * q0 ** (lo + i) for i, c in enumerate(cs))
    if a.n > 1:  # the same value at every stride that divides a's
        for d in range(1, a.g + 1):
            if a.g % d == 0:
                assert restrided(a, d) == a and a == restrided(a, d)


@settings(derandomize=True, max_examples=200)
@given(strided_polys(), strided_polys(), strided_polys())
def test_strided_exact_div_matches_list_core(a, d, noise):
    if not d:
        d = LaurentPoly({0: 1, 2: -1})
    prod = a * d
    assert fields(prod.exact_div(d)) == fields(a)
    for num in (a, prod + noise):
        quot = num.exact_div(d)
        assert (quot is not None) == ref_divides(fields(num), fields(d))
        if quot is not None:
            assert fields(quot * d) == fields(num)


def ref_combination(terms) -> tuple:
    """sum k * q**s * p by the list core, one scale and add at a time."""
    total = (0, [], 1)
    for k, s, p in terms:
        lo, cs, den = ref_scale(fields(p), Fraction(k))
        total = ref_add(total, (lo + s if cs else 0, cs, den))
    return total


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.tuples(scalars, st.integers(-6, 6), strided_polys()), max_size=5),
       st.integers(1, 4), st.booleans())
def test_strided_linear_combination_matches_list_core(terms, g, on_stride):
    # on_stride: every shift a multiple of g, so that the offsets keep a stride.
    if on_stride:
        terms = [(k, g * s, p.inflate(g)) for k, s, p in terms]
    assert fields(ratfun_mod.linear_combination(terms)) == ref_combination(terms)


def test_strides_come_from_the_structure():
    p = LaurentPoly({0: 1, 4: -2, 8: 1})  # the constructor packs at the gcd of the offsets
    assert (p.g, p.n) == (4, 3)
    assert bracket_poly(5, 3).g == 3 and bracket_poly(5, 3, 2).g == 3
    assert (p * p).g == 4 and (p * p).n == 5  # equal strides stay compact
    assert p.inflate(3).g == 12 and p.inflate(3).P == p.P  # no digit moves
    assert (p + p.shift(2)).g == 2 and (p * bracket_poly(3, 6)).g == 2  # the gcd
    mono = LaurentPoly({9: 5})
    assert mono.g == 0  # a monomial constrains no stride
    assert (p + mono.shift(-1)).g == 4 and (p * mono).g == 4
    assert ratfun_mod.linear_combination([(2, 4, p), (3, -1, mono), (-1, 8, p)]).g == 4
    quot = LaurentPoly({0: 1, 12: -1}).exact_div(LaurentPoly({0: 1, 4: -1}))
    assert fields(quot) == fields(LaurentPoly({0: 1, 4: 1, 8: 1})) and quot.g == 4
    assert p == restrided(p, 2) == restrided(p, 1) and p != restrided(p, 2).shift(2)
