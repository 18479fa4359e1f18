"""Exact arithmetic for Laurent polynomials and rational functions in one variable q.

A LaurentPoly ``q**lo * (c_0 + c_1 q + ... + c_(n-1) q^(n-1)) / den`` is packed
in one int, ``P = sum c_i X**i`` with X = 2**(8*size): the balanced base-X
value of its integer coefficients.  Its fields are lo, P, den, the digit count
n (0 for zero), the digit width size in bytes and a bit bound bits.  The digit
invariant: c_0 and c_(n-1) are nonzero and every |c_i| < 2**bits <= half a
digit, 2**(8*size - 1), so the digits of P are unique and -P has the digits
-c_i; den >= 1 and gcd(den, *c) = 1.  The width is not canonical, so ``==``
compares lo, n and den, then P re-read at the wider of the two widths.

Each ring operation is O(1) big-integer operations, with no Python loop over
coefficients: an add is a shift and an add, a scale one multiply, a shift
changes lo only, a product one multiply.  Balanced digits put the top digit
index at |P|.bit_length() // (8*size) and let P & -P count the low zero
digits.  A width changes by strided byte-column copies of the ``to_bytes``
image of P biased by half a digit of the narrower width.  A factor k adds
bitlen(k - 1) bits to a bound: one per add, bitlen(min(n_a, n_b) - 1) plus
both bounds per product.  The narrowing rule: a product, and an add whose
bound outgrows its width, first takes tight bounds from the digits -- the top
nonzero byte column of the two's-complement digit image, each negative digit
negated in its field, holds the bit length of the widest coefficient -- and is
formed at the narrowest width its bound allows.

``linear_combination`` forms sum k_j q^(s_j) p_j in one pass: over the common
denominator D every term is an integer multiplier m_j times a packed operand,
so each operand is re-widthed at most once, shifted into place and added, and
one ``_make`` normalises the sum.  Its width follows the rule of an add, with
the factor sum |m_j|: the largest operand bound plus bitlen(sum |m_j| - 1) at
the widest operand width, narrowed from tight operand bounds when it outgrows
that width.  The span guard runs before any operand is re-widthed.
``common_width`` stores operands that are summed again and again at one width
with tight bounds, wide enough for a given multiplier sum, so that their
linear combinations re-width and narrow nothing.

``exact_div`` divides by the primitive part D of d -- its content divides
gcd(P, c_0) and is read from the digits only when that gcd is not 1 -- with
one ``divmod`` at a common width.  By Gauss's lemma a quotient of A by a
primitive D over the rationals has integer coefficients, so D(X) divides A(X)
at every width and a nonzero remainder proves that d does not divide.  The
quotient q is accepted when bits(q) + bits(D) + bitlen(min(n_q, n_D) - 1)
< 8*size: then every coefficient of Q*D is below half a digit, so Q(X) D(X) =
A(X) and the uniqueness of balanced digits prove Q*D = A, and q is stored at
the narrowest width its bound allows.  A failed bound is retried at least
twice as wide, up to the width that holds any integer quotient by Mignotte's
bound, |q_i| <= 2**deg(q) * ||A||_2, where it proves that d does not divide.
Coefficient lists appear only at the boundary: the ``{exponent: coefficient}``
constructor, ``coeffs``, ``terms``, ``evaluate``, the gcd's primitive inputs,
candidates and pseudo-remainders, a divisor's content, ``_make``'s reduction of
a denominator that shares a factor with P, ``__str__`` and JSON.

A RatFun is a quotient ``num / den`` of Laurent polynomials, den nonzero.
Equality is cross-multiplication (``a/b == c/d  iff  a*d == c*b``), so gcd
reduction -- ``canonical()`` -- is presentation, never a correctness
dependency.  Evaluation needs no gcd either: the value at q0 = a/b is that of
the reduced form, so the denominator's monomial part moves into the numerator,
and while the denominator vanishes at q0 the numerator must vanish too (else q0
is a pole) and both are divided exactly by b*q - a.  The q -> 1 limit is the
value at 1.

``canonical()`` uses the heuristic gcd of Char, Geddes and Gonnet (J. Symb.
Comput. 7, 1989) on the primitive integer parts, packed once and re-widthed to
x = 2**(8*size) with half a digit above 2*max|coefficient| + 29: the integer
gcd of the two values is read back from its symmetric base-x digits, and its
primitive part is accepted only when ``exact_div`` divides both sides by it,
which proves it is the gcd and yields the reduced numerator and denominator as
packed quotients.  A failed candidate is retried at a few wider digit sizes,
then the Euclidean algorithm with primitive pseudo-remainders decides and
``exact_div`` forms the quotients by its gcd.
``canonical()`` first deflates a pair that lives in q^g (g the gcd of the
term offsets of both sides) to q and inflates the reduced pair back, since
the gcd commutes with q -> q^g; a closed form in base q^w is such a pair.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction


class PoleError(ArithmeticError):
    """Evaluation at a point where the denominator (or a negative power) vanishes."""


class ResourceLimitError(RuntimeError):
    """A configurable size guard was exceeded."""


class QsymDomainError(ValueError):
    """Input outside the domain of a qsym function: a bad parameter, not a bug."""


# Widest exponent span (highest minus lowest exponent) a polynomial may have.
MAX_SPAN = 100_000


def check_span(span: int, what: str = "exponent") -> None:
    """Refuse a polynomial wider than MAX_SPAN before its digits exist."""
    if span > MAX_SPAN:
        raise ResourceLimitError(f"{what} span {span} exceeds the guard MAX_SPAN={MAX_SPAN}")


class LaurentPoly:
    """Laurent polynomial in q over the rationals: q**lo * P(2**(8*size)) / den, P
    packing the n integer coefficients as balanced digits (see the module docstring)."""

    __slots__ = ("lo", "P", "n", "size", "bits", "den")

    def __init__(self, terms=None):
        """Build from a map ``{exponent: int or Fraction}``; zero entries are dropped."""
        terms = terms or {}
        for c in terms.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
        terms = {e: c for e, c in terms.items() if c}
        lo, hi = min(terms, default=0), max(terms, default=-1)
        check_span(hi - lo)
        den = math.lcm(*[c.denominator for c in terms.values()])
        coeffs = [0] * (hi - lo + 1)
        for e, c in terms.items():
            coeffs[e - lo] = c.numerator * (den // c.denominator)
        packed = _from_coeffs(lo, coeffs, den)
        for field in self.__slots__:
            setattr(self, field, getattr(packed, field))

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> list:
        """A fresh list of the integer coefficients c_0 .. c_(n-1), read from P."""
        return _unpack_int(self.P, self.n, self.size)

    @property
    def terms(self) -> dict:
        """A fresh map {exponent: coefficient} of the nonzero terms, int where integral."""
        lo, den = self.lo, self.den
        return {lo + i: c if den == 1 else _coeff(c, den)
                for i, c in enumerate(self.coeffs) if c}

    @property
    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return bool(self.n)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.lo != other.lo or self.n != other.n or self.den != other.den:
            return False
        size = max(self.size, other.size)
        return _rewidth(self.P, self.n, self.size, size) == _rewidth(other.P, other.n, other.size, size)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not other.n:
            return self
        if not self.n:
            return other
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        shift = b.lo - a.lo
        check_span(max(a.n, shift + b.n) - 1)
        ka = kb = 1
        if a.den != b.den:
            den = math.lcm(a.den, b.den)
            ka, kb = den // a.den, den // b.den
        grow = (ka + kb - 1).bit_length()
        bits, size = max(a.bits, b.bits) + grow, max(a.size, b.size)
        if bits >= 8 * size:
            bits = max(_tight(a), _tight(b)) + grow
            size = bits // 8 + 1
        P = (_rewidth(a.P, a.n, a.size, size) * ka
             + (_rewidth(b.P, b.n, b.size, size) * kb << 8 * size * shift))
        return _make(a.lo, P, size, bits, a.den * ka)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.lo, -self.P, self.n, self.size, self.bits, self.den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> LaurentPoly:
        """Multiply every coefficient by the scalar c."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return self._times(c.numerator, c.denominator)

    def _times(self, k: int, den: int = 1, shift: int = 0) -> LaurentPoly:
        """self * k * q**shift / den for integers k and den >= 1."""
        if k == den == 1:
            return _new(self.lo + shift, self.P, self.n, self.size, self.bits, self.den)
        bits = self.bits + (abs(k) - 1).bit_length()
        size = max(self.size, bits // 8 + 1)
        P = _rewidth(self.P, self.n, self.size, size) * k
        return _make(self.lo + shift, P, size, bits, self.den * den)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the monomial q**k."""
        if k == 0 or not self.n:
            return self
        return _new(self.lo + k, self.P, self.n, self.size, self.bits, self.den)

    def inflate(self, w: int) -> LaurentPoly:
        """The substitution q -> q**w (w >= 1): P re-read at w times its digit width."""
        if w < 1:
            raise QsymDomainError(f"inflate wants w >= 1, got {w}")
        if w == 1 or not self.n:
            return self
        check_span((self.n - 1) * w)
        P = _rewidth(self.P, self.n, self.size, self.size * w)
        return _new(self.lo * w, P, (self.n - 1) * w + 1, self.size, self.bits, self.den)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):  # first: a test against Fraction runs ABCMeta's
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if not self.n or not other.n:
            return _ZERO
        check_span(self.n + other.n - 2)
        if other.n == 1:  # a monomial: one scale and a shift
            return self._times(other.P, other.den, other.lo)
        if self.n == 1:
            return other._times(self.P, self.den, self.lo)
        a, b = self, other
        ba = _tight(a)
        bb = ba if b is a else _tight(b)
        bits = ba + bb + (min(a.n, b.n) - 1).bit_length()
        size = bits // 8 + 1  # the narrowest width the product's bound allows
        pa = _rewidth(a.P, a.n, a.size, size)
        pb = pa if b is a else _rewidth(b.P, b.n, b.size, size)
        return _make(a.lo + b.lo, pa * pb, size, bits, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise ValueError("LaurentPoly power wants a nonnegative exponent; use RatFun for inverses")
        result, base = _ONE, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- division ----------------------------------------------------------

    def exact_div(self, d: LaurentPoly) -> LaurentPoly | None:
        """Return self / d when d divides self in the Laurent ring, else None, by
        the packed division of the module docstring.  Monomials q**k are units,
        so divisibility only concerns the polynomial parts."""
        if not isinstance(d, LaurentPoly) or not d.n:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.n:
            return self
        if self.n < d.n:
            return None
        size, bd = max(self.size, d.size), _tight(d)
        # The content g of d divides P and its lowest digit c_0.
        D, g, half = d.P, 1, 1 << (8 * d.size - 1)
        if math.gcd(D, ((D + half) & (2 * half - 1)) - half) != 1:
            g = math.gcd(*_unpack_int(D, d.n, d.size))
            D //= g
        # Mignotte: a quotient over the integers has |q_i| < 2**deg(q) * ||self||_2,
        # so its digits pass the bound below at width cap.
        cap = (self.n - d.n + self.bits + (self.n.bit_length() + 1) // 2 + bd
               + (min(self.n - d.n + 1, d.n) - 1).bit_length()) // 8 + 1
        while True:
            q, r = divmod(_rewidth(self.P, self.n, self.size, size),
                          _rewidth(D, d.n, d.size, size))
            if r:
                return None
            nq = q.bit_length() // (8 * size) + 1
            # One digit more than the top digit index: q's balanced digits may
            # include -X/2, whose carry the bias must absorb.
            bits = _tight_bits(q, nq + 1, size)
            need = bits + bd + (min(nq, d.n) - 1).bit_length()
            if need < 8 * size:
                narrow = bits // 8 + 1
                quot = _make(self.lo - d.lo, _rewidth(q, nq, size, narrow), narrow, bits)
                return quot._times(d.den, self.den * g)
            if size >= cap:
                return None
            size = min(cap, max(2 * size, need // 8 + 1))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0 = a/b, by Horner's rule over the integers:
        sum c_i q0^i = sum c_i a^i b^(n-1-i) / b^(n-1).  Negative exponents
        make q0 = 0 a pole."""
        q0 = Fraction(q0)
        if self.lo < 0 and q0 == 0:
            raise PoleError(f"pole at q = {q0}: negative exponent q^{self.lo}")
        a, b = q0.numerator, q0.denominator
        total, scale = 0, 1
        for c in reversed(self.coeffs):
            total, scale = total * a + c * scale, scale * b
        return Fraction(total * b, scale * self.den) * q0**self.lo

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def to_pairs(self) -> list:
        """JSON form: [[exponent, "num/den"], ...] sorted by exponent."""
        return [[e, str(Fraction(c))] for e, c in sorted(self.terms.items())]


def linear_combination(terms) -> LaurentPoly:
    """sum k * q**s * p over the triples (k, s, p) of a scalar k (int or
    Fraction), an integer shift s and a LaurentPoly p, in one pass at one width
    (see the module docstring)."""
    terms = [(k, s, p) for k, s, p in terms if k and p.n]
    if not terms:
        return _ZERO
    lo = min(p.lo + s for _, s, p in terms)
    check_span(max(p.lo + s + p.n for _, s, p in terms) - 1 - lo)
    den = math.lcm(*[k.denominator * p.den for k, _, p in terms])
    ks = [k.numerator * (den // (k.denominator * p.den)) for k, _, p in terms]
    grow = (sum(map(abs, ks)) - 1).bit_length()
    bits, size = max(p.bits for _, _, p in terms) + grow, max(p.size for _, _, p in terms)
    if bits >= 8 * size:
        bits = max(_tight(p) for _, _, p in terms) + grow
        size = bits // 8 + 1
    P = sum(_rewidth(p.P, p.n, p.size, size) * k << 8 * size * (p.lo + s - lo)
            for k, (_, s, p) in zip(ks, terms))
    return _make(lo, P, size, bits, den)


def common_width(polys, grow: int = 0) -> list:
    """The polys at one width, each with its tight bound, wide enough that a
    linear_combination of them whose integer multipliers add up to at most
    2**grow in absolute value is formed at that width, re-widthing none."""
    bits = [_tight(p) for p in polys]
    size = (max(bits, default=0) + grow) // 8 + 1
    return [_new(p.lo, _rewidth(p.P, p.n, p.size, size), p.n, size, b, p.den)
            for p, b in zip(polys, bits)]


def _coeff(c: int, den: int):
    """The coefficient c / den: an int when den divides c, else a Fraction."""
    return c // den if c % den == 0 else Fraction(c, den)


def _new(lo: int, P: int, n: int, size: int, bits: int, den: int = 1) -> LaurentPoly:
    """A LaurentPoly from fields that already satisfy the invariants."""
    p = object.__new__(LaurentPoly)
    p.lo, p.P, p.n, p.size, p.bits, p.den = lo, P, n, size, bits, den
    return p


def _from_coeffs(lo: int, coeffs: list, den: int = 1) -> LaurentPoly:
    """The LaurentPoly q**lo * sum(coeffs[i] * q**i) / den, at its narrowest width."""
    bits = max(map(abs, coeffs), default=0).bit_length()
    return _make(lo, _pack_int(coeffs, bits // 8 + 1), bits // 8 + 1, bits, den)


def _make(lo: int, P: int, size: int, bits: int, den: int = 1) -> LaurentPoly:
    """q**lo * P(X) / den, X = 2**(8*size), for P with digits below 2**bits,
    in normal form: low zero digits moved into lo, den reduced by the gcd of
    the digits."""
    if not P:
        return _ZERO
    width = 8 * size
    low = ((P & -P).bit_length() - 1) // width
    if low:
        P >>= width * low
        lo += low
    n = P.bit_length() // width + 1
    if den != 1 and math.gcd(den, P) != 1:  # a common factor of den and the digits divides P
        g = math.gcd(den, *_unpack_int(P, n, size))
        P, den = P // g, den // g
    return _new(lo, P, n, size, bits, den)


def _digit_bias(n: int, size: int, m: int = 0) -> int:
    """Half a digit of m bytes (m = size by default) in each of n digits of
    `size` bytes: sum 2**(8*m - 1) * 2**(8*size*i)."""
    return int.from_bytes((1 << (8 * (m or size) - 1)).to_bytes(size, "little") * n, "little")


def _pack_int(coeffs: list, size: int) -> int:
    """sum coeffs[i] * 2**(8*size*i) for |coeffs[i]| < 2**(8*size - 1), read in one
    pass: each digit is biased by half a digit into an unsigned byte field."""
    half = 1 << (8 * size - 1)
    raw = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _digit_bias(len(coeffs), size)


def _unpack_int(x: int, n: int, size: int) -> list:
    """The n signed digits d_i of x = sum d_i * 2**(8*size*i), |d_i| < 2**(8*size - 1),
    read in one pass: half a digit added to each makes every field unsigned."""
    half = 1 << (8 * size - 1)
    raw = (x + _digit_bias(n, size)).to_bytes(n * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, n * size, size)]


def _rewidth(P: int, n: int, s1: int, s2: int) -> int:
    """The n digits of P at width s1 bytes, packed at width s2; every digit must
    be below half a digit of min(s1, s2) bytes.  Biased by that half digit, each
    digit's bytes above min(s1, s2) are zero, so the low columns are copied."""
    if s1 == s2:
        return P
    m = min(s1, s2)
    raw = (P + _digit_bias(n, s1, m)).to_bytes(n * s1, "little")
    out = bytearray(n * s2)
    for j in range(m):
        out[j::s2] = raw[j::s1]
    return int.from_bytes(out, "little") - _digit_bias(n, s2, m)


def _tight_bits(P: int, n: int, size: int) -> int:
    """The least b with |c_i| < 2**b for the digits c_i of P at width size bytes
    (n digits with room for a carry): the bit length of the widest |c_i|, read
    from the two's-complement digit image with each negative field negated."""
    half = _digit_bias(n, size)
    twos = (P + half) ^ half
    signs = (twos & half) >> (8 * size - 1)  # 1 in each field of a negative digit
    raw = ((twos ^ ((signs << 8 * size) - signs)) + signs).to_bytes(n * size, "little")
    for j in range(size - 1, -1, -1):
        top = max(raw[j::size])
        if top:
            return 8 * j + top.bit_length()
    return 0


def _tight(p: LaurentPoly) -> int:
    """A tight bit bound on the digits of p (its own bound at width 1, the narrowest)."""
    return p.bits if p.size == 1 else min(p.bits, _tight_bits(p.P, p.n, p.size))


def _primitive(coeffs: list) -> tuple:
    """(g, coeffs / g) for an integer list with nonzero ends, g the gcd of the
    entries signed like the last, so the quotient is primitive with a positive
    leading coefficient; (0, []) for the empty list."""
    g = math.gcd(*coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return g, coeffs if g == 1 else [c // g for c in coeffs]


# Evaluation points the heuristic gcd tries, each with wider digits, before it
# falls back to the pseudo-remainder sequence.
_HEU_ATTEMPTS = 4


def _gcd_cofactors(A: list, B: list) -> tuple:
    """(G, A/G, B/G) as LaurentPolys for primitive integer lists A and B with
    positive leading coefficients and nonzero constant terms, G their gcd
    (primitive, positive leading coefficient).  Every trial division is
    exact_div, which treats q**k as a unit.  It decides polynomial divisibility
    here because every G has a nonzero constant term: a candidate's is h mod x,
    h divides A(x), and x does not, as 0 < |A[0]| < x."""
    a, b = _from_coeffs(0, A), _from_coeffs(0, B)
    bound = 2 * max(max(map(abs, A)), max(map(abs, B))) + 29
    size = bound.bit_length() // 8 + 1  # half a digit, 2**(8*size - 1), exceeds bound
    for _ in range(_HEU_ATTEMPTS):
        h = math.gcd(_rewidth(a.P, a.n, a.size, size), _rewidth(b.P, b.n, b.size, size))
        G = _from_coeffs(0, _primitive(_symmetric_digits(h, size))[1])
        qa = a.exact_div(G)
        if qa is not None:
            qb = b.exact_div(G)
            if qb is not None:
                return G, qa, qb
        size += size // 2 + 1
    G = _from_coeffs(0, _prs_gcd(A, B))
    return G, a.exact_div(G), b.exact_div(G)


def _symmetric_digits(h: int, size: int) -> list:
    """The digits d_i of h >= 0 in base 2**(8*size) with |d_i| <= half a digit,
    the last nonzero.  h has h.bit_length() // (8*size) + 1 unsigned digits; one
    more absorbs the carry of the half-digit bias, so to_bytes in _unpack_int
    cannot overflow."""
    digits = _unpack_int(h, h.bit_length() // (8 * size) + 2, size)
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _prs_gcd(A: list, B: list) -> list:
    """Primitive gcd of integer lists by the Euclidean algorithm with primitive
    pseudo-remainders: the fallback of the heuristic gcd, and its test oracle."""
    if len(A) < len(B):
        A, B = B, A
    while B:
        A, B = B, _primitive(_pseudo_rem(A, B))[1]
    return A


def _pseudo_rem(A: list, B: list) -> list:
    """Pseudo-remainder of dense integer lists, deg A >= deg B >= 0."""
    dB = len(B) - 1
    lb = B[-1]
    R = list(A)
    while len(R) - 1 >= dB:
        top = R[-1]
        if top:
            R = [lb * c for c in R]
            off = len(R) - 1 - dB
            for j, bj in enumerate(B):
                R[off + j] -= top * bj
        R.pop()
        while R and not R[-1]:
            R.pop()
    return R


_ZERO = _new(0, 0, 0, 1, 0)
_ONE = _new(0, 1, 1, 1, 1)


class RatFun:
    """Quotient of two Laurent polynomials with exact cross-multiplication equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        n, d = _as_poly(num), _ONE if den is None else _as_poly(den)
        if n is None or d is None:
            bad = num if n is None else den
            raise TypeError(f"cannot interpret {type(bad).__name__} as a Laurent polynomial")
        if d.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = n
        self.den = d

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFun(a + c, b)
        e = d.exact_div(b)
        if e is not None:
            return RatFun(a * e + c, d)
        e = b.exact_div(d)
        if e is not None:
            return RatFun(a + c * e, b)
        return RatFun(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> RatFun:
        if k >= 0:
            return RatFun(self.num**k, self.den**k)
        if self.num.is_zero:
            raise ZeroDivisionError("negative power of the zero rational function")
        return RatFun(self.den ** (-k), self.num ** (-k))

    def __eq__(self, other) -> bool:
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- normal form ---------------------------------------------------------

    def canonical(self) -> RatFun:
        """Reduced form: denominator a primitive integer polynomial with
        positive leading coefficient and nonzero constant term, no common
        factor with the numerator; monomial factors live in the numerator."""
        if self.num.is_zero:
            return RatFun(_ZERO, _ONE)
        n_content, n_prim = _primitive(self.num.coeffs)
        d_content, d_prim = _primitive(self.den.coeffs)
        # Both polynomials in q^g, g the gcd of the offsets of their terms: the
        # gcd commutes with q -> q^g, so reduce the deflated pair and inflate.
        g = math.gcd(*(t for cs in (n_prim, d_prim) for t, c in enumerate(cs) if c)) or 1
        _, n_red, d_red = _gcd_cofactors(n_prim[::g], d_prim[::g])
        content = Fraction(n_content * self.den.den, d_content * self.num.den)
        return RatFun(n_red.inflate(g).shift(self.num.lo - self.den.lo).scale(content),
                      d_red.inflate(g))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value of the reduced form at q = q0, by the evaluation rule of
        the module docstring; PoleError where the reduced form has a pole."""
        q0 = Fraction(q0)
        if self.num.is_zero:
            return Fraction(0)
        num, den = self.num.shift(-self.den.lo), self.den.shift(-self.den.lo)
        factor = _from_coeffs(0, [-q0.numerator, q0.denominator])
        while True:
            dv = den.evaluate(q0)
            if dv != 0:
                return num.evaluate(q0) / dv
            if num.evaluate(q0) != 0:
                raise PoleError(f"pole at q = {q0}: denominator {den} vanishes")
            num, den = num.exact_div(factor), den.exact_div(factor)

    def limit_at_one(self) -> Fraction:
        """Value of the reduced form at q = 1, the q -> 1 limit."""
        return self.evaluate(1)

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        num, den = self.num, self.den
        num_s = str(num)
        if den.lo == 0 and den.den == 1 and den.P == 1:
            return num_s
        den_s = str(den)
        # The ends are nonzero, so more than one digit means more than one term.
        if num.n > 1:
            num_s = f"({num_s})"
        if den.n > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFun({self})"

    def to_json_obj(self) -> dict:
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}


def _as_poly(v) -> LaurentPoly | None:
    """v as a LaurentPoly when it is one or an int or Fraction scalar, else None."""
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return _from_coeffs(0, [v.numerator], v.denominator)
    return None


def _as_ratfun(v) -> RatFun | None:
    if isinstance(v, RatFun):
        return v
    p = _as_poly(v)
    return None if p is None else RatFun(p)


# Spec-level operation names, as plain functions.

def ratfun_eq(a: RatFun, b: RatFun) -> bool:
    """Exact equality by cross-multiplication."""
    return a == b


def eval_rational(f: RatFun, q0) -> Fraction:
    """Exact value of f at q = q0."""
    return f.evaluate(q0)


def limit_at_one(f: RatFun) -> Fraction:
    """Value of the reduced form of f at q = 1 (the q -> 1 limit)."""
    return f.limit_at_one()
