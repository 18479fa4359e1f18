"""Exact arithmetic for Laurent polynomials and rational functions in one variable q.

A LaurentPoly ``q**lo * (c_0 + c_1 q^g + ... + c_(n-1) q^(g(n-1))) / den``, a
polynomial in q^g, is packed in one int, ``P = sum c_i X**i`` with X =
2**(8*size): the balanced base-X value of its integer coefficients at stride g,
so a polynomial in q^g has 1/g of the digits of its dense list.  Its fields are
lo, P, den, the digit count n (0 for zero), the digit width size in bytes, a
bit bound bits and the stride g: g >= 1 when n >= 2, and 0 for a monomial or
zero, which thus constrains no stride (0 is the unit of gcd).  The digit
invariant: c_0 and c_(n-1) are nonzero and every |c_i| < 2**bits <= half a
digit, 2**(8*size - 1), so the digits of P are unique and -P has the digits
-c_i; den >= 1 and gcd(den, *c) = 1.  Neither the width nor the stride is
canonical, so ``==`` compares lo, den and the span (n-1)*g, then P re-read at
the wider of the two widths and the gcd of the two strides.

Strides come from the structure, never from a scan of the digits: the
``{exponent: coefficient}`` constructor packs at the gcd of the exponent
offsets, so a bracket [m] in base q^w has stride w; ``inflate(w)`` multiplies
g and moves no digit; a product of two equal strides keeps it.  Sums,
mixed-stride products, ``linear_combination`` and ``==`` work at the gcd of the
strides and, for sums, of the offsets between the operands' lowest exponents;
``exact_div`` at the gcd of the two strides, which is exact because D(q^g)
divides A(q^g) exactly when D(y) divides A(y).  A stride change moves digit i
to position i*k, fused into the column copy of a width change.

Each ring operation is O(1) big-integer operations, with no Python loop over
coefficients: an add is a shift and an add, a scale one multiply, a shift
changes lo only, a product one multiply.  Balanced digits put the top digit
index at |P|.bit_length() // (8*size) and let P & -P count the low zero
digits.  A width or stride changes by strided byte-column copies of the
``to_bytes`` image of P biased by half a digit of the narrower width.  A
factor k adds bitlen(k - 1) bits to a bound: one per add, bitlen(min(n_a,
n_b) - 1) plus both bounds per product.  The narrowing rule: a product, and an add whose
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
linear combinations re-width and narrow nothing, and at one stride respread
nothing when every shift keeps it.

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
constructor, ``terms``, ``evaluate`` (Horner's rule on the digits at q0**g),
the gcd's pseudo-remainder fallback, a content read from the digits,
``_make``'s reduction of a denominator that shares a factor with P,
``__str__`` and JSON.

A RatFun is a quotient ``num / den`` of Laurent polynomials, den nonzero.
Equality is cross-multiplication (``a/b == c/d  iff  a*d == c*b``), so gcd
reduction -- ``canonical()`` -- is presentation, never a correctness
dependency.  Evaluation needs no gcd either: the value at q0 = a/b is that of
the reduced form, so the denominator's monomial part moves into the numerator,
and while the denominator vanishes at q0 the numerator must vanish too (else q0
is a pole) and both are divided exactly by b*q - a.  The q -> 1 limit is the
value at 1.

``canonical()`` reduces both sides in q^g, g the gcd of their structural
strides, with no scan: every offset is a multiple of g and the gcd commutes
with q -> q^g, so it reduces the packed primitive parts, respread to stride g,
and inflates the reduced pair back.  It uses the heuristic gcd of Char, Geddes
and Gonnet (J. Symb. Comput. 7, 1989) at x = 2**(8*size) with half a digit
above 2**(b + 1) + 29 >= 2*max|coefficient| + 29, b the larger tight bound:
the integer gcd h of the two values is the candidate packed at x, and its
primitive part is accepted only when ``exact_div`` divides both sides by it,
which proves it is the gcd and yields the reduced numerator and denominator as
packed quotients.  A failed candidate, or an h with a digit -x/2, is retried
at a few wider digit sizes, then the Euclidean algorithm with primitive
pseudo-remainders decides and ``exact_div`` forms the quotients by its gcd.
Every output -- ``terms``, ``evaluate``, ``canonical()``, ``__str__`` and JSON
-- reads the dense expansion, so no stride shows.

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

    __slots__ = ("lo", "P", "n", "size", "bits", "den", "g")

    def __init__(self, terms=None):
        """Build from a map ``{exponent: int or Fraction}``; zero entries are dropped.
        The stride is the gcd of the exponent offsets."""
        terms = terms or {}
        for c in terms.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
        terms = {e: c for e, c in terms.items() if c}
        lo, hi = min(terms, default=0), max(terms, default=-1)
        check_span(hi - lo)
        den = math.lcm(*[c.denominator for c in terms.values()])
        g = math.gcd(*[e - lo for e in terms]) or 1
        coeffs = [0] * ((hi - lo) // g + 1)
        for e, c in terms.items():
            coeffs[(e - lo) // g] = c.numerator * (den // c.denominator)
        packed = _from_coeffs(lo, coeffs, den, g)
        for field in self.__slots__:
            setattr(self, field, getattr(packed, field))

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> dict:
        """A fresh map {exponent: coefficient} of the nonzero terms, int where integral."""
        lo, den, g = self.lo, self.den, self.g
        return {lo + g * i: c if den == 1 else _coeff(c, den)
                for i, c in enumerate(_unpack_int(self.P, self.n, self.size)) if c}

    @property
    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return bool(self.n)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.lo != b.lo or a.den != b.den or (a.n - 1) * a.g != (b.n - 1) * b.g:
            return False
        size = max(a.size, b.size)
        ka = kb = 1
        if a.g != b.g:  # both have two digits or more, as their spans agree
            g = math.gcd(a.g, b.g)
            ka, kb = a.g // g, b.g // g
        return _rewidth(a.P, a.n, a.size, size, ka) == _rewidth(b.P, b.n, b.size, size, kb)

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
        check_span(max((a.n - 1) * a.g, shift + (b.n - 1) * b.g))
        ka = kb = 1
        if a.den != b.den:
            den = math.lcm(a.den, b.den)
            ka, kb = den // a.den, den // b.den
        grow = (ka + kb - 1).bit_length()
        bits, size = max(a.bits, b.bits) + grow, max(a.size, b.size)
        if bits >= 8 * size:
            bits = max(_tight(a), _tight(b)) + grow
            size = bits // 8 + 1
        g = math.gcd(a.g, b.g, shift) or 1
        P = (_rewidth(a.P, a.n, a.size, size, a.g // g or 1) * ka
             + (_rewidth(b.P, b.n, b.size, size, b.g // g or 1) * kb << 8 * size * (shift // g)))
        return _make(a.lo, P, size, bits, a.den * ka, g)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.lo, -self.P, self.n, self.size, self.bits, self.den, self.g)

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
            return _new(self.lo + shift, self.P, self.n, self.size, self.bits, self.den, self.g)
        bits = self.bits + (abs(k) - 1).bit_length()
        size = max(self.size, bits // 8 + 1)
        P = _rewidth(self.P, self.n, self.size, size) * k
        return _make(self.lo + shift, P, size, bits, self.den * den, self.g)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the monomial q**k."""
        if k == 0 or not self.n:
            return self
        return _new(self.lo + k, self.P, self.n, self.size, self.bits, self.den, self.g)

    def inflate(self, w: int) -> LaurentPoly:
        """The substitution q -> q**w (w >= 1): w times the stride, no digit moved."""
        if w < 1:
            raise QsymDomainError(f"inflate wants w >= 1, got {w}")
        if w == 1 or not self.n:
            return self
        check_span((self.n - 1) * self.g * w)
        return _new(self.lo * w, self.P, self.n, self.size, self.bits, self.den, self.g * w)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):  # first: a test against Fraction runs ABCMeta's
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if not self.n or not other.n:
            return _ZERO
        a, b = self, other
        if b.n == 1:  # a monomial: one scale and a shift, the span unchanged
            return a._times(b.P, b.den, b.lo)
        if a.n == 1:
            return b._times(a.P, a.den, a.lo)
        check_span((a.n - 1) * a.g + (b.n - 1) * b.g)
        g, ka, kb = a.g, 1, 1
        if b.g != g:  # both at the gcd of the strides
            g = math.gcd(g, b.g)
            ka, kb = a.g // g, b.g // g
        ba = _tight(a)
        bb = ba if b is a else _tight(b)
        bits = ba + bb + (min(a.n, b.n) - 1).bit_length()
        size = bits // 8 + 1  # the narrowest width the product's bound allows
        pa = _rewidth(a.P, a.n, a.size, size, ka)
        pb = pa if b is a else _rewidth(b.P, b.n, b.size, size, kb)
        return _make(a.lo + b.lo, pa * pb, size, bits, a.den * b.den, g)

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
        if (self.n - 1) * self.g < (d.n - 1) * d.g:
            return None
        # Both at the gcd g of the strides: D(q^g) divides A(q^g) iff D(y) divides A(y).
        g = math.gcd(self.g, d.g) or 1
        ka, kd = self.g // g or 1, d.g // g or 1
        na, nd = (self.n - 1) * ka + 1, (d.n - 1) * kd + 1
        size, bd = max(self.size, d.size), _tight(d)
        c = _content(d)
        D = d.P if c == 1 else d.P // c
        # Mignotte: a quotient over the integers has |q_i| < 2**deg(q) * ||self||_2,
        # so its digits pass the bound below at width cap.
        cap = (na - nd + self.bits + (self.n.bit_length() + 1) // 2 + bd
               + (min(na - nd + 1, d.n) - 1).bit_length()) // 8 + 1
        while True:
            q, r = divmod(_rewidth(self.P, self.n, self.size, size, ka),
                          _rewidth(D, d.n, d.size, size, kd))
            if r:
                return None
            nq = q.bit_length() // (8 * size) + 1
            # One digit more than the top digit index: q's balanced digits may
            # include -X/2, whose carry the bias must absorb.
            bits = _tight_bits(q, nq + 1, size)
            need = bits + bd + (min(nq, d.n) - 1).bit_length()
            if need < 8 * size:
                narrow = bits // 8 + 1
                quot = _make(self.lo - d.lo, _rewidth(q, nq, size, narrow), narrow, bits, 1, g)
                return quot._times(d.den, self.den * c)
            if size >= cap:
                return None
            size = min(cap, max(2 * size, need // 8 + 1))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0, by Horner's rule over the integers on the
        digits at y = q0**g = a/b: sum c_i y^i = sum c_i a^i b^(n-1-i) / b^(n-1).
        Negative exponents make q0 = 0 a pole."""
        q0 = Fraction(q0)
        if self.lo < 0 and q0 == 0:
            raise PoleError(f"pole at q = {q0}: negative exponent q^{self.lo}")
        y = q0**self.g
        a, b = y.numerator, y.denominator
        total, scale = 0, 1
        for c in reversed(_unpack_int(self.P, self.n, self.size)):
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
    kept, lo, top, g, den, bits, size = [], math.inf, -math.inf, 0, 1, 0, 1
    for k, s, p in terms:  # one pass for the bounds: no comprehension frames
        if k and p.n:
            e = p.lo + s  # the exponent of p's lowest digit in the sum
            kept.append((k, e, p))
            if e < lo:
                lo = e
            if e + (p.n - 1) * p.g > top:
                top = e + (p.n - 1) * p.g
            g, den = math.gcd(g, p.g), math.lcm(den, k.denominator * p.den)
            if p.bits > bits:
                bits = p.bits
            if p.size > size:
                size = p.size
    if not kept:
        return _ZERO
    check_span(top - lo)
    g = math.gcd(g, *[e - lo for _, e, _ in kept]) or 1
    ks = [k.numerator * (den // (k.denominator * p.den)) for k, _, p in kept]
    grow = (sum(map(abs, ks)) - 1).bit_length()
    bits += grow
    if bits >= 8 * size:
        bits = max([_tight(p) for _, _, p in kept]) + grow
        size = bits // 8 + 1
    P = 0
    for k, (_, e, p) in zip(ks, kept):
        P += _rewidth(p.P, p.n, p.size, size, p.g // g or 1) * k << 8 * size * ((e - lo) // g)
    return _make(lo, P, size, bits, den, g)


def common_width(polys, grow: int = 0) -> list:
    """The polys at one width, each with its tight bound, wide enough that a
    linear_combination of them whose integer multipliers add up to at most
    2**grow in absolute value is formed at that width, re-widthing none."""
    bits = [_tight(p) for p in polys]
    size = (max(bits, default=0) + grow) // 8 + 1
    return [_new(p.lo, _rewidth(p.P, p.n, p.size, size), p.n, size, b, p.den, p.g)
            for p, b in zip(polys, bits)]


def _coeff(c: int, den: int):
    """The coefficient c / den: an int when den divides c, else a Fraction."""
    return c // den if c % den == 0 else Fraction(c, den)


def _new(lo: int, P: int, n: int, size: int, bits: int, den: int, g: int) -> LaurentPoly:
    """A LaurentPoly from fields that already satisfy the invariants."""
    p = object.__new__(LaurentPoly)
    p.lo, p.P, p.n, p.size, p.bits, p.den, p.g = lo, P, n, size, bits, den, g
    return p


def _from_coeffs(lo: int, coeffs: list, den: int = 1, g: int = 1) -> LaurentPoly:
    """The LaurentPoly q**lo * sum(coeffs[i] * q**(g*i)) / den, at its narrowest width."""
    bits = max(map(abs, coeffs), default=0).bit_length()
    return _make(lo, _pack_int(coeffs, bits // 8 + 1), bits // 8 + 1, bits, den, g)


def _make(lo: int, P: int, size: int, bits: int, den: int, g: int) -> LaurentPoly:
    """q**lo * P(X) / den, X = 2**(8*size) standing for q**g, for P with digits
    below 2**bits, in normal form: low zero digits moved into lo, den reduced
    by the gcd of the digits, stride 0 for one digit."""
    if not P:
        return _ZERO
    width = 8 * size
    low = ((P & -P).bit_length() - 1) // width
    if low:
        P >>= width * low
        lo += low * g
    n = P.bit_length() // width + 1
    if den != 1 and math.gcd(den, P) != 1:  # a common factor of den and the digits divides P
        c = math.gcd(den, *_unpack_int(P, n, size))
        P, den = P // c, den // c
    return _new(lo, P, n, size, bits, den, g if n > 1 else 0)


def _digit_bias(n: int, size: int) -> int:
    """Half a digit in each of n digits of `size` bytes: sum 2**(8*size - 1) * 2**(8*size*i)."""
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * n, "little")


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


def _rewidth(P: int, n: int, s1: int, s2: int, k: int = 1) -> int:
    """The n digits of P at width s1 bytes, packed at width s2 with digit i at
    position i*k (k - 1 zero digits between two, the stride divided by k); every
    digit must be below half a digit of min(s1, s2) bytes.  Biased by that half
    digit, each digit's bytes above min(s1, s2) are zero, so the low columns are
    copied into the biased zero digits of the output."""
    if s1 == s2 and k == 1:
        return P
    m = min(s1, s2)
    half = 1 << (8 * m - 1)
    bias = int.from_bytes(half.to_bytes(s1, "little") * n, "little")
    raw = (P + bias).to_bytes(n * s1, "little")
    zeros = half.to_bytes(s2, "little") * ((n - 1) * k + 1)
    out = bytearray(zeros)
    for j in range(m):
        out[j::s2 * k] = raw[j::s1]
    return int.from_bytes(out, "little") - int.from_bytes(zeros, "little")


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


def _content(p: LaurentPoly) -> int:
    """The gcd of p's digits, read from them only when gcd(P, c_0) is not 1:
    the content divides P and its lowest digit c_0."""
    half = 1 << (8 * p.size - 1)
    if math.gcd(p.P, ((p.P + half) & (2 * half - 1)) - half) == 1:
        return 1
    return math.gcd(*_unpack_int(p.P, p.n, p.size))


def _primitive(p: LaurentPoly, g: int) -> tuple:
    """(c, A) for a nonzero p whose stride is a multiple of g: c the gcd of p's
    digits signed like the top digit, and A the polynomial p's digits / c in
    q^g, with lo 0 and den 1, so primitive with a positive leading coefficient,
    at p's width."""
    c = _content(p) if p.P > 0 else -_content(p)
    P = _rewidth(p.P, p.n, p.size, p.size, p.g // g or 1) // c
    return c, _make(0, P, p.size, p.bits, 1, 1)


# Evaluation points the heuristic gcd tries, each with wider digits, before it
# falls back to the pseudo-remainder sequence.
_HEU_ATTEMPTS = 4


def _gcd_cofactors(a: LaurentPoly, b: LaurentPoly) -> tuple:
    """(G, a/G, b/G) for primitive polynomials a and b as _primitive returns
    them, and G their gcd (primitive, positive leading coefficient).  Each
    candidate is h = gcd(a(x), b(x)) packed at x's width as it stands, skipped
    if a digit is -x/2.  Every trial division is exact_div, which treats q**k as
    a unit.  It decides polynomial divisibility here because every G has a
    nonzero constant term: a candidate's is h mod x, h divides a(x), and x does
    not, as 0 < |a_0| < x."""
    bound = 2 ** (max(_tight(a), _tight(b)) + 1) + 29  # at least 2*max|coefficient| + 29
    size = bound.bit_length() // 8 + 1  # half a digit, 2**(8*size - 1), exceeds bound
    for _ in range(_HEU_ATTEMPTS):
        h = math.gcd(_rewidth(a.P, a.n, a.size, size), _rewidth(b.P, b.n, b.size, size))
        bits = _tight_bits(h, h.bit_length() // (8 * size) + 2, size)
        if bits < 8 * size:  # else a digit is -x/2, which no packing holds
            G = _primitive(_make(0, h, size, bits, 1, 1), 1)[1]
            qa = a.exact_div(G)
            if qa is not None:
                qb = b.exact_div(G)
                if qb is not None:
                    return G, qa, qb
        size += size // 2 + 1
    G = _from_coeffs(0, _prs_gcd(_unpack_int(a.P, a.n, a.size), _unpack_int(b.P, b.n, b.size)))
    return G, a.exact_div(G), b.exact_div(G)


def _prs_gcd(A: list, B: list) -> list:
    """Primitive gcd of integer lists by the Euclidean algorithm with primitive
    pseudo-remainders: the fallback of the heuristic gcd, and its test oracle."""
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _pseudo_rem(A, B)
        c = -math.gcd(*R) if R and R[-1] < 0 else math.gcd(*R)
        A, B = B, [x // c for x in R]
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


_ZERO = _new(0, 0, 0, 1, 0, 1, 0)
_ONE = _new(0, 1, 1, 1, 1, 1, 0)


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
        # Both sides are polynomials in q^g, g the gcd of their strides: the gcd
        # commutes with q -> q^g, so reduce the pair in q^g and inflate it back.
        g = math.gcd(self.num.g, self.den.g) or 1
        n_content, n_prim = _primitive(self.num, g)
        d_content, d_prim = _primitive(self.den, g)
        _, n_red, d_red = _gcd_cofactors(n_prim, d_prim)
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
