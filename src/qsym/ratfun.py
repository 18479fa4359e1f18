"""Exact arithmetic for Laurent polynomials and rational functions in one variable q.

A LaurentPoly is stored in one form, ``q**lo * (c0 + c1 q + ... + ck q^k) / den``:
``coeffs`` is a list of ``int`` with nonzero ends (empty for zero, with lo = 0),
``den >= 1`` and ``gcd(den, *coeffs) == 1``.  Each value has exactly one form,
so equality compares fields.  ``Fraction`` coefficients appear only at the
boundary: in the ``{exponent: coefficient}`` constructor and in ``terms``.

A RatFun is a quotient ``num / den`` of two Laurent polynomials with a nonzero
denominator.  Equality is decided by cross-multiplication
(``a/b == c/d  iff  a*d == c*b``), so gcd reduction -- ``canonical()`` -- is a
presentation choice for display and serialization, never a correctness
dependency.

Evaluation needs no gcd either.  The value at q0 = a/b is that of the reduced
form: the monomial part of the denominator moves into the numerator, and while
the denominator vanishes at q0 the numerator must vanish too (else q0 is a
pole), so both are divided exactly by the primitive linear factor b*q - a.
The q -> 1 limit is the value at 1.

``canonical()`` and ``poly_gcd`` use the heuristic gcd of Char, Geddes and
Gonnet (J. Symb. Comput. 7, 1989) on the primitive integer parts: both are
packed at the evaluation point x = 2**(8*size) used by Kronecker products, with
half a digit above 2*max|coefficient| + 29; the integer gcd of the two values
is read back from its symmetric base-x digits, and its primitive part is
accepted only when trial division by it leaves no remainder on either side,
which proves it is the gcd and yields the reduced numerator and denominator.
A failed candidate is retried at a few wider digit sizes, and then the
Euclidean algorithm with primitive pseudo-remainders decides.

All values are immutable after construction and safe to share across threads;
coefficient lists are shared between values and never mutated.
"""

from __future__ import annotations

import math
from fractions import Fraction


class PoleError(ArithmeticError):
    """Evaluation at a point where the denominator (or a negative power) vanishes."""


class ResourceLimitError(RuntimeError):
    """A configurable size guard was exceeded."""


# Widest exponent span (max_exp - min_exp) a polynomial may have.
MAX_SPAN = 100_000

# Shortest factor length for which a product uses Kronecker substitution
# instead of the schoolbook loop.  On CPython 3.11 Kronecker wins from 6-8
# coefficients against a 60- or 300-term factor, from 12-16 on square products.
KRONECKER_MIN = 8


def _check_span(span: int) -> None:
    """Refuse a polynomial wider than MAX_SPAN before its coefficient list exists."""
    if span > MAX_SPAN:
        raise ResourceLimitError(f"exponent span {span} exceeds the guard MAX_SPAN={MAX_SPAN}")


class LaurentPoly:
    """Laurent polynomial in q over the rationals: q**lo * sum(coeffs[i] * q**i) / den."""

    __slots__ = ("lo", "coeffs", "den")

    def __init__(self, terms=None):
        """Build from a map ``{exponent: int or Fraction}``; zero entries are dropped."""
        terms = terms or {}
        for c in terms.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
        terms = {e: c for e, c in terms.items() if c}
        lo, hi = min(terms, default=0), max(terms, default=-1)
        _check_span(hi - lo)
        den = math.lcm(*[c.denominator for c in terms.values()])
        coeffs = [0] * (hi - lo + 1)
        for e, c in terms.items():
            coeffs[e - lo] = c.numerator * (den // c.denominator)
        self.lo, self.coeffs, self.den = _normal_form(lo, coeffs, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def constant(cls, c) -> LaurentPoly:
        return cls({0: Fraction(c)})

    @classmethod
    def monomial(cls, exp: int, coeff=1) -> LaurentPoly:
        return cls({exp: Fraction(coeff)})

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> dict:
        """A fresh map {exponent: coefficient} of the nonzero terms, int where integral."""
        lo, den = self.lo, self.den
        return {lo + i: c if den == 1 else _coeff(c, den)
                for i, c in enumerate(self.coeffs) if c}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return self.lo

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def leading_coeff(self):
        return _coeff(self.coeffs[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.lo == other.lo and self.den == other.den and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        length = max(len(a.coeffs), b.lo - a.lo + len(b.coeffs))
        _check_span(length - 1)
        ca, cb, den = a.coeffs, b.coeffs, a.den
        if a.den != b.den:
            den = math.lcm(a.den, b.den)
            ca = [c * (den // a.den) for c in ca]
            cb = [c * (den // b.den) for c in cb]
        out = ca + [0] * (length - len(ca))
        for i, c in enumerate(cb, b.lo - a.lo):
            out[i] += c
        return _make(a.lo, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.lo, [-c for c in self.coeffs], self.den)

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
        if c == 1:
            return self
        return _make(self.lo, [v * c.numerator for v in self.coeffs], self.den * c.denominator)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the monomial q**k."""
        if k == 0 or not self.coeffs:
            return self
        return _make(self.lo + k, self.coeffs, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly()
        _check_span(len(a) + len(b) - 2)
        return _make(self.lo + other.lo, _conv(a, b), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise ValueError("LaurentPoly power wants a nonnegative exponent; use RatFun for inverses")
        result, base = LaurentPoly.one(), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- division ----------------------------------------------------------

    def exact_div(self, d: LaurentPoly) -> LaurentPoly | None:
        """Return self / d when d divides self in the Laurent ring, else None.

        Monomials q**k are units, so divisibility only concerns the
        polynomial parts.  Dividing by the primitive part of d keeps the work
        in the integers: by Gauss's lemma the quotient is then integral if it
        exists, so a step that is not integral proves d does not divide self.
        """
        if not isinstance(d, LaurentPoly) or d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        g, prim = _primitive(d.coeffs)
        quot = _int_div(self.coeffs, prim)
        if quot is None:
            return None
        m = d.den if g > 0 else -d.den  # the sign of g goes into the quotient
        if m != 1:
            quot = [c * m for c in quot]
        return _make(self.lo - d.lo, quot, self.den * abs(g))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0.  Negative exponents make q0 = 0 a pole."""
        q0 = Fraction(q0)
        if self.lo < 0 and q0 == 0:
            raise PoleError(f"pole at q = {q0}: negative exponent q^{self.lo}")
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * q0 + c
        return total * q0**self.lo / self.den

    # -- integer content -----------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, LaurentPoly]:
        """Write self = content * primitive with primitive an integer-coefficient
        polynomial of content 1 and positive leading coefficient."""
        g, prim = _primitive(self.coeffs)
        return Fraction(g, self.den), _make(self.lo, prim)

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

    @classmethod
    def from_pairs(cls, pairs) -> LaurentPoly:
        return cls({int(e): Fraction(s) for e, s in pairs})


def _coeff(c: int, den: int):
    """The coefficient c / den: an int when den divides c, else a Fraction."""
    return c // den if c % den == 0 else Fraction(c, den)


def _normal_form(lo: int, coeffs: list, den: int) -> tuple:
    """(lo, coeffs, den) with zero end coefficients trimmed and gcd(den, *coeffs) = 1."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    if not end:
        return 0, [], 1
    start = 0
    while not coeffs[start]:
        start += 1
    if start or end < len(coeffs):
        coeffs = coeffs[start:end]
    if den != 1:
        g = math.gcd(den, *coeffs)
        if g != 1:
            coeffs = [c // g for c in coeffs]
            den //= g
    return lo + start, coeffs, den


def _make(lo: int, coeffs: list, den: int = 1) -> LaurentPoly:
    """The LaurentPoly q**lo * sum(coeffs[i] * q**i) / den, in normal form."""
    p = object.__new__(LaurentPoly)
    p.lo, p.coeffs, p.den = _normal_form(lo, coeffs, den)
    return p


def _conv(a: list, b: list) -> list:
    """Coefficients of the product of two integer coefficient lists."""
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
    # Kronecker substitution: |product coefficient| <= max|a| * max|b| * len(b),
    # so digits of `size` bytes with a spare sign bit hold them without overlap.
    bound = max(map(abs, a)) * max(map(abs, b)) * len(b)
    size = bound.bit_length() // 8 + 1
    packed = _pack_int(a, size)
    prod = packed * (packed if b is a else _pack_int(b, size))
    return _unpack_int(prod, len(a) + len(b) - 1, size)


def _digit_bias(n: int, size: int) -> int:
    """Half a digit in each of n digits of `size` bytes: sum 2**(8*size*i + 8*size - 1)."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


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


def _primitive(coeffs: list) -> tuple:
    """(g, coeffs / g) for an integer list with nonzero ends, g the gcd of the
    entries signed like the last, so the quotient is primitive with a positive
    leading coefficient; (0, []) for the empty list."""
    g = math.gcd(*coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return g, coeffs if g == 1 else [c // g for c in coeffs]


def _int_div(num: list, den: list):
    """Quotient of integer coefficient lists when the primitive den divides num, else None."""
    dd = len(den) - 1
    lead = den[-1]
    rem = list(num)
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1 - dd, -1, -1):
        c = rem[k + dd]
        if c:
            c, r = divmod(c, lead)
            if r:
                return None
            quot[k] = c
            for j, b in enumerate(den, k):
                if b:
                    rem[j] -= c * b
    if any(rem[:dd]):
        return None
    return quot


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd of the polynomial parts over the rationals, returned as a primitive
    integer polynomial with positive leading coefficient (monomial factors of
    the inputs are units and are discarded), by the heuristic gcd of the
    module docstring."""
    if a.is_zero or b.is_zero:
        return _make(0, _primitive((b if a.is_zero else a).coeffs)[1])
    return _make(0, _gcd_cofactors(_primitive(a.coeffs)[1], _primitive(b.coeffs)[1])[0])


# Evaluation points the heuristic gcd tries, each with wider digits, before it
# falls back to the pseudo-remainder sequence.
_HEU_ATTEMPTS = 4


def _gcd_cofactors(A: list, B: list) -> tuple:
    """(G, A/G, B/G) for primitive integer lists A and B with positive leading
    coefficients, G their gcd (primitive, positive leading coefficient)."""
    bound = 2 * max(max(map(abs, A)), max(map(abs, B))) + 29
    size = bound.bit_length() // 8 + 1  # half a digit, 2**(8*size - 1), exceeds bound
    for _ in range(_HEU_ATTEMPTS):
        h = math.gcd(_pack_int(A, size), _pack_int(B, size))
        G = _primitive(_symmetric_digits(h, size))[1]
        qa = _int_div(A, G)
        if qa is not None:
            qb = _int_div(B, G)
            if qb is not None:
                return G, qa, qb
        size += size // 2 + 1
    G = _prs_gcd(A, B)
    return G, _int_div(A, G), _int_div(B, G)


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


class RatFun:
    """Quotient of two Laurent polynomials with exact cross-multiplication equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        n, d = _as_poly(num), LaurentPoly.one() if den is None else _as_poly(den)
        if n is None or d is None:
            bad = num if n is None else den
            raise TypeError(f"cannot interpret {type(bad).__name__} as a Laurent polynomial")
        if d.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = n
        self.den = d

    @classmethod
    def from_const(cls, c) -> RatFun:
        return cls(LaurentPoly.constant(c))

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
        if self.num.is_zero:
            return other.num.is_zero
        if other.num.is_zero:
            return False
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
            return RatFun(LaurentPoly.zero(), LaurentPoly.one())
        n_content, n_prim = self.num.content_and_primitive()
        d_content, d_prim = self.den.content_and_primitive()
        _, n_red, d_red = _gcd_cofactors(n_prim.coeffs, d_prim.coeffs)
        num = _make(self.num.lo - self.den.lo, n_red).scale(n_content / d_content)
        return RatFun(num, _make(0, d_red))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value of the reduced form at q = q0, by the evaluation rule of
        the module docstring; PoleError where the reduced form has a pole."""
        q0 = Fraction(q0)
        if self.num.is_zero:
            return Fraction(0)
        num, den = self.num.shift(-self.den.lo), self.den.shift(-self.den.lo)
        factor = _make(0, [-q0.numerator, q0.denominator])
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
        if den.lo == 0 and den.den == 1 and den.coeffs == [1]:
            return num_s
        den_s = str(den)
        # coeffs has nonzero ends, so more than one entry means more than one term.
        if len(num.coeffs) > 1:
            num_s = f"({num_s})"
        if len(den.coeffs) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFun({self})"

    def to_json_obj(self) -> dict:
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    @classmethod
    def from_json_obj(cls, obj) -> RatFun:
        return cls(LaurentPoly.from_pairs(obj["num"]), LaurentPoly.from_pairs(obj["den"]))


def _as_poly(v) -> LaurentPoly | None:
    """v as a LaurentPoly when it is one or an int or Fraction scalar, else None."""
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return _make(0, [v.numerator], v.denominator)
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
