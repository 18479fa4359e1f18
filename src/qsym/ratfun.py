"""Exact arithmetic for Laurent polynomials and rational functions in one variable q.

A LaurentPoly is a finitely supported map ``{exponent: coefficient}`` with
integer (possibly negative) exponents and exact rational coefficients.
Integer-valued coefficients are stored as plain ``int``; everything else is a
``fractions.Fraction``.  Zero coefficients are never stored, and the zero
polynomial is the empty map.

A RatFun is a quotient ``num / den`` of two Laurent polynomials with a nonzero
denominator.  Equality is decided by cross-multiplication
(``a/b == c/d  iff  a*d == c*b``), so gcd reduction -- ``canonical()`` -- is a
presentation choice for display and serialization, never a correctness
dependency.

All values are immutable after construction and safe to share across threads.
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


def _norm_coeff(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial in q over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tidy = {}
        if terms:
            for e, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    tidy[e] = c
        if tidy:
            span = max(tidy) - min(tidy)
            if span > MAX_SPAN:
                raise ResourceLimitError(
                    f"exponent span {span} exceeds the guard MAX_SPAN={MAX_SPAN}"
                )
        self.terms = tidy

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
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        return min(self.terms)

    @property
    def max_exp(self) -> int:
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.max_exp]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> LaurentPoly:
        """Multiply every coefficient by the scalar c."""
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if not c:
            return LaurentPoly()
        if c == 1:
            return self
        return LaurentPoly({e: v * c for e, v in self.terms.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the monomial q**k."""
        if k == 0 or not self.terms:
            return self
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly()
        if len(a) == 1:
            ((e, c),) = a.items()
            return other.scale(c).shift(e)
        if len(b) == 1:
            ((e, c),) = b.items()
            return self.scale(c).shift(e)
        if _is_int_poly(a) and _is_int_poly(b):
            prod = _mul_int(a, b)
            if prod is not None:
                return LaurentPoly(prod)
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise ValueError("LaurentPoly power wants a nonnegative exponent; use RatFun for inverses")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    # -- division ----------------------------------------------------------

    def exact_div(self, d: LaurentPoly) -> LaurentPoly | None:
        """Return self / d when d divides self in the Laurent ring, else None.

        Monomials q**k are units, so divisibility only concerns the
        polynomial parts.
        """
        if not isinstance(d, LaurentPoly) or d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        lo_s, lo_d = self.min_exp, d.min_exp
        arr_s = _dense(self.terms)
        arr_d = _dense(d.terms)
        if len(arr_s) < len(arr_d):
            return None
        quot = _poly_divmod(arr_s, arr_d)
        if quot is None:
            return None
        out = {}
        base = lo_s - lo_d
        for i, c in enumerate(quot):
            if c:
                out[base + i] = c
        return LaurentPoly(out)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0.  Negative exponents make q0 = 0 a pole."""
        q0 = Fraction(q0)
        total = Fraction(0)
        for e, c in self.terms.items():
            if e < 0 and q0 == 0:
                raise PoleError(f"pole at q = {q0}: negative exponent q^{e}")
            total += c * q0**e
        return total

    # -- integer content -----------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, LaurentPoly]:
        """Write self = content * primitive with primitive an integer-coefficient
        polynomial of content 1 and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            f = c if isinstance(c, Fraction) else Fraction(c)
            num_gcd = math.gcd(num_gcd, abs(f.numerator))
            den_lcm = den_lcm * f.denominator // math.gcd(den_lcm, f.denominator)
        content = Fraction(num_gcd, den_lcm)
        if self.leading_coeff() < 0:
            content = -content
        prim = LaurentPoly({e: c / content for e, c in self.terms.items()})
        return content, prim

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
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
        return [[e, str(Fraction(self.terms[e]))] for e in sorted(self.terms)]

    @classmethod
    def from_pairs(cls, pairs) -> LaurentPoly:
        return cls({int(e): Fraction(s) for e, s in pairs})


def _is_int_poly(terms: dict) -> bool:
    return all(isinstance(c, int) for c in terms.values())


def _dense(terms: dict) -> list:
    """Coefficient list from min_exp upward (constant term first)."""
    lo = min(terms)
    arr = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        arr[e - lo] = c
    return arr


def _mul_int(a: dict, b: dict):
    """Integer product via dense convolution; None when too sparse to densify."""
    span_a = max(a) - min(a) + 1
    span_b = max(b) - min(b) + 1
    if span_a > 4 * len(a) + 64 or span_b > 4 * len(b) + 64:
        return None
    arr = _conv_ints(_dense(a), _dense(b))
    lo = min(a) + min(b)
    return {lo + i: c for i, c in enumerate(arr) if c}


def _conv_ints(a: list, b: list) -> list:
    if len(a) * len(b) <= 4096:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return out
    # Kronecker substitution: pack into one big integer per factor, multiply
    # once, then read signed digits back out.
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() + 2
    prod = _pack_int(a, width) * _pack_int(b, width)
    return _unpack_int(prod, width, len(a) + len(b) - 1)


def _pack_int(coeffs: list, width: int) -> int:
    x = 0
    shift = 0
    for c in coeffs:
        if c:
            x += c << shift
        shift += width
    return x


def _unpack_int(x: int, width: int, n: int) -> list:
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    for _ in range(n):
        d = x & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        x = (x - d) >> width
    return out


def _poly_divmod(num: list, den: list):
    """Quotient of dense coefficient lists when the division is exact, else None."""
    dn, dd = len(num) - 1, len(den) - 1
    lead = den[-1]
    rem = list(num)
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd]
        if c:
            c = Fraction(c, 1) / lead if not isinstance(c, Fraction) else c / lead
            c = _norm_coeff(c if isinstance(c, Fraction) else Fraction(c))
            quot[k] = c
            for j, bj in enumerate(den):
                if bj:
                    rem[k + j] -= c * bj
    if any(rem[:dd]):
        return None
    return quot


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd of the polynomial parts over the rationals, returned as a primitive
    integer polynomial with positive leading coefficient (monomial factors of
    the inputs are units and are discarded).

    Euclidean algorithm with pseudo-remainders on primitive integer parts.
    """
    if a.is_zero:
        return b.content_and_primitive()[1].shift(-b.min_exp) if not b.is_zero else a
    if b.is_zero:
        return a.content_and_primitive()[1].shift(-a.min_exp)
    A = _dense(a.content_and_primitive()[1].terms)
    B = _dense(b.content_and_primitive()[1].terms)
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _pseudo_rem(A, B)
        A, B = B, _prim_dense(R)
    out = {}
    for i, c in enumerate(A):
        if c:
            out[i] = c
    return LaurentPoly(out)


def _prim_dense(arr: list) -> list:
    while arr and not arr[-1]:
        arr.pop()
    if not arr:
        return []
    g = 0
    for c in arr:
        g = math.gcd(g, abs(c))
    if arr[-1] < 0:
        g = -g
    return [c // g for c in arr]


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


_QMINUS1 = None  # initialized below, after the class exists


class RatFun:
    """Quotient of two Laurent polynomials with exact cross-multiplication equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = LaurentPoly.one() if den is None else _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

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
        a, b = self.num.min_exp, self.den.min_exp
        n_poly = self.num.shift(-a)
        d_poly = self.den.shift(-b)
        g = poly_gcd(n_poly, d_poly)
        if not (len(g.terms) == 1 and g.terms.get(0) == 1):
            n_poly = n_poly.exact_div(g)
            d_poly = d_poly.exact_div(g)
        content, d_prim = d_poly.content_and_primitive()
        n_poly = n_poly.scale(Fraction(1) / content)
        return RatFun(n_poly.shift(a - b), d_prim)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0; PoleError when the reduced denominator vanishes."""
        q0 = Fraction(q0)
        try:
            dv = self.den.evaluate(q0)
            if dv != 0:
                return self.num.evaluate(q0) / dv
        except PoleError:
            pass
        f = self.canonical()
        dv = f.den.evaluate(q0)
        if dv == 0:
            raise PoleError(f"pole at q = {q0}: denominator {f.den} vanishes")
        return f.num.evaluate(q0) / dv

    def limit_at_one(self) -> Fraction:
        """Value of the reduced form at q = 1.

        Equivalent to evaluating canonical() at 1, but only the common powers
        of (q - 1) have to be cancelled, which avoids a full gcd.
        """
        num, den = self.num, self.den
        if num.is_zero:
            return Fraction(0)
        one = Fraction(1)
        while True:
            dv = den.evaluate(one)
            if dv != 0:
                return num.evaluate(one) / dv
            if num.evaluate(one) != 0:
                raise PoleError(f"pole at q = 1: denominator {den} vanishes")
            num = num.exact_div(_QMINUS1)
            den = den.exact_div(_QMINUS1)

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        num_s = str(self.num)
        if self.den == LaurentPoly.one():
            return num_s
        den_s = str(self.den)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        if len(self.den.terms) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFun({self})"

    def to_json_obj(self) -> dict:
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    @classmethod
    def from_json_obj(cls, obj) -> RatFun:
        return cls(LaurentPoly.from_pairs(obj["num"]), LaurentPoly.from_pairs(obj["den"]))


_QMINUS1 = LaurentPoly({1: 1, 0: -1})


def _as_poly(v) -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return LaurentPoly({0: v})
    raise TypeError(f"cannot interpret {type(v).__name__} as a Laurent polynomial")


def _as_ratfun(v):
    if isinstance(v, RatFun):
        return v
    if isinstance(v, (int, Fraction, LaurentPoly)):
        return RatFun(_as_poly(v))
    return None


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
