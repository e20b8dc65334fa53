"""Exact scalar arithmetic: integer polynomials in q, the fraction field
Q(q), and the q-analog combinatorics built on top of it.

Everything here is immutable and exact.  A coefficient is always a
``RationalFunction``, so one scalar type serves the symbolic and the
specialized modes alike.  At a rational q the algebra produces constants
n/d; an element may be given polynomials (sum n_e q^e)/d, which the kernels
of ``heis`` take over Q(q) (grad-basis-roundtrip draws them in Z[q] and
checks each power of q on its own).  ``+`` and ``*`` of two constants take an integer path (cross-cancel
before multiplying, one ``math.gcd`` after adding) and skip ``_normalize``.
``QValue``, the parameter q, is a ``Value``: with ``Record``, the plain
slotted base of every record class of qheis.

Nearly every denominator met in H(q) is c*q^a*(q-1)^b: the q-integers
{n}_q = (q^n - 1)/(q - 1) and the q^k prefactors of the commutation
relations produce nothing else, and a constant is the case a = b = 0.
``_normalize`` recognizes such a denominator by stripping its q-adic
valuation and dividing out (q - 1) while the coefficient sum vanishes,
then cancels those two irreducible factors directly.  Any other
denominator goes through the primitive PRS gcd of ``IntPoly.gcd``.  The
scalars of the closed forms, sums of c q^e over (q - 1)^b, skip even that:
``q_laurent`` puts them over q^a (q - 1)^b and cancels by ``_over_q_q1``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional, Union


class CoefficientError(ArithmeticError):
    """Division by zero, evaluation at a pole, or a bad q-binomial index."""


class IntPoly:
    """Polynomial in q with integer coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree ``None``
    (the "minus infinity" marker).  Trailing zero coefficients are never
    stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return IntPoly((0,) * k + (c,))

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise CoefficientError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def trailing_index(self) -> int:
        """Index of the lowest nonzero coefficient (q-adic valuation)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise CoefficientError("zero polynomial has no trailing index")

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Divide out the content.  Sign of the polynomial is preserved."""
        c = self.content()
        if c <= 1:
            return self
        return IntPoly(x // c for x in self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return _P_ZERO
            if other == 1:
                return self
            return IntPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("IntPoly power must be >= 0")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q^k (k >= 0)."""
        if self.is_zero() or k == 0:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def unshift(self, k: int) -> "IntPoly":
        """Divide by q^k; requires the k lowest coefficients to vanish."""
        if k == 0 or self.is_zero():
            return self
        if any(self.coeffs[:k]):
            raise CoefficientError("polynomial not divisible by q^%d" % k)
        return IntPoly(self.coeffs[k:])

    def div_exact(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises if not exact over Z[q]."""
        if other.is_zero():
            raise CoefficientError("division by the zero polynomial")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.leading
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) > db and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            c, r = divmod(rem[-1], lb)
            if r:
                raise CoefficientError("inexact polynomial division")
            d = len(rem) - 1 - db
            quot[d] = c
            for j, cb in enumerate(other.coeffs):
                rem[d + j] -= c * cb
        if any(rem):
            raise CoefficientError("inexact polynomial division")
        return IntPoly(quot)

    @staticmethod
    def _pseudo_rem(a: "IntPoly", b: "IntPoly") -> "IntPoly":
        """Pseudo-remainder of a by b (deg a >= deg b >= 0)."""
        db = b.degree
        lb = b.leading
        r = a
        while not r.is_zero() and r.degree >= db:
            d = r.degree - db
            c = r.leading
            r = r * lb - (b.shift(d) * c)
        return r

    @staticmethod
    def gcd(a: "IntPoly", b: "IntPoly") -> "IntPoly":
        """Primitive gcd with positive leading coefficient."""
        if a.is_zero() and b.is_zero():
            return _P_ZERO
        if a.is_zero():
            a, b = b, a
        if b.is_zero():
            g = a.primitive()
            return -g if g.leading < 0 else g
        # common q-power factors come out in O(1)
        t = min(a.trailing_index, b.trailing_index)
        a = a.unshift(t).primitive()
        b = b.unshift(t).primitive()
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero():
            r = IntPoly._pseudo_rem(a, b)
            a, b = b, r.primitive()
        if a.leading < 0:
            a = -a
        return a.shift(t)

    # -- comparison / display ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self) -> str:
        if len(self.coeffs) < 2:  # a constant, the most common text at rational q
            return str(self.coeffs[0]) if self.coeffs else "0"
        text = _TERM_TEXT
        parts = [text.get((c, i)) or _term_text(c, i) for i, c in enumerate(self.coeffs) if c]
        head = parts[0]
        parts[0] = head[2:] if head[0] == "+" else "-" + head[2:]
        return " ".join(parts)

    def __repr__(self):
        return "IntPoly(%s)" % self.render()


# the signed text of the term c q^i as it follows another term ("+ 3*q^5",
# "- q", "+ 7"), kept for |c| < 128 and i < 128: at most 255 x 128 strings
_TERM_TEXT: dict = {}


def _term_text(c: int, i: int) -> str:
    """The ``_TERM_TEXT`` entry of c q^i (c != 0), kept within the bounds."""
    a = abs(c)
    body = str(a) if i == 0 else ("" if a == 1 else "%d*" % a) + ("q" if i == 1 else "q^%d" % i)
    text = ("+ " if c > 0 else "- ") + body
    if a < 128 and i < 128:
        _TERM_TEXT[c, i] = text
    return text


_P_ZERO = IntPoly()
_P_ONE = IntPoly((1,))
_P_Q = IntPoly((0, 1))


def _split_q_q1(cs, a_max: int, b_max: int):
    """(rest, a, b) with p = q^a * (q - 1)^b * rest for the nonzero
    polynomial p with coefficients cs (lowest first), where a <= a_max and
    b <= b_max are as large as p allows.  (q - 1) divides a polynomial when
    its coefficient sum vanishes; the quotient comes by synthetic division,
    its i-th coefficient being -(cs[0] + ... + cs[i])."""
    a = 0
    while a < a_max and not cs[a]:
        a += 1
    cs = cs[a:]
    b = 0
    while b < b_max and not sum(cs):
        cs = [-s for s in accumulate(cs[:-1])]
        b += 1
    return cs, a, b


def _q_q1_poly(c: int, a: int, b: int) -> IntPoly:
    """c*q^a*(q - 1)^b; the monic ones (c = 1), which every q^a (q - 1)^b
    decode divides by, are built once per (a, b)."""
    if c == 1:
        return _monic_q_q1(a, b)
    return IntPoly((0,) * a + tuple(c * x for x in _monic_q_q1(0, b).coeffs))


@lru_cache(maxsize=None)
def _monic_q_q1(a: int, b: int) -> IntPoly:
    return IntPoly((0,) * a + tuple((-1) ** (b - i) * math.comb(b, i) for i in range(b + 1)))


def _over_q_q1(num: IntPoly, a: int, b: int) -> "RationalFunction":
    """num/(q^a (q - 1)^b) in the canonical form of ``_normalize``.  That
    denominator is primitive with leading coefficient 1, so only the factors
    q and q - 1 it shares with num cancel: ``_split_q_q1`` on num alone."""
    if not num.coeffs:
        return RF_ZERO
    if not a and not b:
        return RationalFunction(num, _P_ONE, _raw=True)
    cs, v, w = _split_q_q1(num.coeffs, a, b)
    return RationalFunction(IntPoly(cs) if v or w else num, _q_q1_poly(1, a - v, b - w), _raw=True)


def _normalize(num: IntPoly, den: IntPoly):
    """Canonical form: reduced fraction of integer polynomials.

    Convention: the primitive parts of num and den are coprime, the integer
    contents of num and den are coprime, and den has a positive leading
    coefficient.  Zero is 0/1.  Equality is then componentwise.

    When the primitive denominator splits as +-q^a*(q - 1)^b (constants
    included, a = b = 0), the gcd of the primitive parts is
    q^min(a, v) * (q - 1)^min(b, w), with v and w the multiplicities of q
    and q - 1 in the numerator: both factors are irreducible and primitive,
    so by Gauss's lemma this is exactly the primitive gcd with positive
    leading coefficient that ``IntPoly.gcd`` returns.  It is divided out by
    shifting and synthetic division.  Other denominators use the PRS gcd.
    """
    if den.is_zero():
        raise CoefficientError("denominator is zero")
    if num.is_zero():
        return _P_ZERO, _P_ONE
    cn = num.content()
    cd = den.content()
    pn = num.primitive()
    pd = den.primitive()
    n = len(pd.coeffs)
    rest, a, b = _split_q_q1(pd.coeffs, n, n)
    if len(rest) > 1:
        g = IntPoly.gcd(pn, pd)
        if g.coeffs != (1,):
            pn = pn.div_exact(g)
            pd = pd.div_exact(g)
    else:
        cs, v, w = _split_q_q1(pn.coeffs, a, b)
        if v or w:
            pn = IntPoly(cs)
            pd = _q_q1_poly(rest[0], a - v, b - w)
    if pd.leading < 0:
        pn = -pn
        pd = -pd
    g = math.gcd(cn, cd)
    return pn * (cn // g), pd * (cd // g)


def _const_poly(c: int) -> IntPoly:
    """The constant polynomial c (c != 0), built without re-trimming."""
    p = object.__new__(IntPoly)
    p.coeffs = (c,)
    return p


def _const(n: int, d: int) -> "RationalFunction":
    """Canonical n/d for coprime integers n and d > 0.  Every reduced
    constant (at most one numerator and exactly one denominator
    coefficient) has this form, which the integer paths of + and * use."""
    if not n:
        return RF_ZERO
    return RationalFunction(_const_poly(n), _P_ONE if d == 1 else _const_poly(d), _raw=True)


class RationalFunction:
    """Element of Q(q) as a reduced fraction of integer polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly = _P_ONE, *, _raw: bool = False):
        if _raw or den.coeffs == (1,):  # a polynomial over 1 is already canonical
            self.num = num
            self.den = den
        else:
            self.num, self.den = _normalize(num, den)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RationalFunction":
        return RationalFunction(IntPoly.const(n), _P_ONE, _raw=True)

    @staticmethod
    def from_fraction(fr: Fraction) -> "RationalFunction":
        return RationalFunction(
            IntPoly.const(fr.numerator), IntPoly.const(fr.denominator), _raw=True
        )

    @staticmethod
    def coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, int):
            return RationalFunction.from_int(x)
        if isinstance(x, Fraction):
            return RationalFunction.from_fraction(x)
        raise TypeError("cannot coerce %r to RationalFunction" % (x,))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    # -- field operations --------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction.coerce(other)
        a, b = self.num.coeffs, other.num.coeffs
        if len(a) < 2 and len(b) < 2 and len(self.den.coeffs) == 1 == len(other.den.coeffs):
            (d1,), (d2,) = self.den.coeffs, other.den.coeffs
            if d1 == d2:
                n, d = sum(a) + sum(b), d1
            else:
                n, d = sum(a) * d2 + sum(b) * d1, d1 * d2
            g = math.gcd(n, d) if d != 1 else 1
            return _const(n // g, d // g)
        if self.den == other.den:
            if self.den.coeffs == (1,):
                return RationalFunction(self.num + other.num, _P_ONE, _raw=True)
            return RationalFunction(self.num + other.num, self.den)
        # p + n/d = (p d + n)/d is reduced when n/d is: a common factor of
        # p d + n and d would divide n
        if self.den.coeffs == (1,):
            return RationalFunction(self.num * other.den + other.num, other.den, _raw=True)
        if other.den.coeffs == (1,):
            return RationalFunction(other.num * self.den + self.num, self.den, _raw=True)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _raw=True)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-RationalFunction.coerce(other))

    def __mul__(self, other) -> "RationalFunction":
        other = RationalFunction.coerce(other)
        a, b = self.num.coeffs, other.num.coeffs
        if len(a) < 2 and len(b) < 2 and len(self.den.coeffs) == 1 == len(other.den.coeffs):
            if not a or not b:
                return RF_ZERO
            (n1,), (n2,), (d1,), (d2,) = a, b, self.den.coeffs, other.den.coeffs
            g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
            return _const((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            return RationalFunction(self.num * other.num, _P_ONE, _raw=True)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunction":
        """Multiplicative inverse; error on zero."""
        if self.is_zero():
            raise CoefficientError("inverse of zero in Q(q)")
        if len(self.num.coeffs) == 1 == len(self.den.coeffs):
            (n,), (d,) = self.num.coeffs, self.den.coeffs
            return _const(d if n > 0 else -d, abs(n))
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunction":
        return self * RationalFunction.coerce(other).inv()

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inv() ** (-n)
        result = RF_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / display -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = RationalFunction.from_int(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def render(self) -> str:
        if self.den.coeffs == (1,):
            return self.num.render()
        num = self.num.render()
        den = self.den.render()
        if len(self.num.coeffs) - self.num.coeffs.count(0) > 1:
            num = "(%s)" % num
        if len(self.den.coeffs) - self.den.coeffs.count(0) > 1:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self):
        return "RF(%s)" % self.render()


RF_ZERO = RationalFunction.from_int(0)
RF_ONE = RationalFunction.from_int(1)
RF_Q = RationalFunction(_P_Q, _P_ONE, _raw=True)


def add_terms(out: dict, pairs) -> dict:
    """Add each (key, c) of pairs into the sparse map out and return out.
    A key whose sum is 0 is deleted, so out never holds a zero value, and a
    key that cancels and comes back re-enters at the end.  The values are
    RationalFunctions or ints (the packed kernels of ``heis``)."""
    get = out.get
    for key, c in pairs:
        s = get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


class Record:
    """A plain slotted record: its fields are its class's ``__slots__``, set by
    its ``__init__``; ``_key`` is their tuple.  Records of one class with equal
    keys are equal, and a record reads as ``Name(field=value, ...)``."""

    __slots__ = ()

    @property
    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        pairs = zip(self.__slots__, self._key)
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % kv for kv in pairs))


class Value(Record):
    """An immutable record, hashed by ``_key``, which ``__init__`` stores next
    to the fields.  No guard stops a later assignment: it would cost time."""

    __slots__ = ("_key",)

    def __init__(self):  # a value without fields
        self._key = ()

    def __hash__(self):
        return hash(self._key)


class QValue(Value):
    """The deformation parameter: either symbolic or an exact rational.

    ``value is None`` means symbolic.  Rational 0, 1 and -1 are flagged
    degenerate: the generic-q structure theory excludes them (0 and 1 by
    hypothesis, -1 as a root of unity).
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Optional[Fraction] = None):
        (self.value,) = self._key = (value,)
        self._hash = hash(self._key)  # every cache lookup hashes q: a Fraction's hash is slow

    def __hash__(self):
        return self._hash

    @staticmethod
    def rational(p, r=1) -> "QValue":
        return QValue(Fraction(p, r))

    @staticmethod
    def parse(text: str) -> "QValue":
        """The shared QValue of text: ``SYMBOLIC_Q``, or one instance per
        rational value, so that a cache key made by an earlier parse matches
        by identity instead of through ``Fraction.__eq__``."""
        text = text.strip()
        if text == "symbolic":
            return SYMBOLIC_Q
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("q must be 'symbolic' or a rational p/r: %r" % text) from exc
        q = _PARSED.get(value)
        if q is None:
            q = _PARSED[value] = QValue(value)
        return q

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    @property
    def is_degenerate(self) -> bool:
        """True for q in {0, 1, -1}; such q break the generic-q theory."""
        return self.value is not None and self.value in (0, 1, -1)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def scalar(self) -> RationalFunction:
        """The value of q as an element of the coefficient field."""
        if self.value is None:
            return RF_Q
        return RationalFunction.from_fraction(self.value)

    def power(self, k: int) -> RationalFunction:
        """q^k as a scalar; negative k requires q != 0."""
        if k < 0 and self.value == 0:
            raise CoefficientError("negative power of q at q = 0")
        if self.value is not None:
            return RationalFunction.from_fraction(self.value**k)
        if k >= 0:
            return RationalFunction(IntPoly.monomial(k), _P_ONE, _raw=True)
        return RationalFunction(_P_ONE, IntPoly.monomial(-k), _raw=True)

    def render(self) -> str:
        return "symbolic" if self.value is None else str(self.value)

    def __str__(self):
        return self.render()


SYMBOLIC_Q = QValue()
_PARSED = {}  # rational value -> the QValue that QValue.parse returns for it


# ---------------------------------------------------------------------------
# q-analog combinatorics
# ---------------------------------------------------------------------------


def binom2(n: int) -> int:
    """Binomial coefficient C(n, 2); 0 for n < 2."""
    return math.comb(n, 2) if n >= 2 else 0


def q_laurent(q: QValue, terms, b: int = 0) -> RationalFunction:
    """The sum of c q^e over the (c, e) pairs of terms, divided by (q - 1)^b,
    in canonical form; e may be negative, and b < 0 multiplies by
    (q - 1)^-b.  Every scalar of the closed forms is of this shape.

    The terms are shifted into one numerator num in Z[q] over q^a, a the
    largest -e (0 if no e is negative).  At symbolic q, ``_over_q_q1`` cancels num against
    q^a (q - 1)^b directly.  At q = p/r, num is evaluated homogeneously as
    N/r^deg and the value reduced by one integer gcd.  A negative e at q = 0
    and b > 0 at q = 1 raise the errors of ``QValue.power`` and ``inv``."""
    terms = list(terms)
    a = max(0, -min((e for _, e in terms), default=0))
    cs = [0] * (a + max((e for _, e in terms), default=0) + 1)
    for c, e in terms:
        cs[e + a] += c
    num = IntPoly(cs)
    if b < 0:
        num, b = num * _q_q1_poly(1, 0, -b), 0
    if q.is_symbolic:
        return _over_q_q1(num, a, b)
    p, r = q.value.numerator, q.value.denominator
    if a and not p:
        raise CoefficientError("negative power of q at q = 0")
    if b and p == r:
        raise CoefficientError("inverse of zero in Q(q)")
    n, rk = 0, 1
    for c in reversed(num.coeffs):
        n, rk = n * p + c * rk, rk * r
    t = a + b - len(num.coeffs) + 1  # n r^t / (p^a (p - r)^b) is the value
    d = r ** max(-t, 0) * p**a * (p - r) ** b
    n *= r ** max(t, 0)
    if d < 0:
        n, d = -n, -d
    g = math.gcd(n, d)
    return _const(n // g, d // g)


def q_int(n: int, z: RationalFunction) -> RationalFunction:
    """{n}_z = 1 + z + ... + z^(n-1); the empty sum 0 for n <= 0."""
    total = RF_ZERO
    power = RF_ONE
    for _ in range(n):
        total = total + power
        power = power * z
    return total


def q_factorial(n: int, z: RationalFunction) -> RationalFunction:
    """{n}_z! = {1}_z {2}_z ... {n}_z; the empty product 1 for n <= 0."""
    total = RF_ONE
    for l in range(1, n + 1):
        total = total * q_int(l, z)
    return total


@lru_cache(maxsize=None)
def _gauss_binomial_poly(n: int, i: int) -> IntPoly:
    """The Gaussian binomial (n choose i)_q as a polynomial in q, by the rule
    (m j)_q = (m-1 j-1)_q + q^j (m-1 j)_q; col[t] is (j+t j)_q after step j."""
    col = [_P_ONE] * (n - i + 1)
    for j in range(1, i + 1):
        for t in range(1, n - i + 1):
            col[t] = col[t] + col[t - 1].shift(j)
    return col[-1]


def gauss_terms(n: int, i: int, e: int = 0, c: int = 1):
    """The (coefficient, exponent) pairs of c q^e (n i)_q, for ``q_laurent``."""
    return [(c * g, e + j) for j, g in enumerate(_gauss_binomial_poly(n, i).coeffs)]


def q_binomial(n: int, i: int, z: RationalFunction) -> RationalFunction:
    """Gaussian binomial (n choose i)_z; requires 0 <= i <= n.

    Evaluated as a polynomial in z, so it is defined for every z (the
    factorial quotient would divide by zero at roots of unity); by Horner
    over Q(q) unless z is q or 1/q.
    """
    if i < 0 or i > n:
        raise CoefficientError("q_binomial needs 0 <= i <= n, got i=%d n=%d" % (i, n))
    poly = _gauss_binomial_poly(n, i)
    if z.num.coeffs == (0, 1) and z.den.coeffs == (1,):  # z = q: the polynomial itself
        return RationalFunction(poly, _P_ONE, _raw=True)
    if z.num.coeffs == (1,) and z.den.coeffs == (0, 1):
        # z = 1/q: (n i)_q is palindromic of degree i (n - i), so
        # (n i)_(1/q) = q^-(i (n - i)) (n i)_q
        return _over_q_q1(poly, i * (n - i), 0)
    acc = RF_ZERO
    for c in reversed(poly.coeffs):
        acc = acc * z + RationalFunction.from_int(c)
    return acc
