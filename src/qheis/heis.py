"""The q-deformed Heisenberg algebra H(q): normal forms on the B^m A^n
basis, the Z-grading, commutator-power expansions, the [A,B]-power basis,
and the closed-form reordering identities the rest of the package checks.

The defining relation AB - qBA = I enters in one place: `_an_bk_expansion`
moves one B at a time through A^j by A^j B = q^j B A^j + {j}_q A^(j-1).  The
PBW product is built on those expansions, and a word (`nf_word`) is the
product of its B^m A^n runs.  All coefficients are exact elements of Q(q).

A PBW product of four or more term pairs, and `lincomb` (a sum of c_i x_i),
run on ints when every coefficient fits the codec of q; anything else takes
the loop over Q(q).  At symbolic q each coefficient must be in Z[q] and is
packed once into its value at q = 2^K (Kronecker substitution, K from a
proven l1-norm bound).  At rational q each must be a constant n/d, and a
term map is put over one common denominator D (`_encode`); `lincomb` also
needs two pairs or more, and `lie.zero_basis_coords` solves on the same ints.
Every term map, on ints or over Q(q), is summed by `coeff.add_terms`, which
drops a key as soon as its sum is 0.
"""

from __future__ import annotations

import math
import re

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, repeat
from operator import mul
from typing import Dict, Tuple

from .coeff import (
    RF_ONE,
    RF_ZERO,
    IntPoly,
    QValue,
    RationalFunction,
    _const,
    _q_q1_poly,
    _split_q_q1,
    add_terms,
    binom2,
    gauss_polynomial,
    q_binomial,
    q_int,
)
from .words import check_word, factorize


class QMismatchError(ValueError):
    """Raised when elements over different q values are combined."""


class DegenerateQError(ValueError):
    """Raised when an operation's hypothesis excludes the given q."""


def _require_q(x: "NormalElement", y: "NormalElement") -> QValue:
    if x.q != y.q:
        raise QMismatchError("mixed q values: %s vs %s" % (x.q, y.q))
    return x.q


def _require_not_01(q: QValue, what: str) -> None:
    if q.is_zero or q.is_one:
        raise DegenerateQError("%s requires q not in {0, 1}, got q = %s" % (what, q))


MonoKey = Tuple[int, int]
_P_ONE = IntPoly.one()


class NormalElement:
    """Element of H(q) in PBW coordinates: finite map (m, n) -> coeff of B^m A^n."""

    __slots__ = ("q", "terms")

    def __init__(self, q: QValue, terms: Dict[MonoKey, RationalFunction] = None, *, _raw=False):
        self.q = q
        if terms is None:
            terms = {}
        self.terms = terms if _raw else add_terms({}, terms.items())

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(q: QValue) -> "NormalElement":
        return NormalElement(q, {}, _raw=True)

    @staticmethod
    def one(q: QValue) -> "NormalElement":
        return NormalElement.monomial(0, 0, q)

    @staticmethod
    def monomial(m: int, n: int, q: QValue, coeff: RationalFunction = RF_ONE) -> "NormalElement":
        if m < 0 or n < 0:
            raise ValueError("PBW exponents must be >= 0")
        if coeff.is_zero():
            return NormalElement.zero(q)
        return NormalElement(q, {(m, n): coeff}, _raw=True)

    # -- vector space ------------------------------------------------------

    def __add__(self, other: "NormalElement") -> "NormalElement":
        q = _require_q(self, other)
        return NormalElement(q, add_terms(dict(self.terms), other.terms.items()), _raw=True)

    def __neg__(self) -> "NormalElement":
        return NormalElement(self.q, {k: -c for k, c in self.terms.items()}, _raw=True)

    def __sub__(self, other: "NormalElement") -> "NormalElement":
        return self + (-other)

    def scale(self, c: RationalFunction) -> "NormalElement":
        if c.is_zero():
            return NormalElement.zero(self.q)
        return NormalElement(self.q, {k: x * c for k, x in self.terms.items()}, _raw=True)

    # -- multiplication -------------------------------------------------

    def __mul__(self, other: "NormalElement") -> "NormalElement":
        q = _require_q(self, other)
        # with all coefficients in Z[q] at symbolic q, or constant at rational
        # q (else None), multiply ints; below four term pairs the loop over
        # Q(q) is faster
        if len(self.terms) * len(other.terms) > 3:
            out = _packed_product(self.terms, other.terms, q)
            if out is not None:
                return NormalElement(q, out, _raw=True)
        fp = {(n, m): _an_bk_expansion(n, m, q) for n, m in _reorderings(self.terms, other.terms)}
        return NormalElement(q, add_terms({}, _product_terms(self.terms, other.terms, fp)), _raw=True)

    def __pow__(self, n: int) -> "NormalElement":
        if n < 0:
            raise ValueError("no negative powers in H(q)")
        result = self if n else NormalElement.one(self.q)
        for _ in range(n - 1):
            result = result * self
        return result

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m: int, n: int) -> RationalFunction:
        return self.terms.get((m, n), RF_ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalElement)
            and self.q == other.q
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def render(self) -> str:
        keys = sorted(self.terms, key=lambda k: (k[0] - k[1], k[0]))
        return _render_terms((self.terms[m, n], _power("B", m) + _power("A", n)) for m, n in keys)

    def __repr__(self):
        return "NormalElement(q=%s, %s)" % (self.q, self.render())


def _power(x: str, e: int):
    """The factor x^e as a list of names: none for e <= 0."""
    return [x if e == 1 else "%s^%d" % (x, e)] if e > 0 else []


def _render_terms(terms) -> str:
    """The (coefficient, factor names) pairs as "c * f1 f2 + ...", in the
    given order: a coefficient 1 before a factor is left out, and one
    containing "+", "- " or "/" is parenthesized; no pairs give "0"."""
    parts = []
    for c, names in terms:
        cs = c.render()
        if cs == "1" and names:
            parts.append(" ".join(names))
            continue
        if "+" in cs or "- " in cs or "/" in cs:
            cs = "(%s)" % cs
        parts.append("%s * %s" % (cs, " ".join(names)) if names else cs)
    return " + ".join(parts) or "0"


@lru_cache(maxsize=None)
def _an_bk_expansion(n: int, k: int, q: QValue):
    """PBW expansion of A^n B^k as a tuple of ((m', n'), coeff) pairs.

    Built by absorbing one B at a time through A^n with the rule
    A^j B = q^j B A^j + {j}_q A^(j-1).
    """
    # q^b and {b}_q = 1 + q + ... + q^(b-1) for b = 0 .. n
    pows = list(accumulate(repeat(q.scalar(), n), mul, initial=RF_ONE))
    ints = list(accumulate(pows[:n], initial=RF_ZERO))
    state: Dict[MonoKey, RationalFunction] = {(0, n): RF_ONE}
    for _ in range(k):
        nxt: Dict[MonoKey, RationalFunction] = {}
        for (a, b), c in state.items():
            # {0}_q = 0, so b = 0 adds nothing at (a, -1)
            add_terms(nxt, (((a + 1, b), c * pows[b]), ((a, b - 1), c * ints[b])))
        state = nxt
    return tuple(sorted(state.items()))


def _encode(terms):
    """The constant-q codec: (D, {key: n (D/d)}) for a term map whose
    coefficients are all constants n/d, D the lcm of the d; None if one is
    not a constant."""
    if any(len(c.num.coeffs) > 1 or len(c.den.coeffs) > 1 for c in terms.values()):
        return None
    D = math.lcm(*(c.den.coeffs[0] for c in terms.values()))
    return D, {key: sum(c.num.coeffs) * (D // c.den.coeffs[0]) for key, c in terms.items()}


def _decode(D: int, out):
    """{key: v/D} in lowest terms for a map out with no zero value: one gcd
    and one ``_const`` per key."""
    res: Dict = {}
    for key, v in out.items():
        g = math.gcd(v, D)
        res[key] = _const(v // g, D // g)
    return res


def _reorderings(xt, yt):
    """Each (n, m), n, m >= 1, for which the product of the term maps xt and
    yt reorders an A^n B^m."""
    ms = {m for m, _ in yt if m}
    return [(n, m) for n in {n for _, n in xt if n} for m in ms]


def _product_terms(xt, yt, fp, one=None):
    """The (key, c) terms of the product of the term maps xt and yt, where
    fp[n, m] holds A^n B^m as ((a, b), f) pairs for each of
    ``_reorderings(xt, yt)``.  one is 1 in the encoding of the f (the packed
    1 at rational q), or None where that is 1 itself."""
    for (m1, n1), c1 in xt.items():
        for (m2, n2), c2 in yt.items():
            c12 = c1 * c2
            if n1 and m2:
                for (a, b), f in fp[n1, m2]:
                    yield (m1 + a, b + n2), c12 * f
            else:
                # A^n1 B^m2 with n1 == 0 or m2 == 0 is already B^m2 A^n1
                yield (m1 + m2, n1 + n2), c12 if one is None else c12 * one


def _packed_product(xt, yt, q: QValue):
    """``_product_terms`` of the term maps xt and yt on ints: the
    coefficients and the expansions fp are packed with the codec of q, and
    each key is decoded once; None if a coefficient does not fit that codec.
    A packed sum is 0 exactly when the sum it encodes is, so the keys come
    out in the order of the product over Q(q).

    At symbolic q every coefficient must be in Z[q].  Each is packed once at
    q = 2^K (a ring homomorphism to Z) and unpacked once from balanced
    base-2^K digits.  No coefficient of a partial sum exceeds the l1 bound
    |x|_1 |y|_1 max |f|_1 (f over the expansions used) < 2^(K-1), so the
    digits are exact.  K is a multiple of 16, to keep the packed expansions
    few.  At rational q every coefficient must be a constant: ``_encode``
    puts xt and yt over their lcm denominators Dx and Dy, the expansions are
    put over the lcm K of theirs, and each sum is an integer over Dx Dy K."""
    nms = _reorderings(xt, yt)
    if q.is_symbolic:
        if any(c.den.coeffs != (1,) for t in (xt, yt) for c in t.values()):
            return None
        bound = max((_an_bk_scale(n, m, q) for n, m in nms), default=1)
        for t in (xt, yt):
            bound *= sum(sum(map(abs, c.num.coeffs)) for c in t.values())
        K = _width(bound)
        xp, yp = ({key: _pack(c.num.coeffs, K) for key, c in t.items()} for t in (xt, yt))
        one, decode = None, lambda out: {key: RationalFunction(_unpack(v, K), _P_ONE, _raw=True) for key, v in out.items()}
    else:
        ex, ey = _encode(xt), _encode(yt)
        if ex is None or ey is None:
            return None
        (Dx, xp), (Dy, yp) = ex, ey
        K = math.lcm(*(_an_bk_scale(n, m, q) for n, m in nms))
        one, decode = K, partial(_decode, Dx * Dy * K)
    fp = {(n, m): _an_bk_packed(n, m, q, K) for n, m in nms}
    return decode(add_terms({}, _product_terms(xp, yp, fp, one)))


def _width(bound: int) -> int:
    """K with 2^(K-1) > bound, a multiple of 16 to keep the packed forms few."""
    return (bound.bit_length() + 16) // 16 * 16


def _pack(cs, K: int) -> int:
    """The polynomial with coefficients cs (lowest first) at q = 2^K."""
    return sum(c << K * i for i, c in enumerate(cs))


def _unpack(v: int, K: int) -> IntPoly:
    """The polynomial packed as v at q = 2^K, from balanced base-2^K digits."""
    half, mask = 1 << (K - 1), (1 << K) - 1
    cs = []
    while v:
        cs.append(((v + half) & mask) - half)
        v = (v - cs[-1]) >> K
    return IntPoly(cs)


def _lincomb_codec(pairs, q: QValue):
    """(cs, xs, decode) for ``lincomb``: each c and each x.terms as ints, or
    None when a coefficient does not fit the codec of q.

    At symbolic q every coefficient of every x must be in Z[q] and every
    c.den q^a (q - 1)^b, as in all of H(q)'s closed forms.  The c are brought
    to the lcm D of the c.den and everything is packed at q = 2^K, K from the
    l1 bound sum |c.num D/c.den|_1 max |f|_1, as in ``_packed_product``.  At
    rational q every coefficient must be a constant, and there must be two
    pairs or more (``scale`` is as fast for one).  ``_encode`` puts the c over
    their lcm denominator Dc, each x over its own Dx, brought to the lcm L of
    the Dx, so every sum is an integer over Dc L."""
    if not q.is_symbolic:
        if len(pairs) < 2:
            return None
        ec = _encode(dict(enumerate(c for c, _ in pairs)))
        xs = [] if ec is None else [_encode(x.terms) for _, x in pairs]
        if not xs or None in xs:
            return None
        Dc, cs = ec
        L = math.lcm(*(D for D, _ in xs))
        cs = [c * (L // D) for c, (D, _) in zip(cs.values(), xs)]
        return cs, [xp for _, xp in xs], partial(_decode, Dc * L)
    if not all(f.den.coeffs == (1,) for _, x in pairs for f in x.terms.values()):
        return None
    split = {d: _split_q_q1(d.coeffs, len(d.coeffs), len(d.coeffs)) for d in {c.den for c, _ in pairs}}
    if not all(tuple(r) == (1,) for r, _, _ in split.values()):
        return None
    A = max((a for _, a, _ in split.values()), default=0)
    B = max((b for _, _, b in split.values()), default=0)
    nums = [c.num * _q_q1_poly(1, A - split[c.den][1], B - split[c.den][2]) for c, _ in pairs]
    norm = max((sum(map(abs, f.num.coeffs)) for _, x in pairs for f in x.terms.values()), default=0)
    K = _width(sum(sum(map(abs, n.coeffs)) for n in nums) * norm)
    xs = [{key: _pack(f.num.coeffs, K) for key, f in x.terms.items()} for _, x in pairs]
    den = _q_q1_poly(1, A, B)
    decode = lambda out: {k: RationalFunction(_unpack(v, K), den, _raw=A == B == 0) for k, v in out.items()}
    return [_pack(n.coeffs, K) for n in nums], xs, decode


def lincomb(pairs, q: QValue) -> NormalElement:
    """The sum of c x over the (c, x) pairs, summed on ints from
    ``_lincomb_codec`` and decoded once per key; any input that codec does
    not take goes through the scale-and-add loop."""
    pairs = list(pairs)
    coded = _lincomb_codec(pairs, q) if all(x.q == q for _, x in pairs) else None
    if coded is None:
        return sum((x.scale(c) for c, x in pairs), NormalElement.zero(q))
    cs, xs, decode = coded
    out: Dict[MonoKey, int] = {}
    for cn, xp in zip(cs, xs):
        add_terms(out, ((key, cn * v) for key, v in xp.items()))
    return NormalElement(q, decode(out), _raw=True)


@lru_cache(maxsize=None)
def _an_bk_scale(n: int, k: int, q: QValue) -> int:
    """At symbolic q the largest l1 norm of a coefficient of
    ``_an_bk_expansion(n, k, q)`` (all in Z[q]: it multiplies only by q^b
    and {b}_q), at rational q the lcm of their denominators."""
    fs = [f for _, f in _an_bk_expansion(n, k, q)]
    if q.is_symbolic:
        return max(sum(map(abs, f.num.coeffs)) for f in fs)
    return math.lcm(*(f.den.coeffs[0] for f in fs))


@lru_cache(maxsize=None)
def _an_bk_packed(n: int, k: int, q: QValue, K: int):
    """``_an_bk_expansion(n, k, q)`` with each coefficient f packed: at
    symbolic q as f(2^K), at rational q as the integer f K (K a multiple of
    every denominator)."""
    if q.is_symbolic:
        return tuple((key, _pack(f.num.coeffs, K)) for key, f in _an_bk_expansion(n, k, q))
    return tuple((key, sum(f.num.coeffs) * (K // f.den.coeffs[0])) for key, f in _an_bk_expansion(n, k, q))


def nf_word(w: str, q: QValue) -> NormalElement:
    """Normal form of a single word: the PBW product of its maximal B^m A^n
    runs, so each A^n B^m between two runs costs one ``_an_bk_expansion``."""
    out = NormalElement.one(q)
    for run in re.findall("B+A*|A+", check_word(w)):
        m = run.count("B")
        out = out * NormalElement.monomial(m, len(run) - m, q)
    return out


def commutator(x: NormalElement, y: NormalElement) -> NormalElement:
    """[x, y] = xy - yx in H(q)."""
    return x * y - y * x


@lru_cache(maxsize=None)
def bracketed_word(w: str, q: QValue) -> NormalElement:
    """The nonassociative regular word <w> pushed down to H(q): <w> = [<g>, <h>]
    at the canonical split w = g h, folded with `commutator` on the PBW basis."""
    if len(w) == 1:
        return NormalElement.monomial(int(check_word(w) == "B"), int(w == "A"), q)
    try:
        g, h = factorize(w)
    except ValueError:
        raise ValueError("bracketing needs a regular word, got %r" % w) from None
    return commutator(bracketed_word(g, q), bracketed_word(h, q))


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------


@dataclass
class GradedParts:
    """Decomposition by the Z-grading d = m - n."""

    parts: Dict[int, NormalElement]

    def total(self, q: QValue) -> NormalElement:
        return lincomb(((RF_ONE, p) for p in self.parts.values()), q)


def grade(x: NormalElement) -> GradedParts:
    buckets: Dict[int, Dict[MonoKey, RationalFunction]] = {}
    for (m, n), c in x.terms.items():
        buckets.setdefault(m - n, {})[(m, n)] = c
    return GradedParts(
        {d: NormalElement(x.q, t, _raw=True) for d, t in sorted(buckets.items())}
    )


# ---------------------------------------------------------------------------
# closed-form expansions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def comm_power(k: int, q: QValue) -> NormalElement:
    """PBW expansion of [A,B]^k."""
    if k < 0:
        raise ValueError("comm_power needs k >= 0")
    if k == 0:
        return NormalElement.one(q)
    if k == 1:
        # [A,B] = AB - BA = (q-1) BA + I
        one = NormalElement.one(q)
        ba = NormalElement.monomial(1, 1, q, q.scalar() - RF_ONE)
        return ba + one
    return comm_power(k - 1, q) * comm_power(1, q)


REORDER_KINDS = ("AB^n", "A^nB", "BA^n", "B^nA")


def reorder_sides(kind: str, n: int, q: QValue) -> Tuple[NormalElement, NormalElement]:
    """Left and right side of one reordering formula, both in PBW form."""
    if n < 1:
        raise ValueError("reordering formulas need n >= 1")
    q_rf = q.scalar()
    if kind == "AB^n":
        lhs = nf_word("A" + "B" * n, q)
        rhs = NormalElement.monomial(n, 1, q, q_rf**n) + NormalElement.monomial(
            n - 1, 0, q, q_int(n, q_rf)
        )
    elif kind == "A^nB":
        lhs = nf_word("A" * n + "B", q)
        rhs = NormalElement.monomial(1, n, q, q_rf**n) + NormalElement.monomial(
            0, n - 1, q, q_int(n, q_rf)
        )
    elif kind == "BA^n":
        if q.is_zero:
            raise DegenerateQError("BA^n reordering requires q != 0")
        qinv = q_rf.inv()
        lhs = nf_word("B" + "A" * n, q)
        rhs = nf_word("A" * n + "B", q).scale(qinv**n) - NormalElement.monomial(
            0, n - 1, q, qinv * q_int(n, qinv)
        )
    elif kind == "B^nA":
        if q.is_zero:
            raise DegenerateQError("B^nA reordering requires q != 0")
        qinv = q_rf.inv()
        lhs = nf_word("B" * n + "A", q)
        rhs = nf_word("A" + "B" * n, q).scale(qinv**n) - NormalElement.monomial(
            n - 1, 0, q, qinv * q_int(n, qinv)
        )
    else:
        raise ValueError("unknown reordering kind %r" % kind)
    return lhs, rhs


def shift_poly_sides(w: str, n: int, q: QValue):
    """Sides of P [A,B]^n = [A,B]^n P(q^-n B, q^n A) for the word P = w; the
    substitution scales w by q^(n (#A - #B)).  Needs q != 0."""
    if n < 0:
        raise ValueError("shift identity needs n >= 0")
    if q.is_zero:
        raise DegenerateQError("the shift identity requires q != 0")
    p, c = nf_word(w, q), comm_power(n, q)
    return p * c, c * p.scale(q.power(n * (w.count("A") - w.count("B"))))


def bnan_expand(n: int, q: QValue) -> NormalElement:
    """Closed form of B^n A^n as a combination of [A,B]^i powers.

    B^nA^n = q^-C(n,2) (q-1)^-n sum_i (-1)^(n-i) q^C(n-i,2) (n i)_q [A,B]^i.
    """
    if n < 0:
        raise ValueError("bnan_expand needs n >= 0")
    _require_not_01(q, "bnan_expand")
    q_rf = q.scalar()
    front = q.power(-binom2(n)) * (q_rf - RF_ONE) ** (-n)
    return lincomb((
        (front * q_binomial(n, i, q_rf) * q_rf ** binom2(n - i) * (-1) ** (n - i), comm_power(i, q))
        for i in range(n + 1)
    ), q)


def anbn_expand(n: int, q: QValue) -> NormalElement:
    """Closed form of A^n B^n as a combination of [A,B]^i powers.

    A^nB^n = (q-1)^-n sum_i (-1)^(n-i) q^C(i+1,2) (n i)_q [A,B]^i.
    """
    if n < 0:
        raise ValueError("anbn_expand needs n >= 0")
    _require_not_01(q, "anbn_expand")
    q_rf = q.scalar()
    front = (q_rf - RF_ONE) ** (-n)
    return lincomb((
        (front * q_binomial(n, i, q_rf) * q_rf ** binom2(i + 1) * (-1) ** (n - i), comm_power(i, q))
        for i in range(n + 1)
    ), q)


def anbn_via_gauss(n: int, q: QValue) -> NormalElement:
    """A^n B^n computed through the Gauss polynomial route:
    q^C(n,2) (q-1)^-n G_n(q[A,B]; q^-1)."""
    if n < 0:
        raise ValueError("anbn_via_gauss needs n >= 0")
    _require_not_01(q, "anbn_via_gauss")
    q_rf = q.scalar()
    x = comm_power(1, q).scale(q_rf)
    g = gauss_polynomial(n, x, q_rf.inv())
    return g.scale(q_rf ** binom2(n) * (q_rf - RF_ONE) ** (-n))


# ---------------------------------------------------------------------------
# the [A,B]-power basis of Proposition-grade
# ---------------------------------------------------------------------------


@dataclass
class LiePowerCoords:
    """Coordinates on the basis {[A,B]^k, B^d [A,B]^k, [A,B]^k A^-d}.

    Key (d, k): d is the grading degree, k the [A,B]-power.  d > 0 keys
    mean B^d [A,B]^k, d < 0 keys mean [A,B]^k A^(-d).
    """

    q: QValue
    coords: Dict[Tuple[int, int], RationalFunction]

    def coeff(self, d: int, k: int) -> RationalFunction:
        return self.coords.get((d, k), RF_ZERO)

    def render(self) -> str:
        return _render_terms(
            (self.coords[d, k], _power("B", d) + _power("[A,B]", k) + _power("A", -d))
            for d, k in sorted(self.coords)
        )


@lru_cache(maxsize=None)
def lie_power_vector(d: int, k: int, q: QValue) -> NormalElement:
    """PBW expansion of the (d, k) basis vector."""
    if k < 0:
        raise ValueError("lie_power_vector needs k >= 0")
    c = comm_power(k, q)
    if d > 0:
        return NormalElement.monomial(d, 0, q) * c
    if d < 0:
        return c * NormalElement.monomial(0, -d, q)
    return c


def to_lie_power_basis(x: NormalElement) -> LiePowerCoords:
    """Exact coordinates in the [A,B]-power basis, by back-substitution.

    Works per grading component; the expansions of B^d [A,B]^k are
    triangular in the A-degree with invertible leading coefficients
    whenever q is not 0 or 1.
    """
    q = x.q
    _require_not_01(q, "to_lie_power_basis")
    coords: Dict[Tuple[int, int], RationalFunction] = {}
    for d, part in grade(x).parts.items():
        rem = dict(part.terms)
        while rem:
            k = max(min(m, n) for (m, n) in rem)
            key = (max(k + d, k), max(k - d, k))
            if key not in rem:
                raise AssertionError("triangular solve lost its pivot")
            vec = lie_power_vector(d, k, q)
            c = coords[(d, k)] = rem[key] / vec.terms[key]
            add_terms(rem, ((j, -c * v) for j, v in vec.terms.items()))
    return LiePowerCoords(q, coords)


def from_lie_power_basis(c: LiePowerCoords) -> NormalElement:
    """Inverse of to_lie_power_basis."""
    _require_not_01(c.q, "from_lie_power_basis")
    return lincomb(((x, lie_power_vector(d, k, c.q)) for (d, k), x in c.coords.items()), c.q)


# ---------------------------------------------------------------------------
# adjoint identities
# ---------------------------------------------------------------------------


def adad_sides(m: int, n: int, q: QValue):
    """Both identities of the adjoint lemma for B^m A^n:
    [<BA>, B^m A^n] and [B, B^m A^n] with their closed forms."""
    if m < 0 or n < 0:
        raise ValueError("adad identities need m, n >= 0")
    q_rf = q.scalar()
    mono = NormalElement.monomial(m, n, q)
    br_ba = bracketed_word("BA", q)
    lhs1 = commutator(br_ba, mono)
    f = q_rf**n - q_rf**m
    rhs1 = NormalElement.monomial(m + 1, n + 1, q, (q_rf - RF_ONE) * f) + (
        NormalElement.monomial(m, n, q, f) if not f.is_zero() else NormalElement.zero(q)
    )
    lhs2 = commutator(NormalElement.monomial(1, 0, q), mono)
    rhs2 = NormalElement.monomial(m + 1, n, q, RF_ONE - q_rf**n)
    if n >= 1:
        rhs2 = rhs2 - NormalElement.monomial(m, n - 1, q, q_int(n, q_rf))
    return (lhs1, rhs1), (lhs2, rhs2)


def fban_sides(n: int, q: QValue):
    """<BA^n> and <B^nA> against their closed forms, n >= 1."""
    if n < 1:
        raise ValueError("fban identities need n >= 1")
    q_rf = q.scalar()
    one_minus_q = RF_ONE - q_rf
    lhs1 = bracketed_word("B" + "A" * n, q)
    rhs1 = NormalElement.monomial(1, n, q, one_minus_q**n) - NormalElement.monomial(
        0, n - 1, q, one_minus_q ** (n - 1)
    )
    lhs2 = bracketed_word("B" * n + "A", q)
    rhs2 = NormalElement.monomial(n, 1, q, one_minus_q**n) - NormalElement.monomial(
        n - 1, 0, q, one_minus_q ** (n - 1)
    )
    return (lhs1, rhs1), (lhs2, rhs2)
