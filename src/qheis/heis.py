"""The q-deformed Heisenberg algebra H(q): normal forms on the B^m A^n
basis, the Z-grading, commutator-power expansions, the [A,B]-power basis,
and the closed-form reordering identities the rest of the package checks.

The defining relation is AB - qBA = I, used as the rewrite rule
AB -> q BA + I.  All coefficients are exact elements of Q(q).

At symbolic q, a PBW product of four or more term pairs with every
coefficient in Z[q] runs on ints: each polynomial is packed once into its
value at q = 2^K (Kronecker substitution, K from a proven l1-norm bound).
`lincomb` sums linear combinations sum c_i x_i packed the same way.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from .coeff import (
    RF_ONE,
    RF_ZERO,
    IntPoly,
    QValue,
    RationalFunction,
    _q_q1_poly,
    _split_q_q1,
    binom2,
    gauss_polynomial,
    q_binomial,
    q_int,
)
from .freealg import FreeElement, scale_letters
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
        self.terms = terms if _raw else {k: c for k, c in terms.items() if not c.is_zero()}

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
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return NormalElement(q, out, _raw=True)

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
        # at symbolic q with all coefficients in Z[q] (else None), multiply
        # packed ints; below four term pairs the loop below is faster
        if q.is_symbolic and len(self.terms) * len(other.terms) > 3:
            out = _packed_product(self.terms, other.terms, q)
            if out is not None:
                return NormalElement(q, out, _raw=True)
        out: Dict[MonoKey, RationalFunction] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                c12 = c1 * c2
                if n1 and m2:
                    terms = [
                        ((m1 + a, b + n2), c12 * f)
                        for (a, b), f in _an_bk_expansion(n1, m2, q)
                    ]
                else:
                    # A^n1 B^m2 with n1 == 0 or m2 == 0 is already B^m2 A^n1
                    terms = (((m1 + m2, n1 + n2), c12),)
                for key, c in terms:
                    acc = out.get(key)
                    s = c if acc is None else acc + c
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
        return NormalElement(q, out, _raw=True)

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

    def support_bound(self) -> int:
        """Smallest D with all keys satisfying m, n <= D."""
        if not self.terms:
            return 0
        return max(max(m, n) for m, n in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalElement)
            and self.q == other.q
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (m, n) in sorted(self.terms, key=lambda k: (k[0] - k[1], k[0])):
            c = self.terms[(m, n)]
            mono = []
            if m:
                mono.append("B" if m == 1 else "B^%d" % m)
            if n:
                mono.append("A" if n == 1 else "A^%d" % n)
            word = " ".join(mono) if mono else "I"
            cs = c.render()
            if cs == "1" and mono:
                parts.append(word)
            else:
                if "+" in cs or "- " in cs or "/" in cs:
                    cs = "(%s)" % cs
                parts.append("%s * %s" % (cs, word) if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return "NormalElement(q=%s, %s)" % (self.q, self.render())


@lru_cache(maxsize=None)
def _an_bk_expansion(n: int, k: int, q: QValue):
    """PBW expansion of A^n B^k as a tuple of ((m', n'), coeff) pairs.

    Built by absorbing one B at a time through A^n with the rule
    A^j B = q^j B A^j + {j}_q A^(j-1).
    """
    q_rf = q.scalar()
    state: Dict[MonoKey, RationalFunction] = {(0, n): RF_ONE}
    for _ in range(k):
        nxt: Dict[MonoKey, RationalFunction] = {}
        for (a, b), c in state.items():
            up = c * q_rf**b
            if not up.is_zero():
                key = (a + 1, b)
                acc = nxt.get(key)
                nxt[key] = up if acc is None else acc + up
            if b > 0:
                down = c * q_int(b, q_rf)
                if not down.is_zero():
                    key = (a, b - 1)
                    acc = nxt.get(key)
                    nxt[key] = down if acc is None else acc + down
        state = {key: c for key, c in nxt.items() if not c.is_zero()}
    return tuple(sorted(state.items()))


def _packed_product(xt, yt, q: QValue):
    """The loop of ``NormalElement.__mul__`` on the term maps xt and yt, on
    their Z[q] coefficients packed once at q = 2^K (a ring homomorphism to
    Z) and unpacked once from balanced base-2^K digits; None if a
    denominator is not 1.  No coefficient of a partial sum exceeds the l1
    bound |x|_1 |y|_1 max |f|_1 (f over the expansions used) < 2^(K-1), so
    the digits are exact and a packed sum is 0 only for the zero
    polynomial.  K is a multiple of 16, to keep the packed expansions few."""
    if any(c.den.coeffs != (1,) for t in (xt, yt) for c in t.values()):
        return None
    ns, ms = {n for _, n in xt if n}, {m for m, _ in yt if m}
    bound = max((_an_bk_norm(n, m, q) for n in ns for m in ms), default=1)
    for t in (xt, yt):
        bound *= sum(sum(map(abs, c.num.coeffs)) for c in t.values())
    K = _width(bound)
    xp = [(key, _pack(c.num.coeffs, K)) for key, c in xt.items()]
    yp = [(key, _pack(c.num.coeffs, K)) for key, c in yt.items()]
    out: Dict[MonoKey, int] = {}
    for (m1, n1), c1 in xp:
        for (m2, n2), c2 in yp:
            c12 = c1 * c2
            if n1 and m2:
                terms = [((m1 + a, b + n2), c12 * f) for (a, b), f in _an_bk_packed(n1, m2, q, K)]
            else:
                terms = (((m1 + m2, n1 + n2), c12),)
            for key, c in terms:
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    for key, v in out.items():
        out[key] = RationalFunction(_unpack(v, K), _P_ONE, _raw=True)
    return out


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


def lincomb(pairs, q: QValue) -> NormalElement:
    """The sum of c x over the (c, x) pairs.  At symbolic q, when every
    coefficient of every x is in Z[q] and every c.den is q^a (q - 1)^b (as in
    all of H(q)'s closed forms), the products are summed over the lcm D of the
    c.den as ints packed at q = 2^K, and each key is unpacked and divided by D
    once; K comes from the l1 bound sum |c.num D/c.den|_1 max |f|_1, as in
    ``_packed_product``.  Any other input takes the scale-and-add loop."""
    pairs = list(pairs)
    if q.is_symbolic and all(
        x.q == q and all(f.den.coeffs == (1,) for f in x.terms.values()) for _, x in pairs
    ):
        split = {d: _split_q_q1(d.coeffs, len(d.coeffs), len(d.coeffs)) for d in {c.den for c, _ in pairs}}
        if all(tuple(r) == (1,) for r, _, _ in split.values()):
            A = max((a for _, a, _ in split.values()), default=0)
            B = max((b for _, _, b in split.values()), default=0)
            nums = [c.num * _q_q1_poly(1, A - split[c.den][1], B - split[c.den][2]) for c, _ in pairs]
            norm = max((sum(map(abs, f.num.coeffs)) for _, x in pairs for f in x.terms.values()), default=0)
            K = _width(sum(sum(map(abs, n.coeffs)) for n in nums) * norm)
            out: Dict[MonoKey, int] = {}
            for n, (_, x) in zip(nums, pairs):
                cn = _pack(n.coeffs, K)
                for key, f in x.terms.items():
                    out[key] = out.get(key, 0) + cn * _pack(f.num.coeffs, K)
            den = _q_q1_poly(1, A, B)
            out = {k: RationalFunction(_unpack(v, K), den, _raw=A == B == 0) for k, v in out.items() if v}
            return NormalElement(q, out, _raw=True)
    return sum((x.scale(c) for c, x in pairs), NormalElement.zero(q))


@lru_cache(maxsize=None)
def _an_bk_norm(n: int, k: int, q: QValue) -> int:
    """Largest l1 norm of a coefficient of ``_an_bk_expansion(n, k, q)``, all
    in Z[q] at symbolic q: the expansion multiplies only by q^b and {b}_q."""
    return max(sum(map(abs, f.num.coeffs)) for _, f in _an_bk_expansion(n, k, q))


@lru_cache(maxsize=None)
def _an_bk_packed(n: int, k: int, q: QValue, K: int):
    """``_an_bk_expansion(n, k, q)`` with each coefficient packed at q = 2^K."""
    return tuple((key, _pack(f.num.coeffs, K)) for key, f in _an_bk_expansion(n, k, q))


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"


def _inversions(w: str) -> int:
    """Number of (A, later B) pairs; each rewrite strictly decreases it
    within a length class, so it is the termination metric."""
    a_seen = 0
    inv = 0
    for ch in w:
        if ch == "A":
            a_seen += 1
        else:
            inv += a_seen
    return inv


@lru_cache(maxsize=None)
def _word_normal_form(word: str, q: QValue, strategy: str):
    """Fully rewrite a single word with AB -> q BA + I.

    ``strategy`` picks which AB occurrence is contracted first; by
    confluence the result is independent of the choice, which the test
    suite probes explicitly.  Words are processed in decreasing
    (length, inversions) order: both successors of a rewrite sit
    strictly lower, so every distinct word is expanded exactly once.
    """
    q_rf = q.scalar()
    pending: Dict[str, RationalFunction] = {word: RF_ONE}
    heap = [(-len(word), -_inversions(word), word)]
    out: Dict[MonoKey, RationalFunction] = {}

    def push(w: str, c: RationalFunction) -> None:
        acc = pending.get(w)
        if acc is None:
            pending[w] = c
            heapq.heappush(heap, (-len(w), -_inversions(w), w))
        else:
            s = acc + c
            if s.is_zero():
                # the heap entry goes stale; the pop guard skips it
                del pending[w]
            else:
                pending[w] = s

    while heap:
        _, _, w = heapq.heappop(heap)
        c = pending.pop(w, None)
        if c is None:
            continue
        i = w.find("AB") if strategy == LEFTMOST else w.rfind("AB")
        if i < 0:
            m = w.count("B")
            key = (m, len(w) - m)
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
            continue
        cq = c * q_rf
        if not cq.is_zero():
            push(w[:i] + "BA" + w[i + 2 :], cq)
        push(w[:i] + w[i + 2 :], c)
    return tuple(sorted(out.items()))


def normal_form(x: FreeElement, q: QValue, strategy: str = LEFTMOST) -> NormalElement:
    """Image of a free-algebra element in H(q), in PBW coordinates."""
    if strategy not in (LEFTMOST, RIGHTMOST):
        raise ValueError("unknown rewrite strategy %r" % strategy)
    out: Dict[MonoKey, RationalFunction] = {}
    for w, c in x.terms.items():
        for key, f in _word_normal_form(w, q, strategy):
            t = c * f
            acc = out.get(key)
            s = t if acc is None else acc + t
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return NormalElement(q, out, _raw=True)


def nf_word(w: str, q: QValue) -> NormalElement:
    """Normal form of a single word."""
    check_word(w)
    return normal_form(FreeElement.word(w), q)


def embed(x: NormalElement) -> FreeElement:
    """Re-read a PBW expression as a free-algebra element (B's then A's)."""
    return FreeElement.from_terms(
        ("B" * m + "A" * n, c) for (m, n), c in x.terms.items()
    )


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


def reorder_check(kind: str, n: int, q: QValue) -> bool:
    lhs, rhs = reorder_sides(kind, n, q)
    return lhs == rhs


def shift_poly_sides(P: FreeElement, n: int, q: QValue):
    """Sides of P(B,A) [A,B]^n = [A,B]^n P(q^-n B, q^n A); needs q != 0."""
    if n < 0:
        raise ValueError("shift identity needs n >= 0")
    if q.is_zero:
        raise DegenerateQError("the shift identity requires q != 0")
    c = comm_power(n, q)
    lhs = normal_form(P, q) * c
    scaled = scale_letters(P, q.power(n), q.power(-n))
    rhs = c * normal_form(scaled, q)
    return lhs, rhs


def shift_poly_check(P: FreeElement, n: int, q: QValue) -> bool:
    lhs, rhs = shift_poly_sides(P, n, q)
    return lhs == rhs


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
        if not self.coords:
            return "0"
        parts = []
        for (d, k) in sorted(self.coords):
            c = self.coords[(d, k)]
            names = []
            if d > 0:
                names.append("B" if d == 1 else "B^%d" % d)
            if k:
                names.append("[A,B]" if k == 1 else "[A,B]^%d" % k)
            if d < 0:
                names.append("A" if d == -1 else "A^%d" % (-d))
            body = " ".join(names) if names else "I"
            cs = c.render()
            if cs == "1" and names:
                parts.append(body)
                continue
            if "+" in cs or "- " in cs or "/" in cs:
                cs = "(%s)" % cs
            parts.append("%s * %s" % (cs, body) if names else cs)
        return " + ".join(parts)


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
        rem = part
        while not rem.is_zero():
            k = max(min(m, n) for (m, n) in rem.terms)
            key = (max(k + d, k), max(k - d, k))
            vec = lie_power_vector(d, k, q)
            lead = vec.terms[key]
            c = rem.terms.get(key, RF_ZERO) / lead
            if c.is_zero():
                raise AssertionError("triangular solve lost its pivot")
            coords[(d, k)] = c
            rem = rem - vec.scale(c)
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


def adad_check(m: int, n: int, q: QValue) -> bool:
    (l1, r1), (l2, r2) = adad_sides(m, n, q)
    return l1 == r1 and l2 == r2


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


def fban_check(n: int, q: QValue) -> bool:
    (l1, r1), (l2, r2) = fban_sides(n, q)
    return l1 == r1 and l2 == r2
