"""The q-deformed Heisenberg algebra H(q): normal forms on the B^m A^n
basis, the Z-grading, commutator-power expansions, the [A,B]-power basis,
and the closed-form reordering identities the rest of the package checks.

The defining relation AB - qBA = I enters in one place: `_an_bk_expansion`
moves one B at a time through A^j by A^j B = q^j B A^j + {j}_q A^(j-1).  The
PBW product is built on those expansions, and a word (`nf_word`) is the
product of its B^m A^n runs.  All coefficients are exact elements of Q(q).

One kernel, `_product`, makes the PBW product and the commutator xy - yx,
which it sums as one term map before it decodes a key.  From four term pairs
up it runs on ints when every coefficient fits the codec of q, as `lincomb`
(a sum of c_i x_i) does; anything else is summed over Q(q).  A power x^n
(`NormalElement.__pow__`) is one chain r <- r x on ints from the first
product to the last, its width at symbolic q re-measured from r's digits
when a step outgrows it.  One memo turns coefficients into ints, for
elements and for the A^n B^k and [A,B]^k tables alike: an element keeps its
sizes and its packs (`_codec`), one term map per width W (`_packed_terms`),
so a cached element is packed once per width for the whole process.  At
symbolic q each coefficient must be in Z[q] and is packed into its value at
q = 2^W (Kronecker substitution, W = K from a proven l1-norm bound).  At
rational q each must be a constant n/d and becomes n W/d, W a multiple of
the lcm denominator D, and `lincomb` also needs two pairs or more.  A
polynomial coefficient at rational q takes the loop over Q(q); the one suite
that draws them, grad-basis-roundtrip, splits them into constants itself.
One encoder, `_scalars`, brings the scalars c of `lincomb` over one
denominator, and one decoder, `_decode`, turns every kernel's ints back into
coefficients, `lie.zero_basis_coords` included: over q^a (q-1)^b by
`coeff._over_q_q1` (not the generic `_normalize`), or over an int D by one
gcd.  Packed values go to and from their balanced base-2^K digits (`_pack`,
`_unpack`) in one C-level pass: as native signed ints at K = 16, 32 and 64,
as bytes at every other K.

`to_lie_power_basis` splits x's terms by grading, with no element per part:
a one-term part c B^d or c A^-d is its own coordinate, and any other part is
back-substituted in one pivot loop on the same codecs.  At symbolic q the
part is first multiplied by P = (q-1)^kmax q^C(kmax,2), which by the
`bnan_expand` closed form clears every denominator of its coordinates, so
each pivot divides exactly; at rational q the remainder is scaled up where a
pivot does not divide.  Every term map, on ints or over Q(q), is summed by
`coeff.add_terms`, which drops a key as soon as its sum is 0.
"""

from __future__ import annotations

import math
import re
import struct
import sys

from array import array
from functools import lru_cache, reduce
from itertools import accumulate, groupby, repeat
from operator import mul
from typing import Dict, Tuple

from .coeff import (
    RF_ONE,
    RF_ZERO,
    IntPoly,
    QValue,
    RationalFunction,
    Record,
    _const,
    _monic_q_q1,
    _over_q_q1,
    _q_q1_poly,
    _split_q_q1,
    add_terms,
    binom2,
    gauss_terms,
    q_int,
    q_laurent,
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


class NormalElement:
    """Element of H(q) in PBW coordinates: finite map (m, n) -> coeff of B^m A^n.

    An element is immutable once built: nothing writes to ``terms`` after
    the constructor, because ``_packs`` keeps what the packed kernels derive
    from them (``_codec``), so a cached element is packed once per width."""

    __slots__ = ("q", "terms", "_packs")

    def __init__(self, q: QValue, terms: Dict[MonoKey, RationalFunction] = None, *, _raw=False):
        self.q = q
        if terms is None:
            terms = {}
        self.terms = terms if _raw else add_terms({}, terms.items())
        self._packs = None

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
        e = len(c.den.coeffs) - 1
        if c.num.coeffs == (1,) and e and c.den == _monic_q_q1(e, 0):
            # c = q^-e: on Z[q] coefficients only factors q can cancel
            if all(x.den.coeffs == (1,) for x in self.terms.values()):
                return NormalElement(self.q, {k: _over_q_q1(x.num, e, 0) for k, x in self.terms.items()}, _raw=True)
        return NormalElement(self.q, {k: x * c for k, x in self.terms.items()}, _raw=True)

    # -- multiplication -------------------------------------------------

    def __mul__(self, other: "NormalElement") -> "NormalElement":
        return _product(self, other)

    def __pow__(self, n: int) -> "NormalElement":
        """x^n by the chain r <- r x; if x fits ``_codec``, on ints from the
        first product to the last, decoded once.  At symbolic q r is packed at
        width K, and S bounds the sum of its coefficients' l1 norms.  A step's
        coefficients are at most M S Sx, M the largest coefficient l1 norm in
        its A^n B^m tables; when ``_width`` of that exceeds K, r is unpacked
        (exact: the last step was sized for it), S becomes the measured sum
        and r is repacked if K changes.  Then S <- S Sx F, F the largest l1
        sum of one table.  At rational q each step multiplies r's denominator
        by Dx W, the lcm denominators of x and of the step's tables."""
        if n < 0:
            raise ValueError("no negative powers in H(q)")
        q, xt, cx = self.q, self.terms, _codec(self)
        if n < 2 or not cx:
            return reduce(mul, repeat(self, n - 1), self) if n else NormalElement.one(q)
        Sx = S = den = cx[0]
        r, K = (xt if q.is_symbolic else _packed_terms(self, Sx)), 0
        for _ in range(n - 1):
            tables = {nm: _an_bk_expansion(*nm, q) for nm in _reorderings(r, xt)}
            sizes = [_codec(f) for f in tables.values()]
            if q.is_symbolic:
                M = max((c[1] for c in sizes), default=1)
                if _width(M * S * Sx) > K:
                    polys = {key: _unpack(v, K) if K else v.num for key, v in r.items()}
                    S, K0 = sum(sum(map(abs, c.coeffs)) for c in polys.values()), K
                    K = _width(M * S * Sx)
                    r = r if K == K0 else {key: _pack(c.coeffs, K) for key, c in polys.items()}
                W, one, S = K, None, S * Sx * max((c[0] for c in sizes), default=1)
            else:
                W = one = math.lcm(*(c[0] for c in sizes))
                den *= Sx * W
            fp = {nm: _packed_terms(f, W) for nm, f in tables.items()}
            r = add_terms({}, _product_terms(r, _packed_terms(self, K or Sx), fp, one))
        return NormalElement(q, _decode(r, K, (0, 0)) if K else _decode(r, None, den), _raw=True)

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

    def render_parts(self) -> Dict[int, str]:
        """{d: the text of the grading-d part}, d ascending: ``render`` split
        by grading, from one sort of the keys."""
        keys = groupby(sorted(self.terms, key=lambda k: (k[0] - k[1], k[0])), lambda k: k[0] - k[1])
        return {d: _render_terms((self.terms[k], _power("B", k[0]) + _power("A", k[1])) for k in ks) for d, ks in keys}

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
def _an_bk_expansion(n: int, k: int, q: QValue) -> NormalElement:
    """PBW expansion of A^n B^k, with its keys in sorted order.

    Built by absorbing one B at a time through A^n with the rule
    A^j B = q^j B A^j + {j}_q A^(j-1).  At q = 0 that rule is AB = I, so
    A^n B^k is the pure power A^(n-k) or B^(k-n).  The kernels read it as
    they read any element, packed once per width by ``_packed_terms``.
    """
    if q.is_zero:
        return NormalElement.monomial(max(k - n, 0), max(n - k, 0), q)
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
    return NormalElement(q, dict(sorted(state.items())), _raw=True)


def _decode(out, K, den):
    """{key: v/den} for a packed term map out with no zero value, each key
    decoded once: the one place where a kernel's ints become coefficients.
    At symbolic q, K is the width, v a Z[q] value packed at q = 2^K, and
    den = (a, b) stands for q^a (q - 1)^b, cancelled by ``_over_q_q1``.  At
    rational q, K is None and den is the int D: one gcd and one ``_const``
    per key."""
    if K:
        a, b = den
        return {key: _over_q_q1(_unpack(v, K), a, b) for key, v in out.items()}
    res: Dict = {}
    for key, v in out.items():
        g = math.gcd(v, den)
        res[key] = _const(v // g, den // g)
    return res


def _scalars(cs, q: QValue):
    """(nums, den) with c = num/den for each c of cs, or None where a c does
    not fit the codec of q: the one encoder of the scalars of ``lincomb``
    (an element's coefficients are packed by ``_packed_terms``).  At
    symbolic q every c.den must be q^a (q - 1)^b, as in all of H(q)'s closed
    forms; den = (A, B), the largest a and b, and each num is in Z[q].  At
    rational q every c must be a constant n/d; den is the lcm D of the d,
    and each num the int n D/d."""
    if not q.is_symbolic:
        if any(len(c.num.coeffs) > 1 or len(c.den.coeffs) > 1 for c in cs):
            return None
        D = math.lcm(*(c.den.coeffs[0] for c in cs))
        return [(c.num.coeffs or (0,))[0] * (D // c.den.coeffs[0]) for c in cs], D
    split = {d: _split_q_q1(d.coeffs, len(d.coeffs), len(d.coeffs)) for d in {c.den for c in cs}}
    if not all(tuple(r) == (1,) for r, _, _ in split.values()):
        return None
    A = max((a for _, a, _ in split.values()), default=0)
    B = max((b for _, _, b in split.values()), default=0)
    return [c.num * _q_q1_poly(1, A - split[c.den][1], B - split[c.den][2]) for c in cs], (A, B)


def _reorderings(xt, yt):
    """Each (n, m), n, m >= 1, for which the product of the term maps xt and
    yt reorders an A^n B^m."""
    ms = {m for m, _ in yt if m}
    return [(n, m) for n in {n for _, n in xt if n} for m in ms]


def _product_terms(xt, yt, fp, one=None):
    """The (key, c) terms of the product of the term maps xt and yt, where
    fp[n, m] is the term map of A^n B^m for each of ``_reorderings(xt, yt)``.
    one is 1 in the encoding of the f (the packed 1 at rational q), or None
    where that is 1 itself."""
    for (m1, n1), c1 in xt.items():
        for (m2, n2), c2 in yt.items():
            c12 = c1 * c2
            if n1 and m2:
                for (a, b), f in fp[n1, m2].items():
                    yield (m1 + a, b + n2), c12 * f
            else:
                # A^n1 B^m2 with n1 == 0 or m2 == 0 is already B^m2 A^n1
                yield (m1 + m2, n1 + n2), c12 if one is None else c12 * one


def _codec(x: NormalElement):
    """What the packed kernels read of x, derived on first use and kept in
    x._packs: [S, M, {W: ``_packed_terms(x, W)``}], where at symbolic q S and
    M are the sum and the max of the l1 norms of the coefficients, and at
    rational q both are the lcm D of their denominators; False if a
    coefficient does not fit the codec of q (is not in Z[q], is not a
    constant).  Elements and the ``_an_bk_expansion`` and ``comm_power``
    tables alike are read through it."""
    if x._packs is None:
        cs, x._packs = x.terms.values(), False
        if not x.q.is_symbolic:
            if all(len(c.num.coeffs) < 2 and len(c.den.coeffs) == 1 for c in cs):
                D = math.lcm(*(c.den.coeffs[0] for c in cs))
                x._packs = [D, D, {}]
        elif all(c.den.coeffs == (1,) for c in cs):
            norms = [sum(map(abs, c.num.coeffs)) for c in cs]
            x._packs = [sum(norms), max(norms, default=0), {}]
    return x._packs


def _packed_terms(x: NormalElement, W: int):
    """x.terms with each coefficient as an int, built once per W and kept in
    ``_codec(x)``: at symbolic q c(2^W) (c in Z[q]), at rational q n W/d for
    c = n/d (W a multiple of x's D; n itself where d = W, so that the ints
    kept are the coefficients' own objects, not copies).  The only place
    where a coefficient of an element or a table becomes an int."""
    packs = (x._packs or _codec(x))[2]
    if W not in packs:
        if x.q.is_symbolic:
            packs[W] = {key: _pack(c.num.coeffs, W) for key, c in x.terms.items()}
        else:
            nds = ((key, (c.num.coeffs or (0,))[0], c.den.coeffs[0]) for key, c in x.terms.items())
            packs[W] = {key: n if d == W else n * (W // d) for key, n, d in nds}
    return packs[W]


def _product(x: NormalElement, y: NormalElement, commute=False) -> NormalElement:
    """x y, or with commute [x, y] = x y - y x, as one sum of the
    ``_product_terms`` of x y and of -(y x).  From four term pairs up, when
    every coefficient fits the codec of q, x, y and the expansions fp are
    read packed (once per element and width, see ``_codec``) and each key of
    the sum is decoded once; else their terms over Q(q) are summed as they
    are.  A packed sum is 0 exactly when the sum it encodes is, so a key is
    dropped where the sum over Q(q) drops it.

    At symbolic q every coefficient must be in Z[q].  Each is packed at
    q = 2^K (a ring homomorphism to Z) and unpacked once from balanced
    base-2^K digits.  No coefficient of a partial sum exceeds the l1 bound
    p |x|_1 |y|_1 max |f|_1 (p the number of products, f over the expansions
    of both) < 2^(K-1), so the digits are exact.  K is a multiple of 16, to
    keep the packed expansions few.  At rational q every coefficient must be
    a constant: x and y are packed over their lcm denominators Dx and Dy, the
    expansions over the lcm W of theirs, and each sum, of x y and of y x
    alike, is an integer over Dx Dy W.  Either way ``_decode`` gives each key
    of the sum back, over 1 or over Dx Dy W."""
    q, xt, yt, one, den = _require_q(x, y), x.terms, y.terms, None, None
    products = ((xt, yt), (yt, xt)) if commute else ((xt, yt),)
    tables = {nm: _an_bk_expansion(*nm, q) for a, b in products for nm in _reorderings(a, b)}
    cx, cy = (_codec(x), _codec(y)) if len(xt) * len(yt) > 3 else (False, False)
    if cx and cy:
        if q.is_symbolic:
            W = K = _width(len(products) * max((_codec(f)[1] for f in tables.values()), default=1) * cx[0] * cy[0])
            xt, yt, den = _packed_terms(x, K), _packed_terms(y, K), (0, 0)
        else:
            W, K = math.lcm(*(_codec(f)[0] for f in tables.values())), None
            xt, yt, one, den = _packed_terms(x, cx[0]), _packed_terms(y, cy[0]), W, cx[0] * cy[0] * W
        fp = {nm: _packed_terms(f, W) for nm, f in tables.items()}
    else:
        fp = {nm: f.terms for nm, f in tables.items()}
    out = add_terms({}, _product_terms(xt, yt, fp, one))
    if commute:
        add_terms(out, _product_terms({key: -v for key, v in yt.items()}, xt, fp, one))
    return NormalElement(q, out if den is None else _decode(out, K, den), _raw=True)


def _width(bound: int) -> int:
    """K with 2^(K-1) > bound, a multiple of 16 to keep the packed forms few."""
    return (bound.bit_length() + 16) // 16 * 16


# a digit of K in {16, 32, 64} bits is one native signed int
_CASTS = {8 * struct.calcsize(c): c for c in "hiq"}
# native byte order gives the digits lowest first on a little-endian machine
# and highest first on a big-endian one
_LOWEST_FIRST = 1 if sys.byteorder == "little" else -1


@lru_cache(maxsize=256)
def _halves(K: int, n: int) -> int:
    """2^(K-1) in each of n base-2^K digits: added, it makes a balanced digit
    in [-2^(K-1), 2^(K-1)) an unsigned one; xored, it flips each digit's top
    bit, which turns the unsigned digit into the balanced digit's two's
    complement and back.  K is a multiple of 16: K/8 whole bytes a digit."""
    return int.from_bytes((bytes(K // 8 - 1) + b"\x80") * n, "little")


def _pack(cs, K: int) -> int:
    """The polynomial with coefficients cs (lowest first) at q = 2^K, in one
    C-level pass: at a native K their two's complements xor ``_halves`` are
    the value plus ``_halves``, at any other K the digits plus 2^(K-1) are its
    bytes; a c that is no balanced digit takes the shift sum."""
    code = _CASTS.get(K)
    try:
        if code:
            h = _halves(K, len(cs))
            return (int.from_bytes(array(code, cs[::_LOWEST_FIRST]).tobytes(), sys.byteorder) ^ h) - h
        half = 1 << (K - 1)
        raw = b"".join((c + half).to_bytes(K // 8, "little") for c in cs)
        return int.from_bytes(raw, "little") - _halves(K, len(cs))
    except OverflowError:  # a c that is no balanced digit
        return sum(c << K * i for i, c in enumerate(cs))


def _unpack(v: int, K: int) -> IntPoly:
    """The polynomial packed as v at q = 2^K, from balanced base-2^K digits
    (each in [-2^(K-1), 2^(K-1))): v plus ``_halves`` has the unsigned
    digits, and at a native K, xored with it, their two's complements for one
    signed memoryview cast; any other K reads them as byte slices."""
    # |v| < 2^(K m), m = v.bit_length() // K + 1, takes at most m + 1 digits
    n = v.bit_length() // K + 2
    h = _halves(K, n)
    code = _CASTS.get(K)
    if code:
        raw = ((v + h) ^ h).to_bytes(n * K // 8, sys.byteorder)
        return IntPoly(memoryview(raw).cast(code)[::_LOWEST_FIRST].tolist())
    B, half = K // 8, 1 << (K - 1)
    raw = (v + h).to_bytes(n * B, "little")
    return IntPoly([int.from_bytes(raw[i : i + B], "little") - half for i in range(0, n * B, B)])


def lincomb(pairs, q: QValue) -> NormalElement:
    """The sum of c x over the (c, x) pairs, summed on ints and decoded once
    per key; any input the codec of q does not take, such as a polynomial
    scalar or coefficient at rational q, goes through the scale-and-add loop.

    Every coefficient of every x must fit ``_codec``, and ``_scalars`` must
    bring the c to nums over one den.  At symbolic q everything is packed at
    q = 2^K, K from the l1 bound sum |num|_1 max |f|_1, as in ``_product``;
    with every c = 0 that bound is 0 and K = 16, however large the
    coefficients of the x (``_pack`` takes them by its shift sum).  At
    rational q there must be two pairs or more (``scale`` is as fast for
    one, and an x read here keeps its packs): each x is read over its own
    Dx, the nums are brought to the lcm L of the Dx, and every sum is an
    integer over den L."""
    pairs = list(pairs)
    fits = all(x.q == q for _, x in pairs) and (q.is_symbolic or len(pairs) > 1)
    sc = _scalars([c for c, _ in pairs], q) if fits else None
    if sc is None or not all(_codec(x) for _, x in pairs):
        return sum((x.scale(c) for c, x in pairs), NormalElement.zero(q))
    nums, den = sc
    if q.is_symbolic:
        norm = max((_codec(x)[1] for _, x in pairs), default=0)
        K = _width(sum(sum(map(abs, n.coeffs)) for n in nums) * norm)
        cs, ws = [_pack(n.coeffs, K) for n in nums], [K] * len(pairs)
    else:
        ws = [_codec(x)[0] for _, x in pairs]
        L, K = math.lcm(*ws), None
        cs, den = [n * (L // w) for n, w in zip(nums, ws)], den * L
    out: Dict[MonoKey, int] = {}
    for cn, (_, x), w in zip(cs, pairs, ws):
        add_terms(out, ((key, cn * v) for key, v in _packed_terms(x, w).items()))
    return NormalElement(q, _decode(out, K, den), _raw=True)


def nf_word(w: str, q: QValue) -> NormalElement:
    """Normal form of a single word: the PBW product of its maximal B^m A^n
    runs, so each A^n B^m between two runs costs one ``_an_bk_expansion``."""
    out = NormalElement.one(q)
    for run in re.findall("B+A*|A+", check_word(w)):
        m = run.count("B")
        out = out * NormalElement.monomial(m, len(run) - m, q)
    return out


def commutator(x: NormalElement, y: NormalElement) -> NormalElement:
    """[x, y] = xy - yx in H(q): both products summed into one term map by
    ``_product``, on ints when its codec takes them, else over Q(q)."""
    return _product(x, y, commute=True)


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
    # a fresh element over the terms of [A,B]^(k-1): the packs this step
    # takes die with it instead of staying in the cache beside the terms
    return NormalElement(q, comm_power(k - 1, q).terms, _raw=True) * comm_power(1, q)


REORDER_KINDS = ("AB^n", "A^nB", "BA^n", "B^nA")


def reorder_sides(kind: str, n: int, q: QValue) -> Tuple[NormalElement, NormalElement]:
    """Left and right side of one reordering formula, both in PBW form."""
    if n < 1:
        raise ValueError("reordering formulas need n >= 1")
    if kind in ("AB^n", "A^nB"):
        # q^n and {n}_q = 1 + q + ... + q^(n-1)
        qn, run = q.power(n), q_laurent(q, ((1, e) for e in range(n)))
    elif kind in ("BA^n", "B^nA"):
        if q.is_zero:
            raise DegenerateQError("%s reordering requires q != 0" % kind)
        # q^-n and q^-1 {n}_(1/q) = q^-1 + ... + q^-n
        qn, run = q.power(-n), q_laurent(q, ((1, -e) for e in range(1, n + 1)))
    if kind == "AB^n":
        lhs = nf_word("A" + "B" * n, q)
        rhs = NormalElement.monomial(n, 1, q, qn) + NormalElement.monomial(n - 1, 0, q, run)
    elif kind == "A^nB":
        lhs = nf_word("A" * n + "B", q)
        rhs = NormalElement.monomial(1, n, q, qn) + NormalElement.monomial(0, n - 1, q, run)
    elif kind == "BA^n":
        lhs = nf_word("B" + "A" * n, q)
        rhs = nf_word("A" * n + "B", q).scale(qn) - NormalElement.monomial(0, n - 1, q, run)
    elif kind == "B^nA":
        lhs = nf_word("B" * n + "A", q)
        rhs = nf_word("A" + "B" * n, q).scale(qn) - NormalElement.monomial(n - 1, 0, q, run)
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
    # scaled after the product: c p stays in Z[q], so it runs packed
    return p * c, (c * p).scale(q.power(n * (w.count("A") - w.count("B"))))


def bnan_expand(n: int, q: QValue) -> NormalElement:
    """Closed form of B^n A^n as a combination of [A,B]^i powers.

    B^nA^n = q^-C(n,2) (q-1)^-n sum_i (-1)^(n-i) q^C(n-i,2) (n i)_q [A,B]^i.
    """
    if n < 0:
        raise ValueError("bnan_expand needs n >= 0")
    _require_not_01(q, "bnan_expand")
    return lincomb((
        (q_laurent(q, gauss_terms(n, i, binom2(n - i) - binom2(n), (-1) ** (n - i)), n), comm_power(i, q))
        for i in range(n + 1)
    ), q)


def anbn_expand(n: int, q: QValue) -> NormalElement:
    """Closed form of A^n B^n as a combination of [A,B]^i powers.

    A^nB^n = (q-1)^-n sum_i (-1)^(n-i) q^C(i+1,2) (n i)_q [A,B]^i.
    """
    if n < 0:
        raise ValueError("anbn_expand needs n >= 0")
    _require_not_01(q, "anbn_expand")
    return lincomb((
        (q_laurent(q, gauss_terms(n, i, binom2(i + 1), (-1) ** (n - i)), n), comm_power(i, q))
        for i in range(n + 1)
    ), q)


def anbn_via_gauss(n: int, q: QValue) -> NormalElement:
    """A^n B^n computed through the Gauss polynomial route:
    q^C(n,2) (q-1)^-n G_n(q[A,B]; 1/q), G_n(x; z) the Gauss polynomial
    sum_i (-1)^(n-i) z^C(n-i,2) (n i)_z x^i, summed by one ``lincomb``.
    With (n i)_q = sum c_j q^j, the scalar of [A,B]^i is
    (-1)^(n-i) q^(C(n,2) + i - C(n-i,2)) sum c_j q^-j over (q-1)^n: (n i)_(1/q)
    is taken term by term, not as the ``anbn_expand`` closed form."""
    if n < 0:
        raise ValueError("anbn_via_gauss needs n >= 0")
    _require_not_01(q, "anbn_via_gauss")

    def scalar(i):
        e = binom2(n) + i - binom2(n - i)
        return q_laurent(q, [(c, e - j) for c, j in gauss_terms(n, i, 0, (-1) ** (n - i))], n)

    return lincomb(((scalar(i), comm_power(i, q)) for i in range(n + 1)), q)


# ---------------------------------------------------------------------------
# the [A,B]-power basis of Proposition-grade
# ---------------------------------------------------------------------------


class LiePowerCoords(Record):
    """Coordinates on the basis {[A,B]^k, B^d [A,B]^k, [A,B]^k A^-d}.

    Key (d, k): d is the grading degree, k the [A,B]-power.  d > 0 keys
    mean B^d [A,B]^k, d < 0 keys mean [A,B]^k A^(-d).
    """

    __slots__ = ("q", "coords")

    def __init__(self, q: QValue, coords: Dict[Tuple[int, int], RationalFunction]):
        self.q, self.coords = q, coords

    def render(self) -> str:
        return _render_terms(
            (self.coords[d, k], _power("B", d) + _power("[A,B]", k) + _power("A", -d))
            for d, k in sorted(self.coords)
        )


@lru_cache(maxsize=None)
def lie_power_vector(d: int, k: int, q: QValue) -> NormalElement:
    """PBW expansion of the (d, k) basis vector.  [A,B]^k has only keys
    (j, j), and B^d B^j A^j = B^(j+d) A^j, B^j A^j A^e = B^j A^(j+e): the
    keys of ``comm_power(k, q)`` shift."""
    if k < 0:
        raise ValueError("lie_power_vector needs k >= 0")
    dm, dn = max(d, 0), max(-d, 0)
    return NormalElement(q, {(m + dm, n + dn): f for (m, n), f in comm_power(k, q).terms.items()}, _raw=True)


def _field_quotient(a, b):
    return a / b, 1


def _exact_quotient(a: int, b: int):
    c, r = divmod(a, b)
    if r:
        raise AssertionError("packed pivot division left a remainder")
    return c, 1


def _rescaling_quotient(a: int, b: int):
    """(c, s) with a s = c b and s > 0 least."""
    s = abs(b) // math.gcd(a, b)
    return a * s // b, s


def _basis_codec(terms, x: NormalElement):
    """(rem, vector, quotient, decode) to back-substitute the part terms of x
    (see ``to_lie_power_basis``); rem, solved in place, is terms or its ints."""
    q, cs = x.q, terms.values()
    table = lambda k: _codec(comm_power(k, q))
    if q.is_symbolic and all(c.den.coeffs == (1,) for c in cs):
        kmax = max(min(key) for key in terms)
        l1 = sum(sum(map(abs, c.num.coeffs)) for c in cs)
        K = _width(2**kmax * l1 * (1 + sum(table(k)[1] for k in range(kmax + 1))))
        p = _pack(_q_q1_poly(1, binom2(kmax), kmax).coeffs, K)
        rem = {key: _pack(c.num.coeffs, K) * p for key, c in terms.items()}
        decode = lambda sol, s: _decode(sol, K, (binom2(kmax), kmax))
        return rem, lambda k: _packed_terms(comm_power(k, q), K), _exact_quotient, decode
    cx = not q.is_symbolic and _codec(x)
    if cx:
        decode = lambda sol, s: _decode({k: c * table(k)[0] for k, c in sol.items()}, None, cx[0] * s)
        vector = lambda k: _packed_terms(comm_power(k, q), table(k)[0])
        packed = _packed_terms(x, cx[0])
        return {key: packed[key] for key in terms}, vector, _rescaling_quotient, decode
    return terms, lambda k: comm_power(k, q).terms, _field_quotient, lambda sol, s: sol


def _back_substitute(rem, d: int, vector, quotient):
    """({k: c}, s): the coordinates c of the term map rem, of grading d, on
    the basis vectors (d, k), and the factor s rem was scaled by; rem is
    changed in place.  vector(k) is the term map of [A,B]^k, keyed (j, j)
    (the (d, k) vector has its terms at (j + max(d, 0), j + max(-d, 0))).
    quotient(a, b) is (c, s) with a s = c b for the pivot entry a and the
    leading coefficient b; s != 1 scales rem and the coordinates so far.
    Each k is visited once, so a pivot that fails to cancel ends in the
    error below, not in a loop."""
    dm, dn = max(d, 0), max(-d, 0)
    coords, scale = {}, 1
    for k in range(max(min(key) for key in rem), -1, -1):
        key = (k + dm, k + dn)
        if key not in rem:
            continue
        vec = vector(k)
        c, s = quotient(rem[key], vec[k, k])
        if s != 1:
            for t in (rem, coords):
                for j in t:
                    t[j] *= s
            scale *= s
        coords[k] = c
        add_terms(rem, (((j + dm, j + dn), -c * f) for (j, _), f in vec.items()))
    if rem:
        raise AssertionError("triangular solve lost its pivot")
    return coords, scale


def to_lie_power_basis(x: NormalElement) -> LiePowerCoords:
    """Exact coordinates in the [A,B]-power basis, by back-substitution.

    Works per grading component d, on x's terms split by key.  A part c B^d
    or c A^-d (one key, min(m, n) = 0) is c times the (d, 0) vector.  In any
    other the (d, k) vector's term of highest A-degree, (q-1)^k q^C(k,2) B^k
    A^k shifted by d, is invertible for q not 0 or 1, so the coordinates come
    out k = kmax down to 0 (kmax the part's largest min(m, n)).  One pivot
    loop (``_back_substitute``) runs on the codec the part fits, reading each
    [A,B]^k packed at the same width, and each coordinate is decoded once:

    - symbolic q, a part over Z[q]: the part times P = (q-1)^kmax
      q^C(kmax,2), packed at q = 2^K.  By the ``bnan_expand`` closed form,
      B^n A^n with n <= kmax has coordinates q^-C(n,2) (q-1)^-n times Z[q],
      so every coordinate C of P x is in Z[q] with |C|_1 <= 2^kmax |x|_1,
      and each pivot entry is C times the packed leading coefficient: the
      division is exact.  The remainder holds the sum of the unsolved C
      times their vectors, so K is ``_width`` of 2^kmax |x|_1 (1 + the sum
      over k <= kmax of the largest l1 norm in [A,B]^k).  A coordinate is
      C/P.
    - rational q, all of x's coefficients constant: the part's integers in
      x's own packs over their lcm denominator D (read once for all parts),
      and each [A,B]^k over the lcm of its own.  When a leading coefficient
      does not divide its pivot entry, the remainder and the coordinates so
      far are scaled up until it does, and D with them.
    - anything else, polynomial coefficients at rational q included: Q(q).

    The remainder is a fresh term map from the split, so the packs kept with
    x, or with a cached element such as ``comm_power(k, q)``, never change.
    """
    _require_not_01(x.q, "to_lie_power_basis")
    coords, parts = {}, {}
    for key, c in x.terms.items():
        parts.setdefault(key[0] - key[1], {})[key] = c
    for d, terms in sorted(parts.items()):
        if len(terms) == 1 and not min(next(iter(terms))):  # c B^d or c A^-d: c times the (d, 0) vector
            (coords[d, 0],) = terms.values()
            continue
        rem, vector, quotient, decode = _basis_codec(terms, x)
        coords.update(((d, k), c) for k, c in decode(*_back_substitute(rem, d, vector, quotient)).items())
    return LiePowerCoords(x.q, coords)


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
