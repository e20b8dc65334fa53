"""Normal forms, grading, closed-form expansions, the [A,B]-power basis."""

import itertools
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from operator import eq, mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis import coeff, heis, lie, suites
from qheis.coeff import (
    IntPoly,
    QValue,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RationalFunction,
    add_terms,
    q_int,
)
from qheis.heis import (
    DegenerateQError,
    LiePowerCoords,
    NormalElement,
    QMismatchError,
    _an_bk_expansion,
    _back_substitute,
    _basis_codec,
    _exact_quotient,
    _field_quotient,
    _pack,
    _rescaling_quotient,
    _unpack,
    adad_sides,
    anbn_expand,
    anbn_via_gauss,
    bnan_expand,
    bracketed_word,
    comm_power,
    commutator,
    fban_sides,
    from_lie_power_basis,
    lie_power_vector,
    lincomb,
    nf_word,
    reorder_sides,
    shift_poly_sides,
    to_lie_power_basis,
)
from qheis.reports import FAIL, PASS
from qheis.words import enumerate_regular
from free_algebra import FreeElement, bracketing, eval_monomial
from helpers import free_from_terms, gauss_route_anbn, grade, specialize
from rewriting import LEFTMOST, RIGHTMOST, _word_normal_form, normal_form

SYM = QValue()
Q0 = QValue.rational(0)

rf_int = RationalFunction.from_int


def mono(m, n, q=SYM, c=RF_ONE):
    return NormalElement.monomial(m, n, q, c)


def embed(x):
    """Re-read a PBW expression as a free-algebra element (B's then A's)."""
    return free_from_terms(("B" * m + "A" * n, c) for (m, n), c in x.terms.items())


def rand_normal(rng, q=SYM, support=6, nterms=5):
    acc = NormalElement.zero(q)
    for _ in range(nterms):
        m, n = rng.randrange(support + 1), rng.randrange(support + 1)
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]
        c = RationalFunction(IntPoly(coeffs))
        if c.is_zero():
            c = RF_ONE
        acc = acc + mono(m, n, q, c)
    return acc


def rand_free(rng, max_len=5, nterms=3):
    acc = FreeElement.zero()
    for _ in range(nterms):
        w = "".join(rng.choice("AB") for _ in range(rng.randrange(max_len + 1)))
        acc = acc + FreeElement.word(w, rf_int(rng.randrange(-4, 5) or 1))
    return acc


# -- rewriting ---------------------------------------------------------------


def test_defining_relation():
    assert nf_word("AB", SYM) == mono(1, 1, c=RF_Q) + mono(0, 0)


def test_reordering_example_n2():
    # A B^2 = q^2 B^2 A + (1+q) B
    expected = mono(2, 1, c=RF_Q**2) + mono(1, 0, c=RF_ONE + RF_Q)
    assert nf_word("ABB", SYM) == expected


def test_zero_mode_collapse():
    assert nf_word("AABBB", Q0) == mono(1, 0, Q0)


def test_normal_form_is_linear():
    rng = random.Random(9)
    for _ in range(50):
        x, y = rand_free(rng), rand_free(rng)
        assert normal_form(x + y, SYM) == normal_form(x, SYM) + normal_form(y, SYM)


def test_rewriter_is_a_homomorphism():
    rng = random.Random(10)
    for _ in range(500):
        x, y = rand_free(rng, max_len=4), rand_free(rng, max_len=4)
        lhs = normal_form(x * y, SYM)
        rhs = normal_form(x, SYM) * normal_form(y, SYM)
        assert lhs == rhs


def test_renormalizing_a_normal_form_is_the_identity():
    rng = random.Random(11)
    for _ in range(100):
        x = rand_normal(rng)
        assert normal_form(embed(x), SYM) == x


def test_confluence_of_the_two_strategies_short_words():
    for length in range(1, 8):
        for letters in itertools.product("AB", repeat=length):
            w = "".join(letters)
            assert _word_normal_form(w, SYM, LEFTMOST) == _word_normal_form(
                w, SYM, RIGHTMOST
            )


@pytest.mark.parametrize(
    "q", [SYM, QValue.parse("-1/3"), Q0, QValue.rational(1), QValue.rational(2)], ids=str
)
def test_nf_word_matches_the_rewriter(q):
    # nf_word multiplies the B^m A^n runs of w in H(q); the rewriter never
    # multiplies, it contracts one AB at a time
    for length in range(11):
        for letters in itertools.product("AB", repeat=length):
            w = "".join(letters)
            assert nf_word(w, q) == normal_form(FreeElement.word(w), q), w


# -- algebra operations --------------------------------------------------------


def test_commutator_of_generators():
    got = commutator(nf_word("A", SYM), nf_word("B", SYM))
    assert got == mono(1, 1, c=RF_Q - RF_ONE) + mono(0, 0)


def test_monomial_product_example():
    # (B^2 A)(B A^3) = q B^3 A^4 + B^2 A^3
    got = mono(2, 1) * mono(1, 3)
    assert got == mono(3, 4, c=RF_Q) + mono(2, 3)


def test_commutator_alternating():
    rng = random.Random(12)
    for _ in range(20):
        x = rand_normal(rng)
        assert commutator(x, x).is_zero()


def test_q_mismatch_is_an_error():
    with pytest.raises(QMismatchError):
        mono(1, 0, SYM) + mono(1, 0, Q0)
    with pytest.raises(QMismatchError):
        mono(1, 0, SYM) * mono(1, 0, QValue.rational(2))


def test_power_and_identity():
    x = nf_word("AB", SYM)
    assert x**0 == NormalElement.one(SYM)
    assert x**3 == x * x * x


def test_ring_axioms_for_the_memoized_product():
    rng = random.Random(23)
    one = NormalElement.one(SYM)
    for _ in range(60):
        x, y, z = (rand_normal(rng, support=4, nterms=3) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert one * x == x == x * one


def test_engine_is_total_at_q_one():
    # no normal form divides, so q = 1 (the classical case) still works
    q1 = QValue.rational(1)
    assert nf_word("AB", q1) == mono(1, 1, q1) + NormalElement.one(q1)
    assert commutator(nf_word("A", q1), nf_word("B", q1)) == NormalElement.one(q1)
    rng = random.Random(24)
    for _ in range(30):
        x, y = rand_normal(rng, q=q1, support=4), rand_normal(rng, q=q1, support=4)
        assert normal_form(embed(x) * embed(y), q1) == x * y


@pytest.mark.parametrize(
    "q", [SYM, QValue.parse("-1/3"), Q0, QValue.rational(1)], ids=str
)
def test_product_matches_rewriter_on_pure_monomials(q):
    # operands with n1 == 0 or m2 == 0 take the product's no-reordering path
    rng = random.Random(25)
    pure = [NormalElement.one(q), mono(1, 0, q), mono(3, 0, q), mono(0, 1, q), mono(0, 2, q)]

    def operand():
        if rng.random() < 0.4:
            return rng.choice(pure)
        return rand_normal(rng, q=q, support=2, nterms=3)

    for _ in range(60):
        x, y = operand(), operand()
        assert x * y == normal_form(embed(x) * embed(y), q)


def schoolbook_product(x, y):
    """Reference for the PBW product: the term-by-term loop over Q(q)
    coefficients that served every q before symbolic products were packed."""
    q = x.q
    out = {}
    for (m1, n1), c1 in x.terms.items():
        for (m2, n2), c2 in y.terms.items():
            c12 = c1 * c2
            if n1 and m2:
                terms = [((m1 + a, b + n2), c12 * f) for (a, b), f in _an_bk_expansion(n1, m2, q).terms.items()]
            else:
                terms = (((m1 + m2, n1 + n2), c12),)
            for key, c in terms:
                acc = out.get(key)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return NormalElement(q, out, _raw=True)


def absorb_an_bk(n, k, q):
    """Reference for ``_an_bk_expansion`` at every q: absorb one B at a time
    through A^n by A^j B = q^j B A^j + {j}_q A^(j-1)."""
    q_rf = q.scalar()
    state = {(0, n): RF_ONE}
    for _ in range(k):
        nxt = {}
        for (a, b), c in state.items():
            add_terms(nxt, (((a + 1, b), c * q_rf**b), ((a, b - 1), c * q_int(b, q_rf))))
        state = nxt
    return tuple(sorted(state.items()))


def test_an_bk_expansion_matches_the_absorb_loop():
    # at q = 0, AB = I makes A^n B^k one pure power with coefficient 1
    for n in range(31):
        for k in range(31):
            assert tuple(_an_bk_expansion(n, k, Q0).terms.items()) == absorb_an_bk(n, k, Q0), (n, k)
    for q in (SYM, QValue.rational(2), QValue.parse("-1/3"), QValue.rational(-1)):
        for n in range(7):
            for k in range(7):
                assert tuple(_an_bk_expansion(n, k, q).terms.items()) == absorb_an_bk(n, k, q), (q, n, k)


def decoded(f, *args):
    """f(*args), and whether it decoded packed ints: ``_decode`` tells the
    packed path of a kernel from its loop over Q(q)."""
    with mock.patch.object(heis, "_decode", wraps=heis._decode) as decode:
        return f(*args), decode.called


def assert_same_product(x, y):
    # same terms in the same order, so every later loop over them agrees too;
    # every coefficient here fits the codec, so from four term pairs up the
    # product runs packed, below them over Q(q)
    got, packed = decoded(mul, x, y)
    assert list(got.terms.items()) == list(schoolbook_product(x, y).terms.items()), (x, y)
    assert packed == (len(x.terms) * len(y.terms) > 3), (x, y)


# integers next to each power of two, where a packing too narrow by one bit
# would read a coefficient wrong
EDGES = sorted({s * (2**j + d) for j in range(80) for d in (-1, 0) for s in (1, -1)} - {0})
int_coeffs = st.one_of(st.integers(-9, 9), st.sampled_from(EDGES))
z_poly = st.lists(int_coeffs, min_size=1, max_size=5).map(lambda cs: RationalFunction(IntPoly(cs)))
z_elements = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), z_poly, max_size=4).map(
        lambda terms: NormalElement(SYM, terms)
    ),
    # c B^m times d B^m' is c d B^(m+m'), whose |c d| is the l1 bound itself
    st.builds(lambda m, c: mono(m, 0, c=rf_int(c)), st.integers(0, 3), st.sampled_from(EDGES)),
)


@settings(max_examples=200, deadline=None)
@given(z_elements, z_elements)
def test_packed_product_matches_schoolbook(x, y):
    assert_same_product(x, y)


def test_packed_product_named_cases():
    zero = NormalElement.zero(SYM)
    x = mono(3, 5, c=RationalFunction(IntPoly([-7, 0, 2])))
    assert_same_product(x, zero)
    assert_same_product(zero, x)
    assert (x * zero).is_zero() and (zero * x).is_zero()
    # (A + 1)(B - 1) = q BA - A + B: the I of AB cancels against 1 * (-1)
    a1, b1 = mono(0, 1) + mono(0, 0), mono(1, 0) - mono(0, 0)
    assert a1 * b1 == mono(1, 1, c=RF_Q) - mono(0, 1) + mono(1, 0)
    assert_same_product(a1, b1)
    # the I cancels to 0 and is dropped, then A^2 B^2 brings it back: it
    # now follows the keys that 1 * B^2 and A^2 * (-1) added after the drop
    x, y = a1 + mono(0, 2), b1 + mono(2, 0)
    keys = list((x * y).terms)
    assert keys.index((0, 0)) > max(keys.index((2, 0)), keys.index((0, 2)))
    assert_same_product(x, y)
    # coefficients at the l1 bound: c A * d B = cd q BA + cd I, with
    # |x|_1 |y|_1 max|f|_1 = |cd|, and packed: (cA + c)(dB + d) =
    # cd q BA + cd A + cd B + 2cd, with cd next to each power of two
    for c in (1, -1, 3, -3):
        for d in EDGES:
            assert_same_product(mono(0, 1, c=rf_int(c)), mono(1, 0, c=rf_int(d)))
            assert_same_product(mono(0, 0, c=rf_int(c)), mono(2, 0, c=rf_int(d)))
            x, y = mono(0, 1, c=rf_int(c)) + mono(0, 0, c=rf_int(c)), mono(1, 0, c=rf_int(d)) + mono(0, 0, c=rf_int(d))
            assert_same_product(x, y)
    # large expansion indices
    assert_same_product(mono(0, 14) - mono(2, 3), mono(13, 1, c=rf_int(-(2**40))) + mono(0, 0))
    # a product is one kernel call, packed or not
    for y in (x, mono(0, 0, c=RationalFunction(IntPoly([1]), IntPoly([0, 1])))):
        with mock.patch.object(heis, "_product", wraps=heis._product) as product:
            x * y
        assert product.call_args_list == [mock.call(x, y)]


PACK_WIDTHS = (16, 32, 48, 64, 352)


def shift_unpack(v, K):
    """The balanced base-2^K digits of v, lowest first, by the shift loop."""
    half, cs = 1 << (K - 1), []
    while v:
        cs.append(((v + half) & ((1 << K) - 1)) - half)
        v = (v - cs[-1]) >> K
    return tuple(cs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unpack_inverts_pack(data):
    # lengths 0, 1, 2, 300 and between, digits at the edges of the balanced
    # range [-2^(K-1), 2^(K-1)); 16, 32 and 64 convert by signed casts, 48
    # and 352 by one bytes pass, at every length
    K = data.draw(st.sampled_from(PACK_WIDTHS))
    top = 2 ** (K - 1) - 1
    n = data.draw(st.one_of(st.sampled_from([0, 1, 2, 300]), st.integers(0, 300)))
    rng = data.draw(st.randoms(use_true_random=False))
    digits = [top, -top - 1, 0, 1, -1, rng.randrange(-top, top)]
    cs = [rng.choice(digits) for _ in range(n)]
    if cs and not cs[-1]:
        cs[-1] = top
    v = _pack(cs, K)
    assert v == sum(c << K * i for i, c in enumerate(cs))
    assert _unpack(v, K).coeffs == tuple(cs) == shift_unpack(v, K)


def test_pack_and_unpack_at_the_edge_digits():
    # every length of 0, 1, 2, 300 filled with one edge digit, at every
    # width: the top digit's sign bit is what the casts flip
    for K in PACK_WIDTHS:
        for n in (0, 1, 2, 300):
            for d in (-(2 ** (K - 1)), 2 ** (K - 1) - 1, 0, 1, -1):
                for cs in ([d] * n, [d] * n + [1], [1] * n + [d]):
                    v = _pack(cs, K)
                    assert v == sum(c << K * i for i, c in enumerate(cs))
                    assert _unpack(v, K).coeffs == IntPoly(cs).coeffs == shift_unpack(v, K)


def test_pack_of_digits_outside_the_balanced_range():
    # 2^(K-1) and -2^(K-1) - 1 are no balanced digits: a native width's
    # array raises OverflowError and _pack falls back to the shift sum, any
    # other width's bytes pass likewise; either way _pack evaluates at
    # q = 2^K, and _unpack reads the value back in balanced digits
    for K in PACK_WIDTHS:
        for c in (2 ** (K - 1), -(2 ** (K - 1)) - 1):
            with pytest.raises(OverflowError):
                if K in heis._CASTS:
                    array(heis._CASTS[K], [c])
                else:
                    (c + 2 ** (K - 1)).to_bytes(K // 8, "little")
        for n in (1, 2, 200, 300):
            cs = [2 ** (K - 1)] * n
            v = _pack(cs, K)
            assert v == sum(c << K * i for i, c in enumerate(cs))
            assert _unpack(v, K).coeffs == tuple([-(2 ** (K - 1))] + [1 - 2 ** (K - 1)] * (n - 1) + [1])
            cs = [0] * (n - 1) + [-(2 ** (K - 1)) - 1]
            v = _pack(cs, K)
            assert v == -(2 ** (K - 1) + 1) << K * (n - 1)
            assert _unpack(v, K).coeffs == tuple([0] * (n - 1) + [2 ** (K - 1) - 1, -1])


def test_non_unit_denominator_takes_the_schoolbook_path():
    # A^2 / (q - 1) + A, times three terms: enough pairs to try packing
    x = mono(0, 2, c=RationalFunction(IntPoly([1]), IntPoly([-1, 1]))) + mono(0, 1)
    y = mono(3, 0) + mono(1, 1) + mono(0, 0, c=rf_int(5))
    for a, b in ((x, y), (y, x)):
        got, packed = decoded(mul, a, b)
        assert not packed
        assert list(got.terms.items()) == list(schoolbook_product(a, b).terms.items())


# rational q of every kind: generic, with a fractional q, and the degenerate
# 0, 1, -1; the constant-q codec runs the same loop at each
RATIONAL_QS = [QValue(Fraction(v)) for v in ("2", "-1/3", "1/2", "0", "1", "-1")]
# constants with small denominators, and a few values repeated often enough
# that sums of products cancel to 0
constants = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 3), Fraction(-2)]),
).map(RationalFunction.from_fraction)
# a polynomial coefficient, which the constant-q codec leaves to the loop
POLY = RationalFunction(IntPoly([1, -2]), IntPoly([3]))


@st.composite
def const_elements(draw, q, polynomial=False):
    """An element at q with constant coefficients, possibly empty; with
    ``polynomial``, one coefficient becomes POLY."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), constants, max_size=5))
    if polynomial and terms:
        terms[draw(st.sampled_from(sorted(terms)))] = POLY
    return NormalElement(q, terms)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constant_q_product_matches_schoolbook(data):
    q = data.draw(st.sampled_from(RATIONAL_QS))
    polynomial = data.draw(st.booleans())
    x, y = data.draw(const_elements(q, polynomial)), data.draw(const_elements(q))
    got, packed = decoded(mul, x, y)
    assert list(got.terms.items()) == list(schoolbook_product(x, y).terms.items()), (x, y)
    assert packed == (len(x.terms) * len(y.terms) > 3 and not polynomial), (x, y)


def test_constant_q_product_named_cases():
    for q in RATIONAL_QS:
        zero = NormalElement.zero(q)
        x = mono(3, 5, q, RationalFunction.from_fraction(Fraction(-7, 6)))
        assert (x * zero).is_zero() and (zero * x).is_zero()
        # (A/3 + 1/2)(3B - 2) = q BA + 3B/2 - 2A/3: the I of AB cancels to 0
        a1 = mono(0, 1, q, RationalFunction.from_fraction(Fraction(1, 3))) + mono(0, 0, q, RationalFunction.from_fraction(Fraction(1, 2)))
        b1 = mono(1, 0, q, rf_int(3)) - mono(0, 0, q, rf_int(2))
        got, packed = decoded(mul, a1, b1)
        assert packed and (0, 0) not in got.terms
        assert list(got.terms.items()) == list(schoolbook_product(a1, b1).terms.items())
        # a polynomial coefficient sends the whole product to the loop
        y = a1 + mono(2, 2, q, POLY)
        got, packed = decoded(mul, y, b1)
        assert not packed
        assert list(got.terms.items()) == list(schoolbook_product(y, b1).terms.items())


# -- powers ----------------------------------------------------------------------


POWER_QS = [SYM] + [QValue.parse(v) for v in ("2", "-1/3", "0", "1", "-1", "5/7")]
# a coefficient that fits no codec: not in Z[q] at symbolic q, not a constant
# at rational q
OFF_CODEC = RationalFunction(IntPoly([1]), IntPoly([-1, 1]))


def step_power(x, n):
    """x^n as the chain of ``_product`` steps, each decoded on its own."""
    r = NormalElement.one(x.q)
    for _ in range(n):
        r = heis._product(r, x)
    return r


@st.composite
def power_bases(draw, q):
    """0, one key or up to three keys at q, coefficients next to powers of
    two (over small denominators at rational q), and sometimes one that
    sends x off the codec."""
    if q.is_symbolic:
        coeff = st.lists(int_coeffs, min_size=1, max_size=3).map(lambda cs: RationalFunction(IntPoly(cs)))
    else:
        coeff = st.builds(lambda a, d: RationalFunction.from_fraction(Fraction(a, d)), int_coeffs, st.integers(1, 6))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, max_size=3))
    if terms and draw(st.integers(0, 4)) == 0:
        terms[draw(st.sampled_from(sorted(terms)))] = OFF_CODEC
    return NormalElement(q, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_power_chain_matches_the_product_steps(data):
    q = data.draw(st.sampled_from(POWER_QS))
    x, n = data.draw(power_bases(q)), data.draw(st.integers(0, 12))
    with mock.patch.object(heis, "_decode", wraps=heis._decode) as decode:
        got = x**n
    # same terms in the same order; a chain on ints decodes once
    assert list(got.terms.items()) == list(step_power(x, n).terms.items()), (x, n)
    assert decode.call_count == (n > 1 and bool(heis._codec(x))), (x, n)


def test_power_chain_named_cases():
    for q in POWER_QS:
        zero, a = NormalElement.zero(q), mono(0, 1, q, rf_int(-(2**63)))
        assert zero**0 == NormalElement.one(q) and (zero**5).is_zero()
        assert a**7 == mono(0, 7, q, rf_int(-(2**441)))
        assert (a + mono(1, 0, q)) ** 9 == step_power(a + mono(1, 0, q), 9)
    # one key B^m A^n with coefficient 1: Sx = 1, so all of the growth of
    # r's l1 sum comes from the tables' sums F
    for m, n, e in ((1, 1, 12), (2, 2, 6), (1, 2, 10)):
        assert mono(m, n) ** e == step_power(mono(m, n), e), (m, n, e)
    # off the codec each step is one product
    x = mono(1, 1, c=OFF_CODEC) + mono(0, 1)
    with mock.patch.object(heis, "_product", wraps=heis._product) as product:
        assert x**4 == step_power(x, 4)
    assert product.call_count == 3 + 4


@pytest.mark.parametrize("q", [SYM, QValue.parse("-1/3")], ids=str)
def test_commutator_powers_match_comm_power(q):
    x = commutator(mono(0, 1, q), mono(1, 0, q))
    for n in range(41):
        assert x**n == comm_power(n, q), n


def chain_widths(x, n):
    """x^n, and the widths the chain unpacked at: each re-measure of r at
    its old width, then the decode at the last."""
    with mock.patch.object(heis, "_unpack", wraps=heis._unpack) as unpack:
        got = x**n
    return got, [c.args[1] for c in unpack.call_args_list]


def test_power_chain_widens_mid_chain():
    # (A + B)^n: the tables A^k B^j grow with the chain, so r outgrows the
    # first width after a few steps; r is unpacked at the old width (exact
    # by the bound) and the later steps run wider
    x = mono(0, 1) + mono(1, 0)
    got, widths = chain_widths(x, 24)
    assert got == step_power(x, 24)
    remeasured, decoded = widths[: -len(got.terms)], widths[-len(got.terms) :]
    assert len(set(remeasured)) > 2 and len(set(decoded)) == 1
    assert widths == sorted(widths) and remeasured[-1] < decoded[0]


def test_power_chain_width_follows_the_measured_l1_sum():
    # re-measuring keeps the width near the l1 sum of the result: widened by
    # the bound compounded over the steps (S <- S Sx F from the start), the
    # chain of [A,B]^40 would end at K = 224 instead of 64
    x = commutator(mono(0, 1), mono(1, 0))
    got, widths = chain_widths(x, 40)
    l1 = sum(sum(map(abs, c.num.coeffs)) for c in got.terms.values())
    M = max(heis._codec(_an_bk_expansion(n, 1, SYM))[1] for n in range(40))
    assert widths[-1] <= heis._width(M * l1 * heis._codec(x)[0]) + 16


def test_scale_by_a_negative_power_of_q_cancels_only_q():
    # Z[q] coefficients by q^-e take _over_q_q1; each result must be the
    # canonical product over Q(q), at every e, with and without factors q to
    # cancel, and a non-Z[q] coefficient sends the element to the product loop
    polys = [IntPoly([0, 0, 3]), IntPoly([-2, 0, 1]), IntPoly([0, 4, -6]), IntPoly([5]), IntPoly([0, 0, 0, -1])]
    for e in range(6):
        c = RationalFunction(IntPoly([1]), IntPoly.monomial(e)) if e else RF_ONE
        for extra in (None, RationalFunction(IntPoly([1]), IntPoly([-1, 1]))):
            x = NormalElement(SYM, {(i, 1): RationalFunction(p) for i, p in enumerate(polys)})
            if extra is not None:
                x = x + mono(9, 0, c=extra)
            got = x.scale(c)
            assert {k: (v.num.coeffs, v.den.coeffs) for k, v in got.terms.items()} == {
                k: (v.num.coeffs, v.den.coeffs) for k, v in x.terms.items() for v in [v * c]
            }


def reference_lincomb(pairs, q):
    """Reference for ``lincomb``: the scale-and-add loop over Q(q)
    coefficients that every linear combination used before packing."""
    acc = NormalElement.zero(q)
    for c, x in pairs:
        acc = acc + x.scale(c)
    return acc


# denominators of the coefficients c: 1, q^a, (q - 1)^b, q^a (q - 1)^b, and two
# that the packed path leaves to the loop, q + 1 and 2
LINCOMB_DENS = [IntPoly(d) for d in ((1,), (0, 0, 1), (1, -2, 1), (0, -1, 1), (1, 1), (2,))]


@st.composite
def lincomb_pairs(draw):
    """(c, x) pairs over Z[q] elements x, with coefficients at the l1 bound and
    pairs that cancel another pair."""
    if draw(st.booleans()):
        # k equal pairs d B^m: the sum k d B^m sits on the l1 bound k |d|
        c = RationalFunction(IntPoly([draw(st.sampled_from(EDGES))]), draw(st.sampled_from(LINCOMB_DENS)))
        return [(c, mono(draw(st.integers(0, 3)), 0))] * draw(st.integers(1, 3))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        c = RationalFunction(draw(z_poly).num, draw(st.sampled_from(LINCOMB_DENS)))
        x = draw(z_elements)
        pairs.append((c, x))
        if draw(st.booleans()):
            pairs.append(draw(st.sampled_from([(-c, x), (c, -x)])))
    return draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(lincomb_pairs())
def test_lincomb_matches_the_scale_and_add_loop(pairs):
    assert lincomb(pairs, SYM) == reference_lincomb(pairs, SYM)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lincomb_at_rational_q(data):
    q = data.draw(st.sampled_from(RATIONAL_QS))
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        c, x = data.draw(constants), data.draw(const_elements(q))
        pairs.append((c, x))
        if data.draw(st.booleans()):
            pairs.append(data.draw(st.sampled_from([(-c, x), (c, -x)])))  # cancels
    pairs = data.draw(st.permutations(pairs))
    polynomial = pairs and data.draw(st.sampled_from([None, "c", "x"]))
    if polynomial == "c":
        pairs[0] = (POLY, pairs[0][1])
    elif polynomial == "x":
        pairs[0] = (pairs[0][0], pairs[0][1] + mono(4, 4, q, POLY))
    assert lincomb(pairs, q) == reference_lincomb(pairs, q)
    if len(pairs) > 1:
        # one pair is c x by ``scale``; two or more are encoded, and so
        # decoded, unless a scalar or a coefficient of an x is a polynomial,
        # which takes the loop over Q(q)
        assert decoded(lincomb, pairs, q)[1] == (not polynomial)


def test_lincomb_named_cases():
    assert lincomb([], SYM) == NormalElement.zero(SYM)
    x = mono(2, 1) + mono(0, 0, c=RationalFunction(IntPoly([3, -1])))
    assert lincomb([(RF_Q, x), (-RF_Q, x)], SYM).is_zero()
    # the two pairs meet on B, where 2 d sits on the l1 bound 2 |d| max|f|_1
    for d in EDGES:
        for den in LINCOMB_DENS:
            c = RationalFunction(IntPoly([d]), den)
            pairs = [(c, mono(1, 0)), (c, mono(1, 0) - mono(0, 3))]
            assert lincomb(pairs, SYM) == reference_lincomb(pairs, SYM), (d, den)
    # a fractional coefficient of x takes the loop
    y = mono(0, 1, c=RationalFunction(IntPoly([1]), IntPoly([-1, 1])))
    pairs = [(RF_Q, y), (rf_int(2), x)]
    assert lincomb(pairs, SYM) == reference_lincomb(pairs, SYM)
    with pytest.raises(QMismatchError):
        lincomb([(RF_ONE, mono(0, 1, QValue.rational(2)))], SYM)
    # polynomial scalars at rational q take the loop, and still meet the x's q
    with pytest.raises(QMismatchError):
        lincomb([(POLY, mono(0, 1, QValue.rational(2)))], QValue.rational(3))


def test_lincomb_of_one_pair_at_rational_q_packs_nothing():
    # c x by ``scale`` is as fast as the kernel, so x keeps no packs from it;
    # two pairs take the kernel and read x packed
    for q in (QValue.rational(2), QValue.parse("-1/3")):
        x = mono(2, 1, q, rf_int(3)) + mono(0, 1, q, RationalFunction.from_fraction(Fraction(-1, 2)))
        c = RationalFunction.from_fraction(Fraction(2, 3))
        assert lincomb([(c, x)], q) == x.scale(c) and x._packs is None
        assert lincomb([(c, x), (c, x)], q) == x.scale(c + c) and x._packs


Q_MINUS_1 = IntPoly([-1, 1])


@settings(max_examples=100, deadline=None)
@given(st.lists(z_poly.filter(bool), min_size=1, max_size=4), st.data())
def test_decode_over_q_q1_matches_the_normalized_fraction(polys, data):
    # the numerators share 0..3 factors q and q - 1 with q^a (q - 1)^b, so
    # that the decoder cancels some of them, all or none
    shares = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=4, max_size=4))
    nums = [IntPoly.monomial(i) * Q_MINUS_1**j * p.num for p, (i, j) in zip(polys, shares)]
    K = heis._width(max(sum(map(abs, n.coeffs)) for n in nums))
    out = {i: _pack(n.coeffs, K) for i, n in enumerate(nums)}
    for a, b in itertools.product(range(4), repeat=2):
        den = IntPoly.monomial(a) * Q_MINUS_1**b
        assert heis._decode(out, K, (a, b)) == {i: RationalFunction(n, den) for i, n in enumerate(nums)}, (a, b)


def test_decode_of_constants_is_the_reduced_fraction():
    # negative values, and values sharing some, all or none of the factors of D
    for D in (1, 6, 12, 2**70, 3**45):
        vs = [v for v in (-3 * D, -D, -12, -6, -4, -1, 1, 5, 9, 2 * D, D * D + D, 2**80 - 1) if v]
        out = dict(enumerate(vs))
        assert heis._decode(out, None, D) == {i: RationalFunction.from_fraction(Fraction(v, D)) for i, v in out.items()}


def kernel_calls(x, y):
    """commutator(x, y), the ``_product`` calls it made, and whether it
    decoded packed ints (and did not sum over Q(q))."""
    with mock.patch.object(heis, "_product", wraps=heis._product) as product:
        got, packed = decoded(commutator, x, y)
    return got, product.call_args_list, packed


@st.composite
def commutator_operands(draw):
    """(x, y, fits): two elements at one q, and whether every coefficient
    fits the codec of q.  Either may be empty or have one term; y may be x
    itself, or x a scalar times I, so that xy - yx cancels to 0."""
    q = draw(st.one_of(st.just(SYM), st.sampled_from(RATIONAL_QS)))
    coeffs = z_poly if q == SYM else constants
    terms = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), coeffs, min_size=1, max_size=5)
    x, y = (NormalElement(q, {} if draw(st.integers(0, 7)) == 0 else draw(terms)) for _ in "xy")
    shape = draw(st.sampled_from(["any", "any", "any", "equal", "scalar"]))
    if shape == "equal":
        y = x
    elif shape == "scalar":
        x = mono(0, 0, q, x.coeff(*min(x.terms)) if x.terms else RF_ONE)
    fits = not (y.terms and draw(st.integers(0, 3)) == 0)
    if not fits:
        # no Z[q] value at symbolic q, no constant at rational q
        bad = draw(st.sampled_from(NON_Z_Q)) if q == SYM else POLY
        y = NormalElement(q, {**y.terms, draw(st.sampled_from(sorted(y.terms))): bad})
    return (x, y, fits) if draw(st.booleans()) else (y, x, fits)


@settings(max_examples=300, deadline=None)
@given(commutator_operands())
def test_commutator_matches_the_two_products(operands):
    x, y, fits = operands
    want = (schoolbook_product(x, y) - schoolbook_product(y, x)).terms
    got, calls, packed = kernel_calls(x, y)
    assert got.terms == want, (x, y)
    assert all(not c.is_zero() for c in got.terms.values())
    # one kernel call sums both products; four term pairs or more run packed
    # when every coefficient fits the codec of q
    assert calls == [mock.call(x, y, commute=True)]
    assert packed == (fits and len(x.terms) * len(y.terms) > 3), (x, y)


def test_commutator_named_cases():
    for q in [SYM] + RATIONAL_QS:
        a, b = mono(0, 1, q), mono(1, 0, q)
        assert commutator(a, b) == comm_power(1, q)
        for m in range(5):
            for n in range(5):
                for lhs, rhs in adad_sides(m, n, q):
                    assert lhs == rhs, (q, m, n)
                # the same identity from four term pairs up (two at
                # m = n = 0), packed: the I added to B^m A^n commutes
                lhs = commutator(bracketed_word("BA", q), mono(m, n, q) + mono(0, 0, q))
                assert lhs == adad_sides(m, n, q)[0][1], (q, m, n)
    # [cA + c, dB + d] = cd (q - 1) BA + cd I with cd next to each power of
    # two, where a K too narrow by one bit would read a digit wrong
    for c in (1, -1, 3):
        for d in EDGES:
            x, y = mono(0, 1, c=rf_int(c)) + mono(0, 0, c=rf_int(c)), mono(1, 0, c=rf_int(d)) + mono(0, 0, c=rf_int(d))
            for a, b in ((x, y), (y, x)):
                got, packed = decoded(commutator, a, b)
                assert packed and got.terms == (schoolbook_product(a, b) - schoolbook_product(b, a)).terms
    with pytest.raises(QMismatchError):
        commutator(mono(0, 1), mono(1, 0, QValue.rational(2)))


# coefficients c of lincomb whose denominators the packed path takes
LINCOMB_CS = [RationalFunction(IntPoly([3, -1]), d) for d in LINCOMB_DENS[:4]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kept_packs_match_fresh_elements_and_the_field_loop(data):
    # x meets a small partner (coefficients 1) and a large one (near 2^70),
    # twice each, on both sides: at symbolic q each product, commutator and
    # lincomb packs x at another width, and the second round reads the packs
    # kept from the first.  Fresh copies start with no packs, and the loops
    # over Q(q) pack nothing.
    q = data.draw(st.one_of(st.just(SYM), st.sampled_from(RATIONAL_QS)))
    coeffs, cs = (z_poly, st.sampled_from(LINCOMB_CS)) if q.is_symbolic else (constants, constants)
    keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
    x = NormalElement(q, data.draw(st.dictionaries(keys, coeffs.filter(bool), min_size=2, max_size=5)))
    small = mono(1, 0, q) + mono(0, 1, q)
    large = mono(2, 1, q, rf_int(2**70 - 1)) + mono(0, 3, q, rf_int(-(2**69)))
    c = data.draw(cs)
    for y in (small, large, small, large):
        fx, fy = NormalElement(q, dict(x.terms)), NormalElement(q, dict(y.terms))
        for a, b, fa, fb in ((x, y, fx, fy), (y, x, fy, fx)):
            want = schoolbook_product(fa, fb)
            assert list((a * b).terms.items()) == list((fa * fb).terms.items()) == list(want.terms.items())
            assert commutator(a, b) == commutator(fa, fb) == want - schoolbook_product(fb, fa)
            pairs, fresh = [(c, a), (RF_ONE, b)], [(c, fa), (RF_ONE, fb)]
            assert lincomb(pairs, q) == lincomb(fresh, q) == reference_lincomb(fresh, q)
    if q.is_symbolic:
        assert len(heis._codec(x)[2]) >= 2
    else:
        D = heis._codec(x)[0]
        nums, den = heis._scalars(list(x.terms.values()), q)
        assert (D, heis._packed_terms(x, D)) == (den, dict(zip(x.terms, nums)))


def test_kept_l1_sums_bound_term_pairs_that_meet():
    # (1 + B)(d B + d) = d + 2d B + d B^2: two term pairs meet on B, so K
    # needs the kept sums |x|_1 |y|_1 = 4|d|; the largest terms give only |d|
    x = mono(0, 0) + mono(1, 0)
    for d in EDGES:
        assert_same_product(x, mono(1, 0, c=rf_int(d)) + mono(0, 0, c=rf_int(d)))


# -- reordering formulas ---------------------------------------------------------


def test_reorder_all_kinds_symbolic():
    for kind in ("AB^n", "A^nB", "BA^n", "B^nA"):
        for n in range(1, 9):
            assert eq(*reorder_sides(kind, n, SYM))


def test_reorder_explicit_23_n2():
    # B^2 A = q^-2 A B^2 - q^-1 {2}_{1/q} B
    lhs, rhs = reorder_sides("B^nA", 2, SYM)
    assert lhs == mono(2, 1)
    qinv = RF_Q.inv()
    expected = nf_word("ABB", SYM).scale(qinv**2) - mono(1, 0, c=qinv * q_int(2, qinv))
    assert rhs == expected


def test_reorder_inverse_forms_need_nonzero_q():
    with pytest.raises(DegenerateQError):
        eq(*reorder_sides("BA^n", 2, Q0))
    with pytest.raises(DegenerateQError):
        eq(*reorder_sides("B^nA", 2, Q0))
    assert eq(*reorder_sides("AB^n", 4, Q0))
    assert eq(*reorder_sides("A^nB", 4, Q0))


def test_reorder_at_rational_q():
    q = QValue.rational(3, 2)
    for kind in ("AB^n", "A^nB", "BA^n", "B^nA"):
        assert eq(*reorder_sides(kind, 5, q))


# -- grading -------------------------------------------------------------------


def test_grade_examples():
    assert set(grade(nf_word("BA", SYM))) == {0}
    x = mono(2, 1) + mono(1, 0)
    parts = grade(x)
    assert set(parts) == {1}
    assert len(parts[1].terms) == 2


def test_grade_sums_back():
    rng = random.Random(13)
    for _ in range(30):
        x = rand_normal(rng)
        assert lincomb(((RF_ONE, p) for p in grade(x).values()), SYM) == x


def test_render_parts_are_the_rendered_grading_parts():
    # the degree lines of qheis eval: one text per grading part, which
    # joined by " + " are the whole element's text
    rng = random.Random(15)
    for q in (SYM, QValue.parse("-1/3")):
        for x in [NormalElement.zero(q)] + [rand_normal(rng, q) for _ in range(30)]:
            parts = x.render_parts()
            assert parts == {d: p.render() for d, p in grade(x).items()}
            assert list(parts) == sorted(parts)
            assert (" + ".join(parts.values()) or "0") == x.render()


def test_product_adds_degrees():
    rng = random.Random(14)
    for _ in range(50):
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        x = mono(max(a, 0) + 1, max(-a, 0) + 1)
        y = mono(max(b, 0) + 2, max(-b, 0) + 2)
        prod = x * y
        for m, n in prod.terms:
            assert m - n == a + b


# -- closed-form expansions -----------------------------------------------------


def test_comm_power_small():
    assert comm_power(0, SYM) == NormalElement.one(SYM)
    assert comm_power(1, SYM) == mono(1, 1, c=RF_Q - RF_ONE) + mono(0, 0)
    expected = (
        mono(2, 2, c=RF_Q * (RF_Q - RF_ONE) ** 2)
        + mono(1, 1, c=RF_Q**2 - RF_ONE)
        + mono(0, 0)
    )
    assert comm_power(2, SYM) == expected


def test_bnan_anbn_small_cases():
    # A B = (q [A,B] - I)/(q - 1)
    one = NormalElement.one(SYM)
    lhs = anbn_expand(1, SYM)
    rhs = (comm_power(1, SYM).scale(RF_Q) - one).scale((RF_Q - RF_ONE).inv())
    assert lhs == rhs == nf_word("AB", SYM)
    assert bnan_expand(0, SYM) == one
    assert anbn_expand(0, SYM) == one
    assert bnan_expand(2, SYM) == nf_word("BBAA", SYM)
    assert anbn_expand(2, SYM) == nf_word("AABB", SYM)


def test_bnan_anbn_match_rewriter():
    for n in range(7):
        assert bnan_expand(n, SYM) == nf_word("B" * n + "A" * n, SYM)
        assert anbn_expand(n, SYM) == nf_word("A" * n + "B" * n, SYM)


def test_gauss_polynomial_pathway():
    for n in range(7):
        assert anbn_via_gauss(n, SYM) == nf_word("A" * n + "B" * n, SYM)


@pytest.mark.parametrize("q", [SYM] + [QValue.parse(v) for v in ("-1/3", "2", "3/2", "-1")], ids=str)
def test_gauss_route_is_the_hand_summed_gauss_polynomial(q):
    # one lincomb of q_laurent scalars, each (n i)_(1/q) taken term by term,
    # against G_n(q[A,B]; 1/q) built by scaling and adding powers one at a time
    for n in range(13):
        assert anbn_via_gauss(n, q) == gauss_route_anbn(n, q), n


def test_expansions_reject_degenerate_q():
    for q in (Q0, QValue.rational(1)):
        with pytest.raises(DegenerateQError):
            bnan_expand(2, q)
        with pytest.raises(DegenerateQError):
            anbn_expand(2, q)


# -- shift identity ---------------------------------------------------------------


def test_shift_specializations():
    # A [A,B] = q [A,B] A and B [A,B] = q^-1 [A,B] B
    assert eq(*shift_poly_sides("A", 1, SYM))
    assert eq(*shift_poly_sides("B", 1, SYM))
    assert eq(*shift_poly_sides("", 3, SYM))


def test_shift_needs_nonzero_q():
    with pytest.raises(DegenerateQError):
        eq(*shift_poly_sides("A", 1, Q0))


def test_shift_on_polynomials_not_just_monomials():
    # the identity is linear in P, so holding on every word it holds on every P
    rng = random.Random(15)
    for _ in range(30):
        P = "".join(rng.choice("AB") for _ in range(rng.randrange(7)))
        assert eq(*shift_poly_sides(P, rng.randrange(4), SYM))


# -- adjoint identities ------------------------------------------------------------


def test_adad_identities():
    for m in range(6):
        for n in range(6):
            assert all(eq(*s) for s in adad_sides(m, n, SYM))
    assert all(eq(*s) for s in adad_sides(3, 3, QValue.rational(5, 3)))


def test_adad_vanishes_on_the_diagonal():
    br = bracketed_word("BA", SYM)
    for n in range(1, 5):
        assert commutator(br, mono(n, n)).is_zero()


def free_bracketed_word(w, q):
    """Reference for bracketed_word: expand the bracket tree of w into words of
    the free algebra (up to 2^(|w|-1) of them) and rewrite each word."""
    return normal_form(eval_monomial(bracketing(w)), q)


@pytest.mark.parametrize(
    "q", [SYM, QValue.rational(2), QValue.rational(-1, 3), Q0, QValue.rational(1)], ids=str
)
def test_bracketed_word_matches_free_algebra_reference(q):
    # cold cache, so every sub-factor of the fold is recomputed here
    bracketed_word.cache_clear()
    for w in enumerate_regular(10):
        assert bracketed_word(w, q) == free_bracketed_word(w, q), w


def test_bracketed_word_rejects_invalid_words():
    for w in ("AB", "", "ABA"):
        with pytest.raises(ValueError, match="bracketing needs a regular word, got %r" % w):
            bracketed_word(w, SYM)
    for w in ("C", "CA"):
        with pytest.raises(ValueError, match="word may contain only A and B: 'C'"):
            bracketed_word(w, SYM)


def test_fban_identities():
    for n in range(1, 9):
        assert all(eq(*s) for s in fban_sides(n, SYM))
    assert bracketed_word("BA", SYM) == mono(1, 1, c=RF_ONE - RF_Q) - NormalElement.one(SYM)


# -- the [A,B]-power basis -----------------------------------------------------------


def test_lie_power_coords_examples():
    one = NormalElement.one(SYM)
    assert to_lie_power_basis(one).coords == {(0, 0): RF_ONE}
    coords = to_lie_power_basis(nf_word("AB", SYM))
    qm1 = RF_Q - RF_ONE
    assert coords.coords == {(0, 0): -qm1.inv(), (0, 1): RF_Q * qm1.inv()}


def test_lie_power_roundtrip_random():
    rng = random.Random(16)
    for _ in range(60):
        x = rand_normal(rng, support=8)
        assert from_lie_power_basis(to_lie_power_basis(x)) == x


def test_lie_power_roundtrip_at_rational_q():
    rng = random.Random(17)
    q = QValue.rational(2)
    for _ in range(30):
        x = rand_normal(rng, q=q, support=6)
        assert from_lie_power_basis(to_lie_power_basis(x)) == x


def test_lie_power_rejects_degenerate_q():
    with pytest.raises(DegenerateQError):
        to_lie_power_basis(mono(1, 1, Q0))
    with pytest.raises(DegenerateQError):
        to_lie_power_basis(mono(1, 1, QValue.rational(1)))


def test_lie_power_allows_q_minus_one():
    q = QValue.rational(-1)
    x = mono(2, 1, q) + mono(1, 1, q) + NormalElement.one(q)
    assert from_lie_power_basis(to_lie_power_basis(x)) == x


def reference_to_lie_power_basis(x):
    """Reference for ``to_lie_power_basis``: the back-substitution over Q(q)
    that solved every grading part before the packed and constant-q codecs."""
    q = x.q
    coords = {}
    for d, part in grade(x).items():
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


@pytest.mark.parametrize("q", [SYM, QValue.rational(2), QValue.parse("-1/3"), QValue.rational(-1)], ids=str)
def test_lie_power_vector_shifts_the_keys_of_the_power(q):
    for k in range(9):
        c = comm_power(k, q)
        for d in range(-6, 7):
            want = mono(d, 0, q) * c if d > 0 else c * mono(0, -d, q)
            assert list(lie_power_vector(d, k, q).terms.items()) == list(want.terms.items()), (d, k)


BASIS_QS = [SYM] + [QValue.parse(v) for v in ("2", "-1/3", "1/2", "-1", "3")]
# coefficients with a q^-1 or a 1/(q+1): no codec takes them
NON_Z_Q = [RationalFunction(IntPoly([1]), IntPoly([0, 1])), RationalFunction(IntPoly([2, -1]), IntPoly([1, 1]))]


@st.composite
def basis_inputs(draw, q):
    """An element at q: Z[q] coefficients (up to the EDGES), constants, or
    [A,B]^k B^d times one; plus one-term parts c B^d and c A^d at several d
    (parts of their own unless a grading is shared); with one coefficient a
    q^-1 or a 1/(q+1) or not."""
    coeff = draw(st.sampled_from([z_poly, constants]))
    if draw(st.booleans()):
        k, d = draw(st.integers(0, 6)), draw(st.integers(0, 4))
        x = (comm_power(k, q) * mono(d, 0, q)).scale(draw(coeff))
    else:
        x = NormalElement(q, {})
    keys = st.tuples(st.integers(0, 10), st.integers(0, 10))
    x = x + NormalElement(q, draw(st.dictionaries(keys, coeff, max_size=5)))
    # B^d at d > 0, A^-d at d < 0, and the identity at d = 0
    for d, c in draw(st.dictionaries(st.integers(-14, 14), coeff, max_size=4)).items():
        x = x + mono(max(d, 0), max(-d, 0), q, c)
    if x.terms and draw(st.booleans()):
        x.terms[draw(st.sampled_from(sorted(x.terms)))] = draw(st.sampled_from(NON_Z_Q))
    return x


def codec_quotient(terms, x):
    """The quotient ``_basis_codec`` must choose for the part terms of x: at
    symbolic q the part's own Z[q] check decides, at rational q every part
    reads x's packs, so all of x must be constants."""
    if x.q.is_symbolic:
        return _exact_quotient if all(c.den.coeffs == (1,) for c in terms.values()) else _field_quotient
    fits = all(len(c.num.coeffs) < 2 and len(c.den.coeffs) == 1 for c in x.terms.values())
    return _rescaling_quotient if fits else _field_quotient


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_to_lie_power_basis_matches_the_field_loop(data):
    q = data.draw(st.sampled_from(BASIS_QS))
    x = data.draw(basis_inputs(q))
    # the same coordinates in the same order
    assert list(to_lie_power_basis(x).coords.items()) == list(reference_to_lie_power_basis(x).coords.items()), x
    for part in grade(x).values():
        assert _basis_codec(dict(part.terms), x)[2] is codec_quotient(part.terms, x)


def test_to_lie_power_basis_named_cases():
    for q in BASIS_QS:
        # a basis vector has one coordinate 1; the top of B^n A^n needs all
        # of P = (q-1)^n q^C(n,2)
        for d, k in ((0, 12), (3, 5), (-4, 7)):
            assert to_lie_power_basis(lie_power_vector(d, k, q)).coords == {(d, k): RF_ONE}
        for x in (nf_word("B" * 9 + "A" * 9, q), nf_word("A" * 6 + "B" * 8, q).scale(rf_int(-(2**70)))):
            coords = to_lie_power_basis(x)
            assert list(coords.coords.items()) == list(reference_to_lie_power_basis(x).coords.items())
            assert from_lie_power_basis(coords) == x
    # parts whose remainder is scaled up again after the first coordinate,
    # which must be scaled with it
    fr = lambda n, d=1: RationalFunction.from_fraction(Fraction(n, d))
    for q, terms in (
        (QValue.parse("-1/3"), {(8, 7): fr(-2), (7, 6): fr(7, 4)}),
        (QValue.rational(3), {(7, 2): fr(3, 2), (8, 3): fr(-8)}),
        (QValue.rational(3), {(4, 5): fr(-2, 3), (3, 4): fr(-9, 2)}),
    ):
        x = NormalElement(q, terms)
        assert list(to_lie_power_basis(x).coords.items()) == list(reference_to_lie_power_basis(x).coords.items())
    # a key off the pivots of its grading is never solved
    with pytest.raises(AssertionError, match="lost its pivot"):
        vector = lambda k: comm_power(k, SYM).terms
        _back_substitute({(1, 0): RF_ONE, (2, 2): RF_ONE}, 0, vector, _field_quotient)
    assert _rescaling_quotient(6, -4) == (-3, 2)
    assert _rescaling_quotient(-8, 4) == (-2, 1)
    assert _exact_quotient(-8, 4) == (-2, 1)
    with pytest.raises(AssertionError, match="remainder"):
        _exact_quotient(6, 4)


def test_one_term_parts_are_their_own_coordinate():
    # c B^d, c A^-d and c I are c times the (d, 0) vector: c itself is the
    # coordinate, with no codec and no solve.  Every other part is solved on
    # the codec that its own coefficients fit at symbolic q (grading 1 holds
    # a q^-1, grading 0 is in Z[q]), or that all of x fits at rational q;
    # a one-term part B^3 A needs a solve like any other
    for q in BASIS_QS:
        # Z[q] at symbolic q, constants at rational q
        z = (lambda *cs: RationalFunction(IntPoly(list(cs)))) if q.is_symbolic else (lambda *cs: rf_int(sum(cs)))
        for bad in (NON_Z_Q[0], rf_int(5)):
            x = NormalElement(q, {
                (0, 3): RF_ONE, (5, 0): rf_int(2), (0, 0): rf_int(-7), (2, 2): z(1, 3), (1, 1): rf_int(3),
                (2, 1): bad, (1, 0): RF_ONE, (3, 1): z(1, 1),
            })
            calls = []

            def spy(terms, y):
                calls.append(({m - n for m, n in terms}, _basis_codec(terms, y)))
                return calls[-1][1]

            with mock.patch.object(heis, "_basis_codec", spy):
                coords = to_lie_power_basis(x)
            assert list(coords.coords.items()) == list(reference_to_lie_power_basis(x).coords.items())
            assert coords.coords[-3, 0] is x.terms[0, 3] and coords.coords[5, 0] is x.terms[5, 0]
            assert [d for d, _ in calls] == [{0}, {1}, {2}]
            fits = bad is not NON_Z_Q[0]
            if q.is_symbolic:
                want = [_exact_quotient, _exact_quotient if fits else _field_quotient, _exact_quotient]
            else:
                want = [_rescaling_quotient if fits else _field_quotient] * 3
            assert [codec[2] for _, codec in calls] == want
            assert from_lie_power_basis(coords) == x


# coefficients (sum n_e q^e)/d of degree <= 3, with gaps in the powers, small
# denominators and numerators near 2^70 and beyond: at rational q a part or a
# sum with one of them takes the loop over Q(q)
SLICED_DENS = [1, 2, 3, 12, 35]
sliced_coeffs = st.builds(
    lambda nums, d: RationalFunction(IntPoly(nums), IntPoly([d])),
    st.lists(st.one_of(st.just(0), st.integers(-9, 9), st.sampled_from(EDGES)), min_size=1, max_size=4),
    st.sampled_from(SLICED_DENS),
)
# a coefficient whose denominator is no constant
OFF_SLICES = RationalFunction(IntPoly([1]), IntPoly([1, 1]))


@st.composite
def sliced_elements(draw, q):
    """An element at q with coefficients of ``sliced_coeffs``, possibly one
    of them 1/(q + 1)."""
    keys = st.tuples(st.integers(0, 8), st.integers(0, 8))
    terms = draw(st.dictionaries(keys, sliced_coeffs, max_size=6))
    if terms and draw(st.integers(0, 3)) == 0:
        terms[draw(st.sampled_from(sorted(terms)))] = OFF_SLICES
    return NormalElement(q, terms)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_polynomial_coefficients_match_the_field_loop(data):
    q = data.draw(st.sampled_from(BASIS_QS))
    x = data.draw(sliced_elements(q))
    # the same coordinates in the same order
    coords = to_lie_power_basis(x)
    assert list(coords.coords.items()) == list(reference_to_lie_power_basis(x).coords.items()), x
    assert from_lie_power_basis(coords) == x


def specialized(x, t):
    """x with the formal q of each coefficient evaluated at the integer t:
    a ring map, apart from the q of H(q), that leaves constants."""
    return NormalElement(x.q, {key: RationalFunction.from_fraction(specialize(c, t)) for key, c in x.terms.items()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_polynomial_scalars_at_rational_q_match_integer_specializations(data):
    q = data.draw(st.sampled_from(RATIONAL_QS))
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        x = data.draw(st.one_of(const_elements(q), const_elements(q), sliced_elements(q)))
        pairs.append((data.draw(st.one_of(sliced_coeffs, constants)), x))
        if data.draw(st.booleans()):
            pairs.append(data.draw(st.sampled_from([(-pairs[-1][0], x), (pairs[-1][0], -x)])))  # cancels
    pairs = data.draw(st.permutations(pairs))
    if pairs and data.draw(st.integers(0, 3)) == 0:
        pairs[0] = (OFF_SLICES, pairs[0][1])
    got = lincomb(pairs, q)
    # evaluating the formal q at t commutes with the sum of c x, and at two
    # integers (neither a root of q + 1) the specialized pairs are constants,
    # which the integer kernel sums from two pairs up
    for t in (2, -3):
        spec = [(specialize(c, t), specialized(x, t)) for c, x in pairs]
        want = lincomb([(RationalFunction.from_fraction(c), x) for c, x in spec], q)
        assert specialized(got, t) == want, (t, pairs)


def test_lincomb_of_zero_scalars_packs_any_coefficient():
    # every scalar 0 makes the l1 bound 0 and K = 16, so the x are packed at
    # K = 16 whatever their coefficients: 10^6 is no balanced digit there,
    # and _pack's shift sum must still evaluate it at q = 2^16
    x = mono(2, 1, c=rf_int(10**6)) + mono(0, 0, c=RationalFunction(IntPoly([-(10**6), 3])))
    got, packed = decoded(lincomb, [(RF_ZERO, x), (RF_ZERO, x)], SYM)
    assert packed and got.is_zero()
    assert heis._packed_terms(x, 16) == {(2, 1): 10**6, (0, 0): 3 * 2**16 - 10**6}


ROUNDTRIP_SCRIPT = """
import qheis.coeff as coeff
from qheis.coeff import QValue
from qheis.suites import SuiteConfig, run_suite

calls = []
normalize = coeff._normalize
coeff._normalize = lambda num, den: calls.append(1) or normalize(num, den)
rep = run_suite(SuiteConfig("grad-basis-roundtrip", QValue.parse("-1/3"), {"count": 60, "seed": 1}))
print(rep.summary["pass"], len(calls))
"""


def test_polynomial_roundtrip_at_rational_q_stays_on_ints():
    # the suite checks x = sum q^e x_e one slice x_e at a time, each of
    # constant coefficients on the integer kernels, so a cold run (a fresh
    # process, no cached element) reaches the generic _normalize nowhere
    src = os.path.dirname(os.path.dirname(os.path.abspath(heis.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", ROUNDTRIP_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["60", "0"]
    # the whole x takes the loop over Q(q): the same coordinates in the same
    # order as the reference; in grading 0 the q^2 part alone has the top
    # coordinate k = 4
    q = QValue.parse("-1/3")
    x = NormalElement(q, {
        (3, 1): RationalFunction(IntPoly([1, -2, 0, 5]), IntPoly([12])),
        (2, 0): RationalFunction(IntPoly([0, 2**70 + 1]), IntPoly([35])),
        (1, 1): RationalFunction(IntPoly([-3])),
        (4, 4): RationalFunction(IntPoly([0, 0, 7])),
        (1, 6): RationalFunction(IntPoly([0, 0, 0, 1]), IntPoly([2])),
    })
    coords = to_lie_power_basis(x)
    assert list(coords.coords.items()) == list(reference_to_lie_power_basis(x).coords.items())
    assert from_lie_power_basis(coords) == x


def test_roundtrip_checks_every_power_of_q():
    # a basis change that loses every coordinate of grading 1 (B [A,B]^k):
    # only the q^1 slice of x has grading 1, so the entry fails only if that
    # slice is checked too
    def lossy(y):
        coords = to_lie_power_basis(y)
        return LiePowerCoords(y.q, {dk: c for dk, c in coords.coords.items() if dk[0] != 1})

    for q in (QValue.parse("-1/3"), QValue.rational(2)):
        x = NormalElement(q, {(0, 0): rf_int(3), (1, 0): RationalFunction(IntPoly([0, 5]))})
        assert suites._roundtrip(("roundtrip", 0), x).status == PASS
        with mock.patch.object(suites, "to_lie_power_basis", lossy):
            assert suites._roundtrip(("roundtrip", 0), x).status == FAIL
            # the q^0 slice alone still passes: a check of it alone misses the fault
            assert suites._roundtrip(("roundtrip", 0), grade(x)[0]).status == PASS


def assert_packs_as_fresh(x):
    """The packs x keeps equal those of a fresh copy packed at the same widths."""
    fresh = NormalElement(x.q, dict(x.terms))
    for W in heis._codec(x)[2]:
        heis._packed_terms(fresh, W)
    assert heis._codec(x) == heis._codec(fresh), x


@pytest.mark.parametrize("q", [SYM, QValue.parse("-1/3"), Q0], ids=str)
def test_basis_changes_leave_the_packs_of_cached_inputs_intact(q):
    # to_lie_power_basis and zero_basis_coords change their remainder in
    # place, so they must solve on a copy of what the memo keeps: the packs of
    # the lru-cached <w> and [A,B]^k (inputs, and the vectors the solve reads)
    # stay as a fresh copy's, and products with them still match the loop
    # over Q(q)
    cached = [bracketed_word(w, q) for w in enumerate_regular(6)] + [comm_power(k, q) for k in range(7)]
    partner = mono(1, 0, q) + mono(0, 1, q) + mono(1, 2, q, rf_int(-3))
    for x in cached:
        fx = NormalElement(q, dict(x.terms))
        for _ in range(2):
            if q.is_zero:
                assert lie.zero_basis_coords(x) == lie.zero_basis_coords(fx)
                continue
            assert to_lie_power_basis(x) == to_lie_power_basis(fx)
            if x.terms:
                # one grading part: at rational q the basis codec reads x's
                # own packs, and its remainder must be a copy of them
                (d,) = grade(x)
                rem, vector, quotient, decode = _basis_codec(dict(x.terms), x)
                want = {k: c for (_, k), c in to_lie_power_basis(fx).coords.items()}
                assert decode(*_back_substitute(rem, d, vector, quotient)) == want
        for y in [x] + [comm_power(k, q) for k in range(7)]:
            assert_packs_as_fresh(y)
        want = schoolbook_product(fx, partner)
        assert list((x * partner).terms.items()) == list(want.terms.items())
        assert commutator(partner, x) == schoolbook_product(partner, fx) - want
        pairs = [(RF_Q if q.is_symbolic else rf_int(5), x), (RF_ONE, partner)]
        assert lincomb(pairs, q) == reference_lincomb([(c, NormalElement(q, dict(y.terms))) for c, y in pairs], q)


# -- rendering ---------------------------------------------------------------------


def test_render_sorted_by_degree_then_m():
    x = mono(0, 2) + mono(1, 0) + NormalElement.one(SYM) + mono(2, 1)
    assert x.render() == "A^2 + 1 + B + B^2 A"


def test_lie_power_coords_render():
    third = RationalFunction.from_fraction(Fraction(1, 3))
    cases = (
        ({}, "0"),
        # the identity [A,B]^0 is its coefficient alone
        ({(0, 0): RF_ONE}, "1"),
        ({(0, 1): RF_ONE}, "[A,B]"),
        ({(1, 0): rf_int(-1)}, "-1 * B"),
        ({(0, 2): RF_Q - RF_ONE}, "(-1 + q) * [A,B]^2"),
        ({(-3, 2): third}, "(1/3) * [A,B]^2 A^3"),
        ({(-1, 0): RF_Q}, "q * A"),
        ({(2, 3): rf_int(2), (0, 0): rf_int(5), (-1, 1): RF_ONE}, "[A,B] A + 5 + 2 * B^2 [A,B]^3"),
    )
    for coords, text in cases:
        assert LiePowerCoords(SYM, coords).render() == text
