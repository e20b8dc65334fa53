"""Normal forms, grading, closed-form expansions, the [A,B]-power basis."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.coeff import (
    IntPoly,
    QValue,
    RF_ONE,
    RF_Q,
    RationalFunction,
    gauss_polynomial,
    q_int,
)
from qheis.freealg import FREE_A, FREE_B, FreeElement, eval_monomial
from qheis.heis import (
    DegenerateQError,
    LEFTMOST,
    RIGHTMOST,
    NormalElement,
    QMismatchError,
    _an_bk_expansion,
    _packed_product,
    _word_normal_form,
    adad_check,
    anbn_expand,
    anbn_via_gauss,
    bnan_expand,
    bracketed_word,
    comm_power,
    commutator,
    embed,
    fban_check,
    from_lie_power_basis,
    grade,
    lincomb,
    nf_word,
    normal_form,
    reorder_check,
    reorder_sides,
    shift_poly_check,
    to_lie_power_basis,
)
from qheis.words import bracketing, enumerate_regular

SYM = QValue()
Q0 = QValue.rational(0)

rf_int = RationalFunction.from_int


def mono(m, n, q=SYM, c=RF_ONE):
    return NormalElement.monomial(m, n, q, c)


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


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        normal_form(FREE_A, SYM, strategy="middle")


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
    # the rewriter never divides, so q = 1 (the classical case) still works
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
                terms = [((m1 + a, b + n2), c12 * f) for (a, b), f in _an_bk_expansion(n1, m2, q)]
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


def assert_same_product(x, y):
    want = list(schoolbook_product(x, y).terms.items())
    # same terms in the same order, so every later loop over them agrees too;
    # small products skip packing, so the packed product is also called itself
    assert list((x * y).terms.items()) == want, (x, y)
    assert list(_packed_product(x.terms, y.terms, SYM).items()) == want, (x, y)


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
    # |x|_1 |y|_1 max|f|_1 = |cd|
    for c in (1, -1, 3, -3):
        for d in EDGES:
            assert_same_product(mono(0, 1, c=rf_int(c)), mono(1, 0, c=rf_int(d)))
            assert_same_product(mono(0, 0, c=rf_int(c)), mono(2, 0, c=rf_int(d)))
    # large expansion indices
    assert_same_product(mono(0, 14) - mono(2, 3), mono(13, 1, c=rf_int(-(2**40))) + mono(0, 0))


def test_non_unit_denominator_takes_the_schoolbook_path():
    # A^2 / (q - 1) + A, times three terms: enough pairs to try packing
    x = mono(0, 2, c=RationalFunction(IntPoly([1]), IntPoly([-1, 1]))) + mono(0, 1)
    y = mono(3, 0) + mono(1, 1) + mono(0, 0, c=rf_int(5))
    for a, b in ((x, y), (y, x)):
        assert _packed_product(a.terms, b.terms, SYM) is None
        assert list((a * b).terms.items()) == list(schoolbook_product(a, b).terms.items())


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lincomb_at_rational_q(data):
    q = QValue(data.draw(st.sampled_from([Fraction(2), Fraction(-1, 3), Fraction(0)])))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(RationalFunction.from_fraction)
    element = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=4)
    pairs = data.draw(st.lists(st.tuples(coeffs, element.map(lambda t: NormalElement(q, t))), max_size=4))
    assert lincomb(pairs, q) == reference_lincomb(pairs, q)


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


# -- reordering formulas ---------------------------------------------------------


def test_reorder_all_kinds_symbolic():
    for kind in ("AB^n", "A^nB", "BA^n", "B^nA"):
        for n in range(1, 9):
            assert reorder_check(kind, n, SYM)


def test_reorder_explicit_23_n2():
    # B^2 A = q^-2 A B^2 - q^-1 {2}_{1/q} B
    lhs, rhs = reorder_sides("B^nA", 2, SYM)
    assert lhs == mono(2, 1)
    qinv = RF_Q.inv()
    expected = nf_word("ABB", SYM).scale(qinv**2) - mono(1, 0, c=qinv * q_int(2, qinv))
    assert rhs == expected


def test_reorder_inverse_forms_need_nonzero_q():
    with pytest.raises(DegenerateQError):
        reorder_check("BA^n", 2, Q0)
    with pytest.raises(DegenerateQError):
        reorder_check("B^nA", 2, Q0)
    assert reorder_check("AB^n", 4, Q0)
    assert reorder_check("A^nB", 4, Q0)


def test_reorder_at_rational_q():
    q = QValue.rational(3, 2)
    for kind in ("AB^n", "A^nB", "BA^n", "B^nA"):
        assert reorder_check(kind, 5, q)


# -- grading -------------------------------------------------------------------


def test_grade_examples():
    assert set(grade(nf_word("BA", SYM)).parts) == {0}
    x = mono(2, 1) + mono(1, 0)
    parts = grade(x).parts
    assert set(parts) == {1}
    assert len(parts[1].terms) == 2


def test_grade_sums_back():
    rng = random.Random(13)
    for _ in range(30):
        x = rand_normal(rng)
        assert grade(x).total(SYM) == x


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
    x = nf_word("BA", SYM)
    assert gauss_polynomial(0, x, RF_Q) == NormalElement.one(SYM)
    assert gauss_polynomial(1, x, RF_Q) == x - NormalElement.one(SYM)
    for n in range(7):
        assert anbn_via_gauss(n, SYM) == nf_word("A" * n + "B" * n, SYM)


def test_expansions_reject_degenerate_q():
    for q in (Q0, QValue.rational(1)):
        with pytest.raises(DegenerateQError):
            bnan_expand(2, q)
        with pytest.raises(DegenerateQError):
            anbn_expand(2, q)


# -- shift identity ---------------------------------------------------------------


def test_shift_specializations():
    # A [A,B] = q [A,B] A and B [A,B] = q^-1 [A,B] B
    assert shift_poly_check(FREE_A, 1, SYM)
    assert shift_poly_check(FREE_B, 1, SYM)
    assert shift_poly_check(FreeElement.one(), 3, SYM)


def test_shift_needs_nonzero_q():
    with pytest.raises(DegenerateQError):
        shift_poly_check(FREE_A, 1, Q0)


def test_shift_on_polynomials_not_just_monomials():
    rng = random.Random(15)
    for _ in range(30):
        P = rand_free(rng, max_len=4)
        assert shift_poly_check(P, rng.randrange(4), SYM)


# -- adjoint identities ------------------------------------------------------------


def test_adad_identities():
    for m in range(6):
        for n in range(6):
            assert adad_check(m, n, SYM)
    assert adad_check(3, 3, QValue.rational(5, 3))


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
        assert fban_check(n, SYM)
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


# -- rendering ---------------------------------------------------------------------


def test_render_sorted_by_degree_then_m():
    x = mono(0, 2) + mono(1, 0) + NormalElement.one(SYM) + mono(2, 1)
    assert x.render() == "A^2 + 1 + B + B^2 A"
