"""Exact scalar arithmetic and q-analog combinatorics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.coeff import (
    CoefficientError,
    IntPoly,
    QValue,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    SYMBOLIC_Q,
    RationalFunction,
    _gauss_binomial_poly,
    _normalize,
    _over_q_q1,
    _q_q1_poly,
    _const,
    _split_q_q1,
    add_terms,
    binom2,
    q_binomial,
    q_factorial,
    q_int,
    q_laurent,
)

from qheis.reports import FAIL, PASS
from qheis.suites import SuiteConfig, run_suite

from helpers import field_q_laurent, horner_q_binomial, render_poly, render_rational, specialize


def poly(*coeffs):
    return IntPoly(coeffs)


def rf(num, den=(1,)):
    return RationalFunction(IntPoly(num), IntPoly(den))


def rand_poly(rng, max_deg=3, zero_ok=True):
    while True:
        p = IntPoly(rng.randrange(-6, 7) for _ in range(rng.randrange(max_deg + 2)))
        if zero_ok or not p.is_zero():
            return p


def rand_rf(rng, zero_ok=True):
    num = rand_poly(rng, zero_ok=zero_ok)
    den = rand_poly(rng, zero_ok=False)
    return RationalFunction(num, den)


# -- IntPoly ---------------------------------------------------------------


def test_intpoly_trailing_zeros_trimmed():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()


def test_intpoly_degree_of_zero_is_marker():
    assert IntPoly(()).degree is None
    assert IntPoly((5,)).degree == 0
    assert IntPoly((0, 0, 3)).degree == 2


def test_intpoly_gcd_and_exact_division():
    a = poly(-1, 0, 1)  # q^2 - 1
    b = poly(-1, 1)  # q - 1
    g = IntPoly.gcd(a, b)
    assert g == b
    assert a.div_exact(b) == poly(1, 1)
    with pytest.raises(CoefficientError):
        poly(1, 1).div_exact(poly(0, 1))


def test_intpoly_gcd_strips_common_q_powers():
    a = poly(0, 0, 2, 2)  # 2q^2(1+q)
    b = poly(0, 0, 0, 4)  # 4q^3
    assert IntPoly.gcd(a, b) == poly(0, 0, 1)


# -- RationalFunction normalization -----------------------------------------


def test_cancellation_to_q():
    # (q - 1) + 1 = q
    assert rf((-1, 1)) + RF_ONE == RF_Q


def test_gcd_reduction():
    # (q^2 - 1)/(q - 1) = q + 1
    assert rf((-1, 0, 1), (-1, 1)) == rf((1, 1))


def test_inverse_of_zero_is_an_error():
    with pytest.raises(CoefficientError):
        RF_ZERO.inv()


def test_zero_is_unique():
    assert rf((0,), (3, 5)) == RF_ZERO
    assert rf((0,), (3, 5)).den == IntPoly((1,))


def test_denominator_is_primitive_with_positive_leading_coefficient():
    x = rf((2, 2), (-4, 0, -2))  # (2+2q)/(-4-2q^2)
    assert x.den.leading > 0
    assert x.den.content() in (1,)


def test_canonical_equality_matches_cross_multiplication():
    rng = random.Random(1)
    for _ in range(300):
        a = rand_rf(rng)
        b = rand_rf(rng)
        cross = a.num * b.den == b.num * a.den
        assert (a == b) == cross


def test_field_axioms_on_random_triples():
    rng = random.Random(2)
    for _ in range(1000):
        a, b, c = (rand_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RF_ZERO
        if not a.is_zero():
            assert a * a.inv() == RF_ONE


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=4), st.lists(st.integers(-9, 9), max_size=4))
def test_addition_commutes(xs, ys):
    a = RationalFunction(IntPoly(xs))
    b = RationalFunction(IntPoly(ys))
    assert a + b == b + a


def test_powers_including_negative():
    x = rf((-1, 1))
    assert x**0 == RF_ONE
    assert x**3 == rf((-1, 3, -3, 1))
    assert x**-2 * x**2 == RF_ONE
    assert SYMBOLIC_Q.power(-3) * SYMBOLIC_Q.power(3) == RF_ONE


# -- the gcd-free normalize path for c*q^a*(q-1)^b denominators ---------------

Q_MINUS_1 = poly(-1, 1)


def q_q1(c, a, b):
    """c*q^a*(q-1)^b."""
    return IntPoly.monomial(a, c) * Q_MINUS_1**b


def prs_normalize(num, den):
    """Reference: the general path, reducing by the PRS gcd of IntPoly.gcd."""
    if num.is_zero():
        return IntPoly(), IntPoly([1])
    cn, cd = num.content(), den.content()
    pn, pd = num.primitive(), den.primitive()
    g = IntPoly.gcd(pn, pd)
    pn, pd = pn.div_exact(g), pd.div_exact(g)
    if pd.leading < 0:
        pn, pd = -pn, -pd
    s = Fraction(cn, cd)
    return pn * s.numerator, pd * s.denominator


def split(p):
    n = len(p.coeffs)
    return _split_q_q1(p.coeffs, n, n)


def test_split_q_q1_named_cases():
    assert split(poly(5)) == ((5,), 0, 0)
    assert split(poly(-1)) == ((-1,), 0, 0)
    assert split(poly(0, 0, 3)) == ((3,), 2, 0)
    assert split(poly(-1, 1)) == ([1], 0, 1)
    assert split(poly(1, -1)) == ([-1], 0, 1)
    assert split(q_q1(-2, 3, 4)) == ([-2], 3, 4)
    assert split(poly(1, 1)) == ((1, 1), 0, 0)  # q + 1
    assert split(poly(1, 1, 1)) == ((1, 1, 1), 0, 0)  # q^2 + q + 1
    assert split(q_q1(1, 1, 2) * poly(1, 1)) == ([1, 1], 1, 2)
    # the caps bound what is taken from a numerator
    assert _split_q_q1(q_q1(3, 2, 3).coeffs, 1, 2) == ([0, -3, 3], 1, 2)


def test_normalize_fast_path_named_cases():
    # (q^3 - q^2)/(q^2 - 2q + 1) = q^2/(q - 1)
    assert _normalize(q_q1(1, 2, 1), q_q1(1, 0, 2)) == (poly(0, 0, 1), Q_MINUS_1)
    # negative leading coefficient moves to the numerator
    assert _normalize(poly(1, 1), poly(0, -1)) == (poly(-1, -1), poly(0, 1))
    # numerator with higher (q-1) multiplicity than the denominator
    assert _normalize(q_q1(6, 0, 3), q_q1(4, 1, 1)) == (q_q1(3, 0, 2), poly(0, 2))
    # constants
    assert _normalize(poly(6), poly(-4)) == (poly(-3), poly(2))


poly_coeffs = st.lists(st.integers(-6, 6), max_size=4)
q_q1_factor = st.builds(
    q_q1, st.sampled_from([1, -1, 2, -3, 6]), st.integers(0, 3), st.integers(0, 4)
)
denominator_rest = st.one_of(
    st.just(poly(1)),
    st.sampled_from([poly(1, 1), poly(1, 1, 1), poly(2, 0, 1), poly(-1, 2)]),
    poly_coeffs.map(IntPoly).filter(lambda p: not p.is_zero()),
)


@settings(max_examples=400, deadline=None)
@given(q_q1_factor, poly_coeffs.map(IntPoly), q_q1_factor, denominator_rest)
def test_normalize_matches_prs_path(num_factor, num_rest, den_factor, den_rest):
    num = num_factor * num_rest
    den = den_factor * den_rest
    assert _normalize(num, den) == prs_normalize(num, den)


@st.composite
def over_q_q1_cases(draw):
    """(num, a, b) with num = c q^v (q - 1)^w r: v <= a + 1, w <= b + 1, c of
    any sign and size, and r divisible by neither q nor q - 1."""
    a, b = draw(st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 5), st.integers(0, 5))))
    v, w = draw(st.integers(0, a + 1)), draw(st.integers(0, b + 1))
    c = draw(st.one_of(st.sampled_from([1, -1, 2, -6, 3**30, -(2**64)]), st.integers(-50, 50).filter(bool)))
    r = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda cs: cs[0] and sum(cs)))
    return q_q1(c, v, w) * IntPoly(r), a, b


@settings(max_examples=500, deadline=None)
@given(over_q_q1_cases())
def test_over_q_q1_matches_normalize(case):
    num, a, b = case
    assert parts(_over_q_q1(num, a, b)) == parts(RationalFunction(num, _q_q1_poly(1, a, b)))


def test_over_q_q1_named_cases():
    assert parts(_over_q_q1(poly(), 2, 3)) == ((), (1,))
    # 6 q^2 (q - 1) / (q^3 (q - 1)^2) = 6 / (q (q - 1))
    assert parts(_over_q_q1(q_q1(6, 2, 1), 3, 2)) == ((6,), (0, -1, 1))
    # more factors in the numerator than in the denominator: all of it cancels
    assert parts(_over_q_q1(q_q1(-4, 3, 2) * poly(1, 1), 1, 1)) == ((q_q1(-4, 2, 1) * poly(1, 1)).coeffs, (1,))
    assert parts(_over_q_q1(poly(3, 0, 2), 0, 0)) == ((3, 0, 2), (1,))


def test_over_q_q1_matches_normalize_on_edge_numerators():
    # zero, integer content > 1, more factors q and q - 1 than the
    # denominator has, and a = b = 0 (num/1, returned without splitting)
    nums = [poly(), poly(6), poly(-4, 0, 8), q_q1(6, 3, 0), q_q1(-9, 0, 4), q_q1(12, 4, 5) * poly(1, 1)]
    for num in nums:
        for a, b in [(0, 0), (0, 1), (2, 0), (1, 3), (4, 5), (6, 6)]:
            assert parts(_over_q_q1(num, a, b)) == parts(RationalFunction(num, _q_q1_poly(1, a, b)))
    p = poly(3, 0, 2)
    assert _over_q_q1(p, 0, 0).num is p


def test_q_q1_poly_memo_equals_a_direct_build():
    for a in range(8):
        for b in range(8):
            direct = q_q1(1, a, b)
            assert _q_q1_poly(1, a, b) == direct and _q_q1_poly(1, a, b) is _q_q1_poly(1, a, b)
            for c in (2, -1, -6, 3**20):
                assert _q_q1_poly(c, a, b) == q_q1(c, a, b)


@st.composite
def polynomial_plus_fraction(draw):
    """(p, x): p in Z[q] and x = n/d in canonical form with d != 1, some with
    a constant d (content only) and some with d = c q^a (q - 1)^b."""
    p = IntPoly(draw(poly_coeffs))
    n = IntPoly(draw(st.lists(st.integers(-9, 9), max_size=5)))
    d = draw(st.one_of(
        st.builds(q_q1, st.sampled_from([1, 2, -3, 6]), st.integers(0, 3), st.integers(0, 3)),
        st.sampled_from([poly(2), poly(-4), poly(1, 1), poly(2, 0, 1), poly(-1, 2)]),
    ))
    return p, RationalFunction(n, d)


@settings(max_examples=400, deadline=None)
@given(polynomial_plus_fraction())
def test_polynomial_plus_fraction_matches_normalize(case):
    p, x = case
    want = parts(RationalFunction(p * x.den + x.num, x.den))
    assert parts(RationalFunction(p) + x) == want
    assert parts(x + RationalFunction(p)) == want
    assert parts(RationalFunction(p) - x) == parts(RationalFunction(p * x.den - x.num, x.den))


# -- closed-form scalars sum c q^e / (q - 1)^b ------------------------------------

LAURENT_QS = [SYMBOLIC_Q, QValue.rational(2), QValue.rational(-1, 3), QValue.rational(1, 2), QValue.rational(-1)]


@st.composite
def laurent_terms(draw):
    """(c, e) pairs with e in -12..12, some repeated with c negated so that
    they cancel, and some exponents equal so that their c add."""
    terms = draw(st.lists(
        st.tuples(st.one_of(st.integers(-9, 9), st.sampled_from([3**25, -(2**70)])), st.integers(-12, 12)),
        max_size=6,
    ))
    cancel = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    return terms + [(-c, e) for c, e in cancel]


@settings(max_examples=300, deadline=None)
@given(laurent_terms(), st.integers(0, 6), st.sampled_from(LAURENT_QS))
def test_q_laurent_matches_the_field_expression(terms, b, q):
    assert parts(q_laurent(q, terms, b)) == parts(field_q_laurent(q, terms, b))
    # b < 0 multiplies by (q - 1)^-b
    assert parts(q_laurent(q, terms, -b)) == parts(field_q_laurent(q, terms, -b))


def test_q_laurent_named_cases():
    assert parts(q_laurent(SYMBOLIC_Q, [])) == ((), (1,))
    assert parts(q_laurent(SYMBOLIC_Q, [(1, 3), (-1, 3)], 4)) == ((), (1,))
    # (q^2 - 1) / (q - 1) = q + 1
    assert parts(q_laurent(SYMBOLIC_Q, [(1, 2), (-1, 0)], 1)) == ((1, 1), (1,))
    # (q - q^-2) / (q - 1)^2 = (q^2 + q + 1) / (q^2 (q - 1))
    assert parts(q_laurent(SYMBOLIC_Q, [(1, 1), (-1, -2)], 2)) == ((1, 1, 1), (0, 0, -1, 1))
    # 2 q^-1 (q - 1)^2 at q = -1/3: 2 (-3) (16/9) = -32/3
    assert q_laurent(QValue.rational(-1, 3), [(2, -1)], -2) == RationalFunction.from_fraction(Fraction(-32, 3))
    assert parts(q_laurent(QValue.rational(2), [(4, 1), (-8, 0)], 3)) == ((), (1,))


@pytest.mark.parametrize("q, terms, b", [
    (QValue.rational(0), [(1, -1)], 0),
    (QValue.rational(0), [(1, 2), (-1, -3)], 2),
    (QValue.rational(0), [(1, -1), (-1, -1)], 0),  # cancels, but q^-1 is still taken
    (QValue.rational(1), [(1, 0)], 1),
    (QValue.rational(1), [(1, 2), (-1, 2)], 3),
])
def test_q_laurent_raises_the_errors_of_the_field_expression(q, terms, b):
    with pytest.raises(CoefficientError) as want:
        field_q_laurent(q, terms, b)
    with pytest.raises(CoefficientError) as got:
        q_laurent(q, terms, b)
    assert str(got.value) == str(want.value)


def test_q_laurent_at_degenerate_q_without_a_pole():
    cases = [(0, [(3, 0), (2, 4)], 0), (0, [(1, 0), (1, 1)], 3), (1, [(3, 0), (2, 4)], 0), (1, [(1, 2), (-5, 1)], -2)]
    for q0, terms, b in cases:
        q = QValue.rational(q0)
        assert parts(q_laurent(q, terms, b)) == parts(field_q_laurent(q, terms, b))


def test_normalize_agrees_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("q")
    rng = random.Random(6)

    def to_sympy(p):
        return sum(c * x**i for i, c in enumerate(p.coeffs))

    for _ in range(100):
        num = q_q1(rng.choice([1, -2, 3]), rng.randrange(3), rng.randrange(4)) * rand_poly(rng)
        den = q_q1(rng.choice([1, -1, 4]), rng.randrange(3), rng.randrange(4))
        if rng.random() < 0.3:
            den = den * rand_poly(rng, zero_ok=False)
        n, d = _normalize(num, den)
        assert sympy.cancel(to_sympy(n) / to_sympy(d) - to_sympy(num) / to_sympy(den)) == 0
        # reduced: no common factor of positive degree is left
        assert sympy.degree(sympy.gcd(to_sympy(n), to_sympy(d)), x) <= 0


# -- the integer path for constant operands of + and * ------------------------


def const(n, d=1):
    return RationalFunction.from_fraction(Fraction(n, d))


def parts(x):
    return x.num.coeffs, x.den.coeffs


powers_of_3 = st.integers(0, 40).map(lambda k: 3**k)
const_num = st.one_of(
    st.just(0),
    st.integers(-30, 30),
    st.builds(lambda s, p: s * p, st.sampled_from([1, -1, 2, -2]), powers_of_3),
)
const_den = st.one_of(st.just(1), st.integers(1, 30), powers_of_3, powers_of_3.map(lambda p: 2 * p))


@st.composite
def const_pairs(draw):
    n1, n2, d1 = draw(const_num), draw(const_num), draw(const_den)
    d2 = d1 if draw(st.booleans()) else draw(const_den)
    return const(n1, d1), const(n2, d2)


@settings(max_examples=500, deadline=None)
@given(const_pairs())
def test_constant_arithmetic_matches_normalize_path(pair):
    a, b = pair
    product = RationalFunction(a.num * b.num, a.den * b.den)
    total = RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)
    assert parts(a * b) == parts(product)
    assert parts(a + b) == parts(total)
    fa, fb = specialize(a, 0), specialize(b, 0)
    assert specialize(a * b, 0) == fa * fb
    assert specialize(a + b, 0) == fa + fb


def test_constant_arithmetic_named_cases(monkeypatch):
    calls = []
    monkeypatch.setattr("qheis.coeff._normalize", lambda n, d: calls.append(1) or _normalize(n, d))

    # sums that cancel to zero are the canonical 0/1
    assert parts(const(1, 3) + const(-1, 3)) == ((), (1,))
    assert parts(const(1, 6) + const(1, 3) + const(-1, 2)) == ((), (1,))
    assert parts(const(0) + const(0)) == ((), (1,))
    # sums and products that reduce to an integer have denominator 1
    assert parts(const(1, 3) + const(2, 3)) == ((1,), (1,))
    assert parts(const(3, 4) * const(8, 3)) == ((2,), (1,))
    assert parts(const(-9, 2) * const(2, 3)) == ((-3,), (1,))
    assert parts(const(5, 6) * const(0)) == ((), (1,))
    # cross cancellation on both sides, sign on the numerator
    assert parts(const(-4, 9) * const(3, 8)) == ((-1,), (6,))
    assert parts(const(1, 6) + const(1, 10)) == ((4,), (15,))
    assert calls == []

    # a product with a polynomial operand takes the general path; a sum with
    # a polynomial p is (p d + n)/d, which is reduced when n/d is
    one_plus_q_over_q, q, inv_q = rf((1, 1), (0, 1)), rf((0, 1)), rf((1,), (0, 1))
    expected = [rf((2, 2), (0, 1)), rf((3,), (0, 1)), rf((1, 3), (3,))]
    calls.clear()
    got = [const(2) * one_plus_q_over_q, const(3) * inv_q, const(1, 3) + q]
    assert len(calls) == 2
    assert [parts(x) for x in got] == [parts(x) for x in expected]


@settings(max_examples=500, deadline=None)
@given(const_num.filter(bool), const_den)
def test_constant_inverse_matches_normalize_path(n, d):
    a = const(n, d)
    assert parts(a.inv()) == parts(RationalFunction(a.den, a.num))
    assert specialize(a.inv(), 0) == 1 / Fraction(n, d)
    assert a.inv().inv() == a


def test_constant_inverse_named_cases(monkeypatch):
    calls = []
    monkeypatch.setattr("qheis.coeff._normalize", lambda n, d: calls.append(1) or _normalize(n, d))
    assert parts(const(1).inv()) == ((1,), (1,))
    assert parts(const(-1).inv()) == ((-1,), (1,))
    assert parts(const(-2, 3).inv()) == ((-3,), (2,))
    assert parts(const(3**40, 2).inv()) == ((2,), (3**40,))
    assert parts(const(-(3**40)).inv()) == ((-1,), (3**40,))
    assert calls == []
    with pytest.raises(CoefficientError, match="inverse of zero in Q\\(q\\)"):
        const(0).inv()
    # a polynomial takes the general path
    two_q_over_3 = rf((0, 2), (3,))
    calls.clear()
    assert parts(two_q_over_3.inv()) == ((3,), (0, 2))
    assert len(calls) == 1


# -- add_terms -------------------------------------------------------------


def eager_add_terms(out, pairs):
    """The loop each sparse map ran before ``add_terms``: add, then drop a
    key whose sum is 0 at once, so a key that cancels and comes back
    re-enters at the end."""
    for key, c in pairs:
        acc = out.get(key)
        s = c if acc is None else acc + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def summed_then_filtered(start, pairs):
    totals = dict(start)
    for key, c in pairs:
        totals[key] = totals.get(key, 0) + c
    return {key: c for key, c in totals.items() if c != 0}


# a few values and their negatives, so that sums often cancel
rf_pool = [RF_ONE, RF_Q, rf((-1, 1)), const(1, 3), rf((1, 1), (-1, 1)), rf((0, 2), (3,))]
rf_value = st.one_of(
    st.sampled_from(rf_pool + [-x for x in rf_pool] + [RF_ZERO]),
    st.builds(rf, st.lists(st.integers(-2, 2), max_size=3), st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any)),
)
term_lists = st.one_of(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=12),
    st.lists(st.tuples(st.integers(0, 3), rf_value), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(term_lists, term_lists)
def test_add_terms_matches_summing_then_filtering(start_pairs, pairs):
    start = summed_then_filtered({}, start_pairs)
    got = add_terms(dict(start), pairs)
    assert got == summed_then_filtered(start, pairs)
    assert list(got.items()) == list(eager_add_terms(dict(start), pairs).items())
    assert all(c != 0 for c in got.values())
    assert all(got.values())


def test_add_terms_named_cases():
    out = {"a": RF_ONE}
    assert add_terms(out, []) is out
    # a key that cancels leaves and comes back at the end
    assert list(add_terms({"a": 1, "b": 2}, [("a", -1), ("a", 3)]).items()) == [("b", 2), ("a", 3)]
    # a zero term never creates a key
    assert add_terms({}, [("a", 0), ("b", RF_ZERO)]) == {}
    assert add_terms({}, [("a", const(1, 3)), ("a", const(-1, 3))]) == {}


def test_rational_function_is_false_exactly_at_zero():
    assert not RF_ZERO
    assert not rf((0,), (5,))
    assert RF_Q - RF_ONE
    assert _const(-1, 3)
    assert RF_ONE


def test_content_is_the_nonnegative_gcd():
    assert poly().content() == 0
    assert poly(-6).content() == 6
    assert poly(0, -4, 6).content() == 2
    assert poly(3**40, -(3**41), 2 * 3**40).content() == 3**40


# -- specialize --------------------------------------------------------------


def test_specialize_simple():
    assert specialize(rf((1, -1)) ** 2, 0) == 1
    assert specialize(q_int(3, RF_Q), 2) == 7


def test_specialize_pole_names_the_denominator():
    x = RF_ONE / rf((-1, 1))
    with pytest.raises(CoefficientError, match="vanishes"):
        specialize(x, 1)


def test_specialize_is_a_ring_homomorphism_off_poles():
    rng = random.Random(3)
    tried = 0
    while tried < 200:
        a, b, c = (rand_rf(rng) for _ in range(3))
        q0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        try:
            lhs = specialize(a * b + c, q0)
            rhs = specialize(a, q0) * specialize(b, q0) + specialize(c, q0)
        except CoefficientError:
            continue
        assert lhs == rhs
        tried += 1


# -- q-combinatorics ----------------------------------------------------------


def test_q_int_values():
    assert q_int(3, RF_Q) == rf((1, 1, 1))
    assert q_int(0, RF_Q) == RF_ZERO
    assert q_int(-2, RF_Q) == RF_ZERO
    rng = random.Random(4)
    for _ in range(20):
        z = rand_rf(rng)
        assert q_int(1, z) == RF_ONE


def test_q_factorial_values():
    assert q_factorial(3, RF_Q) == q_int(1, RF_Q) * q_int(2, RF_Q) * q_int(3, RF_Q)
    assert q_factorial(0, RF_Q) == RF_ONE
    assert q_factorial(-1, RF_Q) == RF_ONE
    assert q_factorial(2, RF_Q) == rf((1, 1))


def _box_partition_poly(i, j):
    """Generating polynomial of partitions inside an i x j box, by brute
    enumeration; independent oracle for the Gaussian binomial (i+j, i)_q."""
    counts = [0] * (i * j + 1)

    def rec(parts_left, max_size, total):
        counts[total] += 1
        if parts_left == 0:
            return
        for s in range(1, max_size + 1):
            rec(parts_left - 1, s, total + s)

    rec(i, j, 0)
    return IntPoly(counts)


def test_q_binomial_against_box_partition_oracle():
    for n in range(0, 9):
        for i in range(0, n + 1):
            expected = RationalFunction(_box_partition_poly(i, n - i))
            assert q_binomial(n, i, RF_Q) == expected


def quotient_gauss_binomial(n, i):
    """The Gaussian binomial as the q-integer quotient it was first built
    from: prod_l {n - i + l}_q / {l}_q over l = 1 .. i."""
    total = RF_ONE
    for l in range(1, i + 1):
        total = total * q_int(n - i + l, RF_Q) / q_int(l, RF_Q)
    return total


def test_gauss_binomial_pascal_rule_matches_the_quotient_formula():
    for n in range(13):
        for i in range(n + 1):
            assert RationalFunction(_gauss_binomial_poly(n, i)) == quotient_gauss_binomial(n, i)


def test_q_binomial_at_q_is_the_gaussian_polynomial():
    for n in range(31):
        for i in range(n + 1):
            got = q_binomial(n, i, RF_Q)
            assert got.num is _gauss_binomial_poly(n, i) and got.den.coeffs == (1,)
            assert parts(got) == parts(horner_q_binomial(n, i, RF_Q))


def test_q_binomial_at_other_z_matches_horner():
    # q/2 has the numerator of q: only z = q itself is the Gaussian polynomial
    zs = [RF_Q.inv(), RF_Q * RF_Q, rf((0, 1), (2,)), rf((1, 1), (-1, 1)), const(-1, 3), RF_ZERO, const(2), const(-1)]
    for n in range(13):
        for i in range(n + 1):
            for z in zs:
                assert parts(q_binomial(n, i, z)) == parts(horner_q_binomial(n, i, z))


def test_q_binomial_explicit_values():
    assert q_binomial(4, 2, RF_Q) == rf((1, 1, 2, 1, 1))
    for n in range(9):
        assert q_binomial(n, 0, RF_Q) == RF_ONE


def test_q_binomial_symmetry():
    for n in range(9):
        for i in range(n + 1):
            assert q_binomial(n, i, RF_Q) == q_binomial(n, n - i, RF_Q)


def test_q_binomial_inversion_identity():
    # (n i)_{1/q} = q^{-i(n-i)} (n i)_q
    for n in range(1, 7):
        for i in range(n + 1):
            lhs = q_binomial(n, i, RF_Q.inv())
            rhs = SYMBOLIC_Q.power(-i * (n - i)) * q_binomial(n, i, RF_Q)
            assert lhs == rhs


def test_q_binomial_at_inverse_q_is_the_reversed_gaussian_polynomial():
    # canonical without Horner or _normalize: over q^(i (n - i)), with no
    # factor q left to cancel, since (n i)_q has constant coefficient 1
    for n in range(21):
        for i in range(n + 1):
            got = q_binomial(n, i, RF_Q.inv())
            assert parts(got) == parts(horner_q_binomial(n, i, RF_Q.inv()))
            assert got.num is _gauss_binomial_poly(n, i)


def test_qcomb_binomial_inverse_fails_on_a_non_palindromic_gaussian_polynomial(monkeypatch):
    # at symbolic q the rhs is sum c_j q^-j, not q^-i(n-i) times the lhs's
    # own polynomial, so a (4 2)_q that is no palindrome fails the check
    true = _gauss_binomial_poly
    bad = IntPoly([1, 1, 2, 1, 2])
    monkeypatch.setattr("qheis.coeff._gauss_binomial_poly", lambda n, i: bad if (n, i) == (4, 2) else true(n, i))
    status = {e.tuple: e.status for e in run_suite(SuiteConfig("qcomb", SYMBOLIC_Q, {"n": 4})).entries}
    assert status["binomial-inverse", 4, 2] == FAIL
    assert all(s == PASS for key, s in status.items() if key[0] == "binomial-inverse" and key[1:] != (4, 2))


def test_q_binomial_defined_at_roots_of_unity():
    minus_one = RationalFunction.from_int(-1)
    assert q_binomial(2, 1, minus_one) == RF_ZERO
    assert q_binomial(4, 2, minus_one) == RationalFunction.from_int(2)


def test_q_binomial_index_errors():
    with pytest.raises(CoefficientError):
        q_binomial(3, -1, RF_Q)
    with pytest.raises(CoefficientError):
        q_binomial(3, 4, RF_Q)


# the memo of term strings keeps |c| < 128 and i < 128; the coefficients
# reach past both bounds, with zero gaps and either sign in front
render_coeff = st.one_of(
    st.sampled_from([0, 1, -1, 127, -127, 128, -128, 129, 10**30, -(10**30)]),
    st.integers(-300, 300),
)
render_poly_st = st.lists(render_coeff, max_size=12).flatmap(
    lambda cs: st.integers(0, 160).map(lambda shift: IntPoly([0] * shift + cs))
)


@settings(max_examples=300, deadline=None)
@given(render_poly_st, render_poly_st)
def test_render_matches_the_term_by_term_reference(num, den):
    assert num.render() == render_poly(num)
    if den.coeffs:
        # canonical fractions: parenthesized sides, a negative leading term
        # moved to the numerator
        for f in (RationalFunction(num, den), RationalFunction(-num, den)):
            assert f.render() == render_rational(f)
    f = RationalFunction(num, den, _raw=True) if den.coeffs else RationalFunction(num)
    assert f.render() == render_rational(f)


def test_render_examples():
    assert poly().render() == "0"
    assert poly(-1).render() == "-1"
    assert poly(0, -1, 0, 128).render() == "-q + 128*q^3"
    assert poly(*([0] * 130 + [-3, 0, 1])).render() == "-3*q^130 + q^132"
    assert rf((1, 1), (0, 0, 1)).render() == "(1 + q)/q^2"
    assert rf((-2,), (-1, 1)).render() == "-2/(-1 + q)"


def test_binom2():
    assert [binom2(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]


# -- QValue ------------------------------------------------------------------


def test_qvalue_parse_and_flags():
    assert QValue.parse("symbolic").is_symbolic
    assert QValue.parse("2/3").value == Fraction(2, 3)
    assert QValue.parse("0").is_degenerate
    assert QValue.parse("1").is_degenerate
    assert QValue.parse("-1").is_degenerate
    assert not QValue.parse("2").is_degenerate
    with pytest.raises(ValueError):
        QValue.parse("elephant")
    with pytest.raises(ValueError):
        QValue.parse("1/0")


def test_parsed_q_values_are_shared():
    # one instance per value, so cache keys from earlier parses match by
    # identity; equality and hash are those of the value
    third = QValue.parse("-1/3")
    assert third is QValue.parse(" -1/3 ") is QValue.parse("-2/6")
    assert QValue.parse("symbolic") is SYMBOLIC_Q is QValue.parse(" symbolic")
    assert third == QValue.rational(-1, 3) and hash(third) == hash(QValue.rational(-1, 3))
    assert third is not QValue.rational(-1, 3)
    assert QValue.parse("2") == QValue(Fraction(2)) and third != QValue.parse("1/3")
    assert SYMBOLIC_Q == QValue() and hash(SYMBOLIC_Q) == hash(QValue()) and SYMBOLIC_Q != third


def test_qvalue_scalar_and_power():
    assert QValue().scalar() == RF_Q
    assert QValue.rational(3, 2).scalar() == RationalFunction.from_fraction(Fraction(3, 2))
    assert QValue().power(-2) == RF_Q**-2 and QValue().power(3) == RF_Q**3
    third = QValue.rational(-1, 3)
    assert third.power(-3) == RationalFunction.from_int(-27) and third.power(2) == third.scalar() ** 2
    assert QValue.rational(0).power(0) == RF_ONE and QValue.rational(0).power(2).is_zero()
    with pytest.raises(CoefficientError):
        QValue.rational(0).power(-1)
