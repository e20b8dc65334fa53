"""An independent oracle for the PBW product, the bracketed words and the
[A,B]-power basis change: the action of H(q) on Q[x].

A acts as the Jackson derivative D_q x^k = {k}_q x^(k-1) and B as
multiplication by x, so AB - qBA = I holds.  For q = 0 and for q not a
root of unity this action tells PBW elements apart once it is applied to
x^0 .. x^K with K at least the largest A-degree (Kac and Cheung, *Quantum
Calculus*).  Everything here is plain `Fraction` arithmetic on the
coefficient tuples; nothing of the program's product or rewriting is used.
A symbolic product is checked after evaluating it at several rational
points: a wrong coefficient is a nonzero rational function, which has only
finitely many roots.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.coeff import IntPoly, QValue, RationalFunction
from qheis.heis import NormalElement, bracketed_word, from_lie_power_basis, to_lie_power_basis
from qheis.words import enumerate_regular, factorize

SYM = QValue()
POINTS = (Fraction(2), Fraction(-1, 3), Fraction(5, 3), Fraction(-3))


def at(c, q0):
    """The coefficient c evaluated at q = q0, by Horner's rule."""
    num = den = Fraction(0)
    for a in reversed(c.num.coeffs):
        num = num * q0 + a
    for a in reversed(c.den.coeffs):
        den = den * q0 + a
    return num / den


def act(x, q0, poly):
    """x applied to the polynomial {exponent: coefficient}, at q = q0;
    B^m A^n sends x^j to {j}_q {j-1}_q ... {j-n+1}_q x^(j-n+m)."""
    out = {}
    for (m, n), c in x.terms.items():
        for j, v in poly.items():
            if n > j:
                continue
            v = v * at(c, q0)
            for i in range(j - n + 1, j + 1):
                v *= sum(q0**k for k in range(i))
            out[j - n + m] = out.get(j - n + m, 0) + v
    return {k: v for k, v in out.items() if v}


def a_degree(*xs):
    """The largest A-degree among the elements xs."""
    return max((n for x in xs for _, n in x.terms), default=0)


def assert_product_acts_as_composition(x, y, q0):
    xy = x * y
    # the A-degree of x y is at most the sum of those of x and y
    degree = a_degree(x) + a_degree(y)
    for j in range(degree + 1):
        assert act(xy, q0, {j: 1}) == act(x, q0, act(y, q0, {j: 1})), (x, y, q0, j)


keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# Z[q] coefficients, and a few over q, q - 1 and q^2 (q - 1)
z_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=4).map(IntPoly)
dens = st.sampled_from([(1,), (1,), (1,), (0, 1), (-1, 1), (0, 0, -1, 1)]).map(IntPoly)
q_coeffs = st.builds(RationalFunction, z_polys, dens)


def elements(q, coeffs):
    return st.dictionaries(keys, coeffs, max_size=4).map(lambda terms: NormalElement(q, terms))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_acts_as_composition_at_rational_q(data):
    q0 = data.draw(st.sampled_from([Fraction(2), Fraction(-1, 3)]))
    coeffs = fractions.map(RationalFunction.from_fraction)
    x, y = (data.draw(elements(QValue(q0), coeffs)) for _ in range(2))
    assert_product_acts_as_composition(x, y, q0)


@settings(max_examples=60, deadline=None)
@given(elements(SYM, q_coeffs), elements(SYM, q_coeffs))
def test_symbolic_product_acts_as_composition_at_rational_points(x, y):
    for q0 in POINTS:
        assert_product_acts_as_composition(x, y, q0)


def test_oracle_satisfies_the_defining_relation():
    a = NormalElement.monomial(0, 1, SYM)
    b = NormalElement.monomial(1, 0, SYM)
    for q0 in POINTS:
        for j in range(6):
            ab = act(a, q0, act(b, q0, {j: 1}))
            ba = act(b, q0, act(a, q0, {j: 1}))
            diff = {k: ab.get(k, 0) - q0 * ba.get(k, 0) for k in set(ab) | set(ba)}
            assert {k: v for k, v in diff.items() if v} == {j: 1}


def act_bracket(w, q0, poly):
    """<w> applied to poly, with <w> = <g><h> - <h><g> at the canonical split
    w = g h composed as operators on Q[x], never multiplied in H(q)."""
    if len(w) == 1:
        return act(NormalElement.monomial(int(w == "B"), int(w == "A"), SYM), q0, poly)
    g, h = factorize(w)
    gh = act_bracket(g, q0, act_bracket(h, q0, poly))
    hg = act_bracket(h, q0, act_bracket(g, q0, poly))
    out = {k: gh.get(k, 0) - hg.get(k, 0) for k in set(gh) | set(hg)}
    return {k: v for k, v in out.items() if v}


def test_bracketed_words_act_as_their_bracketings():
    rational = [(QValue(q0), [q0]) for q0 in (Fraction(2), Fraction(-1, 3))]
    for q, q0s in rational + [(SYM, POINTS)]:
        for w in enumerate_regular(7):
            x = bracketed_word(w, q)
            for q0 in q0s:
                for j in range(w.count("A") + 1):
                    assert act(x, q0, {j: 1}) == act_bracket(w, q0, {j: 1}), (w, q, q0, j)


def assert_basis_round_trip_acts_as_x(x, q0):
    y = from_lie_power_basis(to_lie_power_basis(x))
    for j in range(a_degree(x, y) + 1):
        assert act(y, q0, {j: 1}) == act(x, q0, {j: 1}), (x, q0, j)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_round_trip_acts_as_x_at_rational_q(data):
    q0 = data.draw(st.sampled_from([Fraction(2), Fraction(-1, 3)]))
    x = data.draw(elements(QValue(q0), fractions.map(RationalFunction.from_fraction)))
    assert_basis_round_trip_acts_as_x(x, q0)


@settings(max_examples=60, deadline=None)
@given(elements(SYM, q_coeffs))
def test_symbolic_basis_round_trip_acts_as_x_at_rational_points(x):
    for q0 in POINTS:
        assert_basis_round_trip_acts_as_x(x, q0)
