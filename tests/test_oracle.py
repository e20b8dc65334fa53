"""An independent oracle for the PBW product: the action of H(q) on Q[x].

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
from qheis.heis import NormalElement

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


def assert_product_acts_as_composition(x, y, q0):
    xy = x * y
    # the A-degree of x y is at most the sum of those of x and y
    degree = sum(max((n for _, n in z.terms), default=0) for z in (x, y))
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
