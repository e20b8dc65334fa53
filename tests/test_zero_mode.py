"""The q = 0 regime: collapsed products, the bracketed-word basis, the
Lie ideal, and the nilpotent quotient."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.coeff import RF_ZERO, IntPoly, QValue, RationalFunction
from qheis.heis import (
    DegenerateQError,
    NormalElement,
    bracketed_word,
    commutator,
    nf_word,
)
from qheis.lie import (
    BrMN,
    GenA,
    GenB,
    PowerA,
    PowerB,
    Unit,
    bia2_b2ak_sides,
    brmn_closed,
    brmn_printed,
    f_r,
    fer2_sides,
    fer_sides,
    idlem5b_sides,
    idlem_sides,
    independence_counts,
    matrix_rank,
    membership_zero,
    notanbm_sides,
    sandwiched_f_r,
    zero_basis_coords,
    zero_basis_vectors,
)

Q0 = QValue.rational(0)
rf_int = RationalFunction.from_int


def mono(m, n, c=None):
    return NormalElement.monomial(m, n, Q0, c if c is not None else rf_int(1))


# -- collapsed products ------------------------------------------------------


def test_fer_collapse():
    for n in range(1, 9):
        for m in range(1, 9):
            lhs, rhs = fer_sides(n, m)
            assert lhs == rhs
    assert nf_word("AABBB", Q0) == mono(1, 0)
    assert nf_word("AAABB", Q0) == mono(0, 1)
    assert nf_word("AABB", Q0) == NormalElement.one(Q0)


# -- bracketed-word expansions -------------------------------------------------


def test_brmn_closed_matches_the_bracketing_pipeline():
    for m in range(1, 8):
        for n in range(1, 8):
            assert bracketed_word("B" * m + "A" * n, Q0) == brmn_closed(m, n)


def test_brmn_printed_form_fails_exactly_for_m_gt_n_ge_2():
    for m in range(1, 8):
        for n in range(1, 8):
            pipeline = bracketed_word("B" * m + "A" * n, Q0)
            printed_ok = pipeline == brmn_printed(m, n)
            assert printed_ok == (m <= n or n == 1), (m, n)


def test_brmn_example_m2_n2():
    # <B^2 A^2> = B^2 A^2 - 2 BA + I
    expected = mono(2, 2) - mono(1, 1, rf_int(2)) + NormalElement.one(Q0)
    assert brmn_closed(2, 2) == expected == brmn_printed(2, 2)


def test_brmn_corrected_coefficients_for_m_gt_n():
    # <B^3 A^2> = B^3 A^2 - 3 B^2 A + 2 B
    expected = mono(3, 2) - mono(2, 1, rf_int(3)) + mono(1, 0, rf_int(2))
    assert brmn_closed(3, 2) == expected


# -- the adjoint images at q = 0 -------------------------------------------------


def test_ad_brba_and_ad_b_images():
    br = bracketed_word("BA", Q0)
    b = mono(1, 0)
    for m in range(1, 5):
        for n in range(1, 5):
            assert commutator(br, mono(m, n)).is_zero()
            expected = mono(m + 1, n) - mono(m, n - 1)
            assert commutator(b, mono(m, n)) == expected
    for m in range(1, 5):
        assert commutator(br, mono(m, 0)) == -brmn_closed(m + 1, 1)
        assert commutator(b, mono(0, m)) == brmn_closed(1, m)
        assert commutator(mono(m, 0), mono(0, 1)) == brmn_closed(m, 1)
    for n in range(1, 5):
        assert commutator(br, mono(0, n)) == brmn_closed(1, n + 1)


def test_fer2_three_cases():
    for m in range(1, 7):
        for n in range(1, 7):
            lhs, derived = fer2_sides(m, n, derived=True)
            assert lhs == derived
            _, printed = fer2_sides(m, n, derived=False)
            expect_printed_ok = (
                m == n
                or (n > m and m % 2 == 0)
                or (n < m and n % 2 == 0 and math.comb(m - 1, n - 1) == 1)
            )
            assert (lhs == printed) == expect_printed_ok, (m, n)


def test_notanbm_identities():
    for idx in range(4, 8):
        lhs, rhs = notanbm_sides(1, idx)
        assert lhs == rhs
        lhs, printed = notanbm_sides(2, idx, derived=False)
        assert lhs != printed
        lhs, derived = notanbm_sides(2, idx, derived=True)
        assert lhs == derived


def test_idlem_identities():
    for idx in range(4, 8):
        for eqno, printed_holds in ((1, False), (2, True), (3, False), (4, False)):
            lhs, printed = idlem_sides(eqno, idx, derived=False)
            assert (lhs == printed) == printed_holds, (eqno, idx)
            lhs, derived = idlem_sides(eqno, idx, derived=True)
            assert lhs == derived, (eqno, idx)
    for i in range(4, 7):
        for l in range(4, 7):
            lhs, rhs = idlem_sides(5, i, l)
            assert lhs == rhs
            lhs, rhs = idlem5b_sides(i, l)
            assert lhs == rhs


def test_idlem1_spec_shape_at_k4():
    # [B, B^2 A^4] = <B^3 A^4> + 2 <B^2 A^3> + <B A^2>
    lhs = commutator(mono(1, 0), mono(2, 4))
    rhs = (
        brmn_closed(3, 4)
        + brmn_closed(2, 3).scale(rf_int(2))
        + brmn_closed(1, 2)
    )
    assert lhs == rhs


# -- membership in L(0) ------------------------------------------------------------


def test_membership_zero_examples():
    assert membership_zero(brmn_closed(3, 2))
    assert membership_zero(mono(0, 1))
    assert membership_zero(mono(1, 0))
    assert not membership_zero(NormalElement.one(Q0))
    assert not membership_zero(mono(0, 2))
    assert not membership_zero(mono(2, 5))
    assert not membership_zero(mono(2, 5) + mono(0, 1))
    assert membership_zero(mono(2, 5) - mono(0, 3) - brmn_closed(2, 5) + brmn_closed(2, 5))


def test_membership_zero_requires_q_zero():
    with pytest.raises(DegenerateQError):
        membership_zero(NormalElement.one(QValue()))


def test_f_r_and_sandwiches_are_lie_polynomials():
    for r in range(1, 6):
        assert membership_zero(f_r(r))
    for x in range(1, 5):
        for r in range(1, 5):
            for y in range(1, 5):
                assert membership_zero(sandwiched_f_r(x, r, y))


def test_bia2_b2ak_closed_form_and_membership():
    for i in range(4, 8):
        for k in range(4, 8):
            lhs, rhs = bia2_b2ak_sides(i, k)
            assert lhs == rhs
            assert membership_zero(lhs)


def test_zeroid2_memberships():
    for i in range(4, 7):
        for j in range(4, 7):
            br = bracketed_word("B" * i + "A" * j, Q0)
            for l in range(4, 7):
                assert membership_zero(commutator(br, mono(l, 2)))
                assert membership_zero(commutator(br, mono(2, l)))


# -- the basis decomposition ---------------------------------------------------------


def reconstruct(coords):
    acc = NormalElement.zero(Q0)
    for key, c in coords.items():
        if isinstance(key, BrMN):
            acc = acc + brmn_closed(key.m, key.n).scale(c)
        elif isinstance(key, Unit):
            acc = acc + NormalElement.one(Q0).scale(c)
        elif isinstance(key, GenA):
            acc = acc + mono(0, 1, c)
        elif isinstance(key, GenB):
            acc = acc + mono(1, 0, c)
        elif isinstance(key, PowerA):
            acc = acc + mono(2, key.k + 2, c)
        elif isinstance(key, PowerB):
            acc = acc + mono(key.l + 2, 2, c)
        else:
            raise AssertionError(key)
    return acc


def test_zero_basis_coords_reconstruct():
    rng = random.Random(22)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            terms[(rng.randrange(8), rng.randrange(8))] = rf_int(rng.randrange(-9, 10) or 1)
        x = NormalElement(Q0, terms)
        assert reconstruct(zero_basis_coords(x)) == x


def reference_zero_basis_coords(x):
    """Reference for ``zero_basis_coords``: the triangular solve on
    RationalFunction coefficients that served every x before constant
    coefficients were solved on ints."""
    coords = {}

    def put(key, c):
        acc = coords.get(key, RF_ZERO) + c
        if acc.is_zero():
            coords.pop(key, None)
        else:
            coords[key] = acc

    rem = dict(x.terms)
    while True:
        mixed = [k for k, c in rem.items() if k[0] >= 1 and k[1] >= 1 and not c.is_zero()]
        if not mixed:
            break
        m, n = max(mixed, key=lambda k: (k[0] + k[1], k))
        c = rem[(m, n)]
        put(BrMN(m, n), c)
        for key, v in brmn_closed(m, n).terms.items():
            acc = rem.get(key, RF_ZERO) - c * v
            if acc.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = acc
    for (m, n), c in sorted(rem.items()):
        if (m, n) == (0, 0):
            put(Unit(), c)
        elif (m, n) == (0, 1):
            put(GenA(), c)
        elif (m, n) == (1, 0):
            put(GenB(), c)
        elif m == 0:
            put(PowerA(n), c)
            put(BrMN(2, n + 2), -c)
            put(BrMN(1, n + 1), -c - c)
        else:
            put(PowerB(m), c)
            put(BrMN(m + 2, 2), -c)
            put(BrMN(m + 1, 1), c * rf_int(-(m + 2)))
    return coords


# constants with small denominators, and values repeated often enough that
# the solve cancels coordinates to 0; a polynomial coefficient (only
# meaningful as an element of Q(q) before q = 0 is substituted) takes the
# RationalFunction loop
constants = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2)]),
).map(RationalFunction.from_fraction)
POLY = RationalFunction(IntPoly([1, -2]), IntPoly([3]))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), constants, max_size=7),
    st.booleans(),
)
def test_zero_basis_coords_matches_the_rational_function_solve(terms, polynomial):
    if polynomial and terms:
        terms[min(terms)] = POLY
    x = NormalElement(Q0, terms)
    got = zero_basis_coords(x)
    # same coordinates in the same order
    assert list(got.items()) == list(reference_zero_basis_coords(x).items())
    assert reconstruct(got) == x


def test_zero_basis_coords_named_cases():
    assert zero_basis_coords(NormalElement.zero(Q0)) == {}
    # <B A> = BA - I: the coordinate of I cancels, and 1/3 stays exact
    third = RationalFunction.from_fraction(Fraction(1, 3))
    x = mono(1, 1, third) - mono(0, 0, third)
    assert zero_basis_coords(x) == {BrMN(1, 1): third}
    # A^2 / 2 = (B^2 A^4 - <B^2 A^4> - 2 <B A^3>) / 2
    half = RationalFunction.from_fraction(Fraction(1, 2))
    assert zero_basis_coords(mono(0, 2, half)) == {PowerA(2): half, BrMN(2, 4): -half, BrMN(1, 3): rf_int(-1)}


def test_zero_basis_coords_of_a_basis_vector_is_trivial():
    # B^2 A^5 is itself an extended-basis vector (j = 5 >= 4)
    coords = zero_basis_coords(mono(2, 5))
    assert coords == {PowerA(3): rf_int(1)}


# -- rank checks -----------------------------------------------------------------


def test_zero_mode_independence_full_rank():
    count, rank = independence_counts("zero", 6)
    assert count == rank == 49
    count, rank = independence_counts("zero-extended", 6)
    assert count == rank == 45


def test_grading_subspace_bases():
    # per degree l: B^l and <B^(h+l) A^h> restricted to the support box
    for l in range(4):
        rows = [dict(mono(l, 0).terms)]
        for h in range(1, 7 - l):
            rows.append(dict(brmn_closed(h + l, h).terms))
        assert matrix_rank(rows) == len(rows)


def test_zero_basis_vectors_fit_the_box():
    for _, x in zero_basis_vectors(6, extended=False):
        assert max(map(max, x.terms), default=0) <= 6
    for _, x in zero_basis_vectors(6, extended=True):
        assert max(map(max, x.terms), default=0) <= 6
