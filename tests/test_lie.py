"""The generic-q Lie subalgebra: generators, tables, membership, ranks.

Printed formulas that are provably wrong carry their own tests asserting
both facts: the printed form fails and the re-derived form holds.  The
full registry lives in qheis.lie.KNOWN_DISCREPANCIES.
"""

import os
import random
import subprocess
import sys
import textwrap
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qheis
from qheis.coeff import CoefficientError, QValue, RF_ONE, RF_Q, RationalFunction
from qheis.heis import (
    DegenerateQError,
    LiePowerCoords,
    NormalElement,
    bracketed_word,
    comm_power,
    commutator,
)
from qheis.lie import (
    AlphaBar,
    BetaBar,
    BrBA,
    BrMN,
    CiCoefficient,
    GammaBar,
    GenA,
    GenB,
    KNOWN_DISCREPANCIES,
    PowerA,
    PowerB,
    Unit,
    beta_closed_sides,
    beta_gamma_sum_sides,
    beta_raw,
    bigcomrel_sides,
    expand_gen_basis,
    gen_basis_coords,
    gen_basis_key,
    generic_basis_vectors,
    in_lie_span,
    independence_counts,
    matrix_rank,
    membership_generic,
    nilpotent_generic_case,
    table1_cells,
    table1_sides,
    table2_sides,
)
from qheis.words import is_regular

from helpers import field_ci_value

SYM = QValue()
rf_int = RationalFunction.from_int


def mono(m, n, q=SYM, c=RF_ONE):
    return NormalElement.monomial(m, n, q, c)


# -- basis vectors ---------------------------------------------------------


def test_expand_gen_basis_examples():
    assert expand_gen_basis(GammaBar(0), SYM) == comm_power(2, SYM)
    assert expand_gen_basis(BrBA(), SYM) == mono(1, 1, c=RF_ONE - RF_Q) - NormalElement.one(SYM)
    assert expand_gen_basis(AlphaBar(0, 1), SYM) == comm_power(1, SYM) * mono(0, 1)
    assert expand_gen_basis(BetaBar(2, 3), SYM) == mono(3, 0) * comm_power(3, SYM)


def test_expand_gen_basis_rejects_degenerate_q():
    for bad in ("0", "1", "-1"):
        with pytest.raises(DegenerateQError):
            expand_gen_basis(GammaBar(0), QValue.parse(bad))


def test_gen_basis_coords_identify_the_families():
    x = expand_gen_basis(AlphaBar(1, 2), SYM)
    assert gen_basis_coords(x) == {AlphaBar(1, 2): RF_ONE}
    y = expand_gen_basis(BrBA(), SYM)
    assert gen_basis_coords(y) == {BrBA(): RF_ONE}
    z = mono(0, 3) + NormalElement.one(SYM)
    coords = gen_basis_coords(z)
    assert coords[PowerA(3)] == RF_ONE and coords[Unit()] == RF_ONE
    assert gen_basis_coords(mono(0, 1)) == {GenA(): RF_ONE}
    assert gen_basis_coords(mono(1, 0)) == {GenB(): RF_ONE}


def _box_keys(bound):
    return [(d, k) for k in range(bound + 1) for d in range(k - bound, bound - k + 1)]


def test_gen_basis_key_inverts_dk_and_the_coordinates():
    for d, k in _box_keys(8):
        v = gen_basis_key(d, k)
        assert v.dk == (d, k), v
        assert gen_basis_coords(expand_gen_basis(v, SYM)) == {v: RF_ONE}, v


@pytest.mark.parametrize("q", ["symbolic", "2", "-1/3"])
def test_expand_gen_basis_matches_the_product_definition(q):
    q = QValue.parse(q)
    a = lambda e: NormalElement.monomial(0, e, q)
    b = lambda e: NormalElement.monomial(e, 0, q)
    cases = [
        (BrBA(), bracketed_word("BA", q)),
        (GenA(), a(1)),
        (GenB(), b(1)),
        (Unit(), NormalElement.one(q)),
    ]
    for k in range(4):
        cases.append((GammaBar(k), comm_power(k + 2, q)))
        for l in range(1, 4):
            cases.append((AlphaBar(k, l), comm_power(k + 1, q) * a(l)))
            cases.append((BetaBar(k, l), b(l) * comm_power(k + 1, q)))
    for e in range(2, 5):
        cases += [(PowerA(e), a(e)), (PowerB(e), b(e))]
    for v, expected in cases:
        assert expand_gen_basis(v, q) == expected, v


def test_in_lie_span_rule_is_the_complement_of_the_map():
    for d, k in _box_keys(8):
        coords = LiePowerCoords(SYM, {(d, k): RF_ONE})
        outside = isinstance(gen_basis_key(d, k), (Unit, PowerA, PowerB))
        assert in_lie_span(coords) is not outside, (d, k)


@pytest.mark.parametrize(
    "v",
    [AlphaBar(-1, 1), AlphaBar(0, 0), BetaBar(0, 0), GammaBar(-1), GammaBar(-3), PowerA(1), PowerA(0), PowerB(1)],
    ids=repr,
)
def test_expand_gen_basis_rejects_indices_out_of_range(v):
    with pytest.raises(ValueError):
        expand_gen_basis(v, SYM)


def test_expand_gen_basis_rejects_keys_without_dk():
    for v in (BrMN(1, 1), "A"):
        with pytest.raises(TypeError):
            expand_gen_basis(v, SYM)


# -- beta generators ----------------------------------------------------------


def test_beta_raw_small_cases():
    a = mono(0, 1)
    b = mono(1, 0)
    # beta_A(0,1) = [[B,A],A]
    expected = commutator(commutator(b, a), a)
    assert beta_raw("A", 0, 1, SYM) == expected
    # beta_B(0,1) collapses to <B^2 A>
    assert beta_raw("B", 0, 1, SYM) == bracketed_word("BBA", SYM)
    # beta_G(0) = [B, <B A^2>]
    assert beta_raw("G", 0, 1, SYM) == commutator(b, bracketed_word("BAA", SYM))


def beta_word(kind: str, k: int, l: int = 1) -> str:
    """The regular word whose bracketing defines the generator."""
    if kind == "A":
        return "BA" * k + "B" + "A" * (l + 1)
    if kind == "B":
        return "B" * (l + 1) + "A" + "BA" * k
    if kind == "G":
        return "B" + "BA" * k + "BAA"
    raise ValueError("unknown beta kind %r" % kind)


def test_beta_words_are_regular_and_match_the_adjoint_forms():
    for k in range(3):
        for l in range(1, 3):
            for kind in ("A", "B", "G"):
                w = beta_word(kind, k, l)
                assert is_regular(w)
                assert bracketed_word(w, SYM) == beta_raw(kind, k, l, SYM)


def test_beta_closed_forms_alpha_beta():
    for k in range(5):
        for l in range(1, 5):
            assert eq(*beta_closed_sides("A", k, l, SYM))
            assert eq(*beta_closed_sides("B", k, l, SYM))


def test_beta_closed_form_gamma_printed_fails_derived_holds():
    assert "baseGrel" in KNOWN_DISCREPANCIES
    for k in range(5):
        lhs, printed = beta_closed_sides("G", k, 1, SYM, derived=False)
        _, derived = beta_closed_sides("G", k, 1, SYM, derived=True)
        assert lhs != printed
        assert lhs == derived


def test_beta_gamma_telescoped_sum_printed_fails_derived_holds():
    assert "baseGrel2" in KNOWN_DISCREPANCIES
    for k in range(5):
        lhs, printed = beta_gamma_sum_sides(k, SYM, derived=False)
        assert lhs != printed
        lhs2, derived = beta_gamma_sum_sides(k, SYM, derived=True)
        assert lhs2 == derived


# -- membership ------------------------------------------------------------------


def test_membership_of_basis_vectors():
    vectors = [BrBA(), GenA(), GenB()]
    vectors += [AlphaBar(k, l) for k in range(6) for l in range(1, 6)]
    vectors += [BetaBar(k, l) for k in range(6) for l in range(1, 6)]
    vectors += [GammaBar(k) for k in range(6)]
    for v in vectors:
        assert membership_generic(expand_gen_basis(v, SYM))


def test_membership_of_complement_vectors_is_false():
    assert not membership_generic(NormalElement.one(SYM))
    for k in range(2, 6):
        assert not membership_generic(mono(0, k))
        assert not membership_generic(mono(k, 0))


def test_membership_of_pure_power_commutators():
    for m in range(2, 5):
        for n in range(2, 5):
            x = commutator(mono(m, 0), mono(0, n))
            assert membership_generic(x)


def test_membership_rejects_degenerate_q():
    for bad in ("0", "1", "-1"):
        with pytest.raises(DegenerateQError):
            membership_generic(NormalElement.one(QValue.parse(bad)))


def _random_combination(rng, q):
    vectors = [BrBA(), GenA(), GenB()]
    vectors += [AlphaBar(k, l) for k in range(3) for l in range(1, 3)]
    vectors += [BetaBar(k, l) for k in range(3) for l in range(1, 3)]
    vectors += [GammaBar(k) for k in range(3)]
    complements = [Unit(), PowerA(2), PowerA(3), PowerB(2), PowerB(3)]
    acc = NormalElement.zero(q)
    in_lie = True
    for _ in range(rng.randrange(1, 5)):
        pick = rng.random()
        if pick < 0.7:
            v = rng.choice(vectors)
        else:
            v = rng.choice(complements)
            in_lie = False
        acc = acc + expand_gen_basis(v, q).scale(rf_int(rng.randrange(1, 7)))
    return acc, in_lie


def test_membership_at_rational_q_agrees_with_symbolic():
    rng = random.Random(18)
    for q in (QValue.rational(2), QValue.rational(3, 2)):
        agreements = 0
        rng2 = random.Random(19)
        for _ in range(100):
            state = rng2.getstate()
            sym_elem, _ = _random_combination(rng2, SYM)
            rng2.setstate(state)
            rat_elem, _ = _random_combination(rng2, q)
            assert membership_generic(sym_elem) == membership_generic(rat_elem)
            agreements += 1
        assert agreements == 100


def test_membership_detects_planted_complements():
    rng = random.Random(20)
    for _ in range(100):
        x, expected = _random_combination(rng, SYM)
        # coefficients are positive, so planted complements cannot cancel
        assert membership_generic(x) == expected


# -- Table 1 ------------------------------------------------------------------


def test_table1_correct_cells_pass():
    for name, rv, cv in table1_cells(2):
        printed_ok = eq(*table1_sides(rv, cv, SYM))
        is_typo_cell = (
            (isinstance(rv, AlphaBar) and isinstance(cv, GenA) and rv.k >= 1)
            or (isinstance(rv, AlphaBar) and isinstance(cv, GenB) and rv.l >= 2)
            or (isinstance(rv, GenA) and isinstance(cv, BetaBar) and cv.l >= 2)
        )
        assert printed_ok == (not is_typo_cell), (name, rv, cv)


def test_table1_typo_cells_have_correct_derived_forms():
    assert "table1:Abar-A" in KNOWN_DISCREPANCIES
    assert "comrelAB1" in KNOWN_DISCREPANCIES
    assert "comrelAB4" in KNOWN_DISCREPANCIES
    for k in range(3):
        for l in range(1, 3):
            assert eq(*table1_sides(AlphaBar(k, l), GenA(), SYM, derived=True))
            if l >= 2:
                assert eq(*table1_sides(AlphaBar(k, l), GenB(), SYM, derived=True))
                assert eq(*table1_sides(GenA(), BetaBar(k, l), SYM, derived=True))


def test_table1_abar_a_derived_coefficient():
    # [Abar(k,l), A] = (1 - q^(k+1)) Abar(k, l+1)
    k, l = 2, 1
    lhs, rhs = table1_sides(AlphaBar(k, l), GenA(), SYM, derived=True)
    expected = expand_gen_basis(AlphaBar(k, l + 1), SYM).scale(RF_ONE - RF_Q ** (k + 1))
    assert lhs == rhs == expected


def test_table1_comrelab3_example():
    # [Abar(0,1), B] = q^-1 ((1+q) Gbar(0) + <BA>)
    lhs, rhs = table1_sides(AlphaBar(0, 1), GenB(), SYM)
    expected = (
        expand_gen_basis(GammaBar(0), SYM).scale(RF_ONE + RF_Q)
        + expand_gen_basis(BrBA(), SYM)
    ).scale(RF_Q.inv())
    assert lhs == rhs == expected


def test_table1_a_b_cell():
    lhs, rhs = table1_sides(GenA(), GenB(), SYM)
    assert lhs == rhs == -expand_gen_basis(BrBA(), SYM)


def test_closure_under_the_bracket():
    # every Table-1 commutator re-expresses in the basis with no complement
    for name, rv, cv in table1_cells(3):
        x = commutator(expand_gen_basis(rv, SYM), expand_gen_basis(cv, SYM))
        coords = gen_basis_coords(x)
        assert not any(isinstance(k, (Unit, PowerA, PowerB)) for k in coords), name


def test_bracket_antisymmetry_and_jacobi_on_basis_vectors():
    vecs = [
        expand_gen_basis(v, SYM)
        for v in (BrBA(), GenA(), GenB(), AlphaBar(0, 1), BetaBar(1, 1), GammaBar(0))
    ]
    rng = random.Random(21)
    for _ in range(20):
        x, y, z = (rng.choice(vecs) for _ in range(3))
        assert commutator(x, y) == -commutator(y, x)
        total = (
            commutator(x, commutator(y, z))
            + commutator(z, commutator(x, y))
            + commutator(y, commutator(z, x))
        )
        assert total.is_zero()


# -- the big commutation relation ------------------------------------------------


def test_ci_exponents_are_integers():
    for k in range(4):
        for l in range(1, 4):
            for m in range(4):
                for n in range(1, 4):
                    for i in range(n + 1):
                        ci = CiCoefficient(k, l, m, n, i)
                        assert isinstance(ci.e1, int)
                        assert isinstance(ci.e2, int)
                        ci.value(SYM)


def parts(x):
    return x.num.coeffs, x.den.coeffs


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4), st.integers(0, 6), st.integers(0, 4), st.integers(0, 6), st.data(),
    st.sampled_from([SYM, QValue.rational(2), QValue.rational(-1, 3), QValue.rational(1, 2), QValue.rational(-1)]),
)
def test_ci_value_matches_the_field_chain(k, l, m, n, data, q):
    ci = CiCoefficient(k, l, m, n, data.draw(st.integers(0, n)))
    assert parts(ci.value(q)) == parts(field_ci_value(ci, q))


def test_ci_value_at_q_0_and_1_raises_as_the_field_chain():
    raised = {0: 0, 1: 0}
    for q0 in raised:
        q = QValue.rational(q0)
        for k in range(3):
            for l in range(4):
                for m in range(3):
                    for n in range(4):
                        for i in range(n + 1):
                            ci = CiCoefficient(k, l, m, n, i)
                            try:
                                want = parts(field_ci_value(ci, q))
                            except CoefficientError as exc:
                                with pytest.raises(CoefficientError) as got:
                                    ci.value(q)
                                assert str(got.value) == str(exc)
                                raised[q0] += 1
                            else:
                                assert parts(ci.value(q)) == want
    # a negative exponent at q = 0, and (q - 1)^-n with n > 0 at q = 1
    assert raised[0] > 50 and raised[1] > 50


def test_closed_form_suites_make_no_normalize_calls():
    """Every scalar of table1 and bigcomrel is built in canonical form, so at
    symbolic q and default bounds no coefficient goes through the generic
    ``_normalize``.  shift and reorder build theirs in canonical form too,
    multiply in Z[q] and scale Z[q] coefficients by q^-e through
    ``_over_q_q1``; what is left is reorder's 16 sums with the scaled terms:
    0 and 16 calls (470 and 48 when the scaling went through ``_normalize``,
    2,226 and 262 when shift scaled before multiplying and reorder built q^-n
    and q^-1 {n}_(1/q) by chains over Q(q)).  qcomb takes (n i)_q at 1/q
    term by term and bnan-anbn sums the Gauss route in one ``lincomb``: 0
    calls each (245 and 442 over Q(q)).  A fresh process, so that no element
    cached by another test hides a call."""
    script = textwrap.dedent("""
        import qheis.coeff as coeff
        from qheis.coeff import SYMBOLIC_Q
        from qheis.suites import SuiteConfig, run_suite

        calls = []
        normalize = coeff._normalize
        coeff._normalize = lambda num, den: calls.append(1) or normalize(num, den)
        for suite in ("table1", "bigcomrel", "shift", "reorder", "qcomb", "bnan-anbn"):
            entries = len(run_suite(SuiteConfig(suite, SYMBOLIC_Q)).entries)
            print(suite, entries > 0, len(calls))
            calls.clear()
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(qheis.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["table1", "True", "0", "bigcomrel", "True", "0"] + [
        "shift", "True", "0", "reorder", "True", "16", "qcomb", "True", "0", "bnan-anbn", "True", "0"
    ]


def test_bigcomrel_all_three_cases():
    cases = {"l>n": 0, "l<n": 0, "l=n": 0}
    for k in range(3):
        for l in range(1, 4):
            for m in range(3):
                for n in range(1, 4):
                    assert eq(*bigcomrel_sides(k, l, m, n, SYM))
                    cases["l>n" if l > n else ("l<n" if l < n else "l=n")] += 1
    assert min(cases.values()) >= 10


def test_bigcomrel_case_supports():
    # l > n lands on Abar(., l-n); l < n on Bbar(., n-l); l = n on Gbar
    lhs, _ = bigcomrel_sides(0, 2, 1, 1, SYM)
    assert all(isinstance(v, AlphaBar) and v.l == 1 for v in gen_basis_coords(lhs))
    lhs, _ = bigcomrel_sides(1, 1, 0, 2, SYM)
    assert all(isinstance(v, BetaBar) and v.l == 1 for v in gen_basis_coords(lhs))
    lhs, _ = bigcomrel_sides(0, 1, 0, 1, SYM)
    assert all(isinstance(v, GammaBar) for v in gen_basis_coords(lhs))


# -- Table 2 ------------------------------------------------------------------


def table2_holds(row, col, q):
    kind, lhs, rhs = table2_sides(row, col, q)
    return membership_generic(lhs) if kind == "membership" else lhs == rhs


def test_table2_closed_cells():
    for e in range(2, 5):
        for col in (BrBA(), GammaBar(0), GammaBar(2), BetaBar(1, 2)):
            assert table2_holds(("B", e), col, SYM)
        for col in (BrBA(), GammaBar(0), GammaBar(2)):
            assert table2_holds(("A", e), col, SYM)


def test_table2_membership_cells():
    for e in range(2, 5):
        for k in range(3):
            for l in range(1, 3):
                assert table2_holds(("A", e), BetaBar(k, l), SYM)
                assert table2_holds(("B", e), AlphaBar(k, l), SYM)


def test_table2_rederived_cell():
    # the printed (A^n, Abar) entry has an unbound index; the derived form
    # is [A^n, Abar(k,l)] = (q^(n(k+1)) - 1) Abar(k, l+n)
    assert "table2:An-Abar" in KNOWN_DISCREPANCIES
    for n in range(2, 5):
        for k in range(3):
            for l in range(1, 3):
                kind, lhs, rhs = table2_sides(("A", n), AlphaBar(k, l), SYM)
                assert kind == "derived"
                assert lhs == rhs
                expected = expand_gen_basis(AlphaBar(k, l + n), SYM).scale(
                    RF_Q ** (n * (k + 1)) - RF_ONE
                )
                assert lhs == expected


# -- nilpotency of the quotient ---------------------------------------------------


def test_nilpotent_generic_cases_and_spans():
    for m in range(2, 6):
        for n in range(2, 6):
            member, support_ok, coords = nilpotent_generic_case(m, n, SYM)
            assert member and support_ok
            if m == n:
                assert all(isinstance(v, (BrBA, GammaBar)) for v in coords)
            elif m > n:
                assert all(
                    isinstance(v, BetaBar) and v.l == m - n for v in coords
                )
            else:
                assert all(
                    isinstance(v, AlphaBar) and v.l == n - m for v in coords
                )


# -- independence -----------------------------------------------------------------


def test_generic_independence_full_rank():
    for bound in (4, 6):
        count, rank = independence_counts("generic", bound)
        assert count == rank == (bound + 1) ** 2


def test_single_vector_has_rank_one():
    x = expand_gen_basis(BrBA(), SYM)
    assert matrix_rank([dict(x.terms)]) == 1


def test_complement_grows_with_the_bound():
    # 2D - 1 complement vectors {I, A^k, B^l : 2 <= k, l <= D}
    for D in (3, 5):
        rows = [dict(NormalElement.one(SYM).terms)]
        rows += [dict(mono(0, k).terms) for k in range(2, D + 1)]
        rows += [dict(mono(l, 0).terms) for l in range(2, D + 1)]
        assert matrix_rank(rows) == 2 * D - 1 == len(rows)


def test_generic_basis_vector_count_fills_the_box():
    vecs = generic_basis_vectors(6, SYM)
    assert len(vecs) == 49
    for _, x in vecs:
        assert max(map(max, x.terms), default=0) <= 6
