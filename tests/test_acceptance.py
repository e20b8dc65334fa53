"""Acceptance sweep: one test per criterion, each printing a status line.

Three criteria quote printed closed forms that are provably wrong (the
verifier re-derives the correct ones; see qheis.lie.KNOWN_DISCREPANCIES
and the README).  Those printed assertions are kept faithfully as strict
xfail tests named *_printed_forms; everything else, including the
corrected forms, must pass green.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import itertools
import random
import time
from operator import eq

import pytest

from qheis.coeff import IntPoly, QValue, RF_ONE, RF_Q, RationalFunction
from qheis.freealg import FreeElement, eval_monomial, passes_lie_necessary
from qheis.heis import (
    NormalElement,
    adad_sides,
    anbn_expand,
    anbn_via_gauss,
    bnan_expand,
    bracketed_word,
    commutator,
    fban_sides,
    from_lie_power_basis,
    nf_word,
    reorder_sides,
    shift_poly_sides,
    to_lie_power_basis,
)
from qheis.lie import (
    AlphaBar,
    BetaBar,
    BrBA,
    GammaBar,
    GenA,
    GenB,
    beta_closed_sides,
    beta_gamma_sum_sides,
    bia2_b2ak_sides,
    bigcomrel_sides,
    brmn_closed,
    brmn_printed,
    f_r,
    fer2_sides,
    fer_sides,
    idlem5b_sides,
    idlem_sides,
    independence_counts,
    membership_zero,
    nilpotent_generic_case,
    notanbm_sides,
    sandwiched_f_r,
    table1_cells,
    table1_sides,
    table2_sides,
)
from qheis.words import ALPHABET, bracketing, enumerate_regular
from rewriting import LEFTMOST, RIGHTMOST, _word_normal_form

SYM = QValue()
Q0 = QValue.rational(0)


def announce(num, ok, detail, t0, limit=None):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    budget = "" if limit is None else " < %ds" % limit
    print("[criterion %02d] %s %s (%.1fs%s)" % (num, status, detail, elapsed, budget))
    assert ok
    if limit is not None:
        assert elapsed < limit, "criterion %d exceeded its %ds budget" % (num, limit)


def _is_table1_typo_cell(rv, cv):
    return (
        (isinstance(rv, AlphaBar) and isinstance(cv, GenA) and rv.k >= 1)
        or (isinstance(rv, AlphaBar) and isinstance(cv, GenB) and rv.l >= 2)
        or (isinstance(rv, GenA) and isinstance(cv, BetaBar) and cv.l >= 2)
    )


def test_criterion_01_reordering():
    t0 = time.time()
    ok = all(
        eq(*reorder_sides(kind, n, SYM))
        for kind in ("AB^n", "A^nB", "BA^n", "B^nA")
        for n in range(1, 9)
    )
    announce(1, ok, "reordering formulas, four kinds, n <= 8, exact", t0, limit=5)


def test_criterion_02_power_expansions():
    t0 = time.time()
    ok = True
    for n in range(9):
        bn = nf_word("B" * n + "A" * n, SYM)
        ab = nf_word("A" * n + "B" * n, SYM)
        ok = ok and bnan_expand(n, SYM) == bn
        ok = ok and anbn_expand(n, SYM) == ab
        ok = ok and anbn_via_gauss(n, SYM) == ab
    announce(2, ok, "B^nA^n / A^nB^n expansions + Gauss route, n <= 8", t0, limit=30)


def test_criterion_03_shift_identity():
    t0 = time.time()
    ok = True
    for length in range(1, 6):
        for letters in itertools.product(ALPHABET, repeat=length):
            for n in range(5):
                ok = ok and eq(*shift_poly_sides("".join(letters), n, SYM))
    announce(3, ok, "shift identity for |P| <= 5, n <= 4", t0, limit=60)


def test_criterion_04_adjoint_lemma_and_bracket_closed_forms():
    t0 = time.time()
    ok = all(eq(*s) for m in range(9) for n in range(9) for s in adad_sides(m, n, SYM))
    ok = ok and all(eq(*s) for n in range(1, 9) for s in fban_sides(n, SYM))
    announce(4, ok, "adjoint images of B^mA^n (m,n <= 8) and <BA^n>/<B^nA>", t0)


def test_criterion_05_beta_closed_forms():
    t0 = time.time()
    ok = True
    for k in range(5):
        for l in range(1, 5):
            lhs, rhs = beta_closed_sides("A", k, l, SYM)
            ok = ok and lhs == rhs
            lhs, rhs = beta_closed_sides("B", k, l, SYM)
            ok = ok and lhs == rhs
    # Gamma family: corrected closed forms (printed twin is xfail below)
    for k in range(5):
        lhs, rhs = beta_closed_sides("G", k, 1, SYM, derived=True)
        ok = ok and lhs == rhs
        lhs, rhs = beta_gamma_sum_sides(k, SYM, derived=True)
        ok = ok and lhs == rhs
    announce(5, ok, "beta closed forms (A, B printed; Gamma corrected), k,l <= 4", t0)


@pytest.mark.xfail(
    strict=True,
    reason="printed Gamma closed form and its telescoped sum are wrong for "
    "every k; beta_G(k) = q^-(k+1)(q-1)^(k+1)({k+1}_q C^(k+1) - {k+2}_q C^(k+2)) "
    "is the derived correction (KNOWN_DISCREPANCIES: baseGrel, baseGrel2)",
)
def test_criterion_05_gamma_printed_forms():
    for k in range(5):
        lhs, rhs = beta_closed_sides("G", k, 1, SYM, derived=False)
        assert lhs == rhs
        lhs, rhs = beta_gamma_sum_sides(k, SYM, derived=False)
        assert lhs == rhs


def test_criterion_06_commutation_table():
    t0 = time.time()
    ok = True
    n_cells = 0
    for name, rv, cv in table1_cells(3):
        lhs, printed = table1_sides(rv, cv, SYM, derived=False)
        n_cells += 1
        if _is_table1_typo_cell(rv, cv):
            # printed form is wrong here; the derived correction must hold
            derived = table1_sides(rv, cv, SYM, derived=True)[1]
            ok = ok and lhs != printed and lhs == derived
        else:
            ok = ok and lhs == printed
    cases = {"l>n": 0, "l<n": 0, "l=n": 0}
    for k in range(4):
        for l in range(1, 4):
            for m in range(4):
                for n in range(1, 4):
                    ok = ok and eq(*bigcomrel_sides(k, l, m, n, SYM))
                    cases["l>n" if l > n else ("l<n" if l < n else "l=n")] += 1
    ok = ok and min(cases.values()) >= 10
    announce(
        6,
        ok,
        "commutation table (%d cells, corrected where the print fails) and "
        "the c_i cross relation (%s)" % (n_cells, cases),
        t0,
        limit=600,
    )


@pytest.mark.xfail(
    strict=True,
    reason="three printed table cells are wrong: [Abar(k,l),A] needs "
    "(1-q^(k+1)), and the two mixed-bracket rules for l,n >= 2 have "
    "shifted indices (KNOWN_DISCREPANCIES: table1:Abar-A, comrelAB1, comrelAB4)",
)
def test_criterion_06_printed_forms():
    for name, rv, cv in table1_cells(3):
        if _is_table1_typo_cell(rv, cv):
            lhs, printed = table1_sides(rv, cv, SYM, derived=False)
            assert lhs == printed, (name, rv, cv)


def test_criterion_07_lie_ideal_table():
    t0 = time.time()
    ok = True
    derived_reported = []
    cols = [BrBA()]
    cols += [GammaBar(k) for k in range(4)]
    cols += [AlphaBar(k, l) for k in range(4) for l in range(1, 4)]
    cols += [BetaBar(k, l) for k in range(4) for l in range(1, 4)]
    from qheis.lie import membership_generic

    for e in range(2, 5):
        for letter in ("A", "B"):
            for col in cols:
                kind, lhs, rhs = table2_sides((letter, e), col, SYM)
                if kind == "membership":
                    ok = ok and membership_generic(lhs)
                else:
                    ok = ok and lhs == rhs
                    if kind == "derived":
                        derived_reported.append(((letter, e), col))
    ok = ok and len(derived_reported) > 0
    print(
        "    re-derived cell: [A^n, Abar(k,l)] = (q^(n(k+1)) - 1) Abar(k, l+n) "
        "(%d instances verified)" % len(derived_reported)
    )
    announce(7, ok, "Lie-ideal table: closed cells, memberships, re-derived cell", t0)


def test_criterion_08_generic_nilpotency():
    t0 = time.time()
    ok = True
    for m in range(2, 6):
        for n in range(2, 6):
            member, support_ok, _ = nilpotent_generic_case(m, n, SYM)
            ok = ok and member and support_ok
    announce(8, ok, "[B^m, A^n] in L(q) with case-split spans, 2 <= m,n <= 5", t0)


def test_criterion_09_zero_mode():
    t0 = time.time()
    ok = True
    for n in range(1, 9):
        for m in range(1, 9):
            lhs, rhs = fer_sides(n, m)
            ok = ok and lhs == rhs
    for m in range(1, 7):
        for n in range(1, 7):
            pipeline = bracketed_word("B" * m + "A" * n, Q0)
            ok = ok and pipeline == brmn_closed(m, n)
            if m <= n or n == 1:  # the printed expansion holds here
                ok = ok and pipeline == brmn_printed(m, n)
            lhs, rhs = fer2_sides(m, n, derived=True)
            ok = ok and lhs == rhs
    for idx in range(4, 8):
        lhs, rhs = notanbm_sides(1, idx)
        ok = ok and lhs == rhs
        lhs, rhs = notanbm_sides(2, idx, derived=True)
        ok = ok and lhs == rhs
        for eqno in (1, 2, 3, 4):
            lhs, rhs = idlem_sides(eqno, idx, derived=True)
            ok = ok and lhs == rhs
        lhs, rhs = idlem_sides(2, idx, derived=False)  # printed eq 2 is correct
        ok = ok and lhs == rhs
    for i in range(4, 8):
        for l in range(4, 8):
            lhs, rhs = idlem_sides(5, i, l)
            ok = ok and lhs == rhs
            lhs, rhs = idlem5b_sides(i, l)
            ok = ok and lhs == rhs
    for i in range(4, 7):
        for j in range(4, 7):
            br = bracketed_word("B" * i + "A" * j, Q0)
            for l in range(4, 7):
                ok = ok and membership_zero(commutator(br, NormalElement.monomial(l, 2, Q0)))
                ok = ok and membership_zero(commutator(br, NormalElement.monomial(2, l, Q0)))
    for r in range(1, 5):
        ok = ok and membership_zero(f_r(r))
    for x in range(1, 5):
        for r in range(1, 5):
            for y in range(1, 5):
                ok = ok and membership_zero(sandwiched_f_r(x, r, y))
    for i in range(4, 8):
        for k in range(4, 8):
            lhs, rhs = bia2_b2ak_sides(i, k)
            ok = ok and lhs == rhs and membership_zero(lhs)
    announce(9, ok, "q=0 sweep (corrected bracket expansions where the print fails)", t0)


@pytest.mark.xfail(
    strict=True,
    reason="four printed q=0 families are wrong: the <B^m A^n> expansion for "
    "m > n >= 2, the pure-power elimination for B^m A^2, and the first/third/"
    "fourth bracket-identity rules (KNOWN_DISCREPANCIES: BmAnEQ, fer2AnBm, "
    "notAnBmeq2, idLemeq1, idLemeq3, idLemeq4)",
)
def test_criterion_09_printed_forms():
    for m in range(1, 7):
        for n in range(1, 7):
            assert bracketed_word("B" * m + "A" * n, Q0) == brmn_printed(m, n)
            lhs, rhs = fer2_sides(m, n, derived=False)
            assert lhs == rhs
    for idx in range(4, 8):
        for eqno in (1, 3, 4):
            lhs, rhs = idlem_sides(eqno, idx, derived=False)
            assert lhs == rhs
        lhs, rhs = notanbm_sides(2, idx, derived=False)
        assert lhs == rhs


def test_criterion_10_bases_and_roundtrips():
    t0 = time.time()
    count, rank = independence_counts("generic", 6)
    ok = count == rank == 49
    count, rank = independence_counts("zero", 6)
    ok = ok and count == rank == 49
    count, rank = independence_counts("zero-extended", 6)
    ok = ok and count == rank == 45
    rng = random.Random(20250809)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]
            c = RationalFunction(IntPoly(coeffs))
            if c.is_zero():
                c = RF_ONE
            terms[(rng.randrange(9), rng.randrange(9))] = c
        x = NormalElement(SYM, terms)
        ok = ok and from_lie_power_basis(to_lie_power_basis(x)) == x
    announce(10, ok, "basis ranks at support bound 6 and 200 exact round-trips", t0)


def test_criterion_11_theta_criterion():
    t0 = time.time()
    words = enumerate_regular(10)
    ok = all(passes_lie_necessary(eval_monomial(bracketing(w))) for w in words)
    defining = (
        FreeElement.word("AB") - FreeElement.word("BA", RF_Q) - FreeElement.one()
    )
    ok = ok and not passes_lie_necessary(defining)
    counts = [sum(1 for w in words if len(w) == n) for n in range(1, 7)]
    ok = ok and counts == [2, 1, 2, 3, 6, 9]
    announce(11, ok, "theta test on %d bracketed words plus counts %s" % (len(words), counts), t0)


def test_criterion_12_confluence_probe():
    t0 = time.time()
    ok = True
    n_words = 0
    for length in range(1, 11):
        for letters in itertools.product(ALPHABET, repeat=length):
            w = "".join(letters)
            n_words += 1
            ok = ok and _word_normal_form(w, SYM, LEFTMOST) == _word_normal_form(
                w, SYM, RIGHTMOST
            )
    assert n_words == 2046
    announce(12, ok, "two rewrite strategies agree on all %d words" % n_words, t0, limit=60)
