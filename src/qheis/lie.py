"""The Lie subalgebra L(q) of H(q) generated by A and B.

Covers both regimes: generic q (nonzero, not a root of unity) with the
normalized generator families Abar(k,l) = [A,B]^(k+1) A^l,
Bbar(k,l) = B^l [A,B]^(k+1), Gbar(k) = [A,B]^(k+2), and q = 0 with the
bracketed-word basis {A, B, <B^m A^n>}.

Each closed-form identity from the source tables comes in two flavours:
the *printed* form and, where the printed form is provably wrong, a
*derived* form recomputed from scratch by this module's own oracle
(commutator, re-expression in the basis).  The registry
``KNOWN_DISCREPANCIES`` lists every printed formula that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple, Union

from .coeff import (
    RF_ONE,
    QValue,
    RationalFunction,
    add_terms,
    binom2,
    gauss_terms,
    q_laurent,
)
from .heis import (
    DegenerateQError,
    LiePowerCoords,
    NormalElement,
    _codec,
    _decode,
    _packed_terms,
    bracketed_word,
    comm_power,
    commutator,
    lincomb,
    nf_word,
    to_lie_power_basis,
)

# ---------------------------------------------------------------------------
# basis vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrBA:
    """The Lie monomial <BA> = BA - AB = -[A,B]."""

    def render(self) -> str:
        return "<BA>"


@dataclass(frozen=True)
class GenA:
    def render(self) -> str:
        return "A"


@dataclass(frozen=True)
class GenB:
    def render(self) -> str:
        return "B"


@dataclass(frozen=True)
class AlphaBar:
    """[A,B]^(k+1) A^l with k >= 0, l >= 1."""

    k: int
    l: int

    def render(self) -> str:
        return "Abar(%d,%d)" % (self.k, self.l)


@dataclass(frozen=True)
class BetaBar:
    """B^l [A,B]^(k+1) with k >= 0, l >= 1."""

    k: int
    l: int

    def render(self) -> str:
        return "Bbar(%d,%d)" % (self.k, self.l)


@dataclass(frozen=True)
class GammaBar:
    """[A,B]^(k+2) with k >= 0."""

    k: int

    def render(self) -> str:
        return "Gbar(%d)" % self.k


@dataclass(frozen=True)
class Unit:
    """The identity I; complement of L(q) in H(q)."""

    def render(self) -> str:
        return "I"


@dataclass(frozen=True)
class PowerA:
    """A^k with k >= 2; complement of L(q)."""

    k: int

    def render(self) -> str:
        return "A^%d" % self.k


@dataclass(frozen=True)
class PowerB:
    """B^l with l >= 2; complement of L(q)."""

    l: int

    def render(self) -> str:
        return "B^%d" % self.l


GenBasisVector = Union[BrBA, GenA, GenB, AlphaBar, BetaBar, GammaBar]
ComplementVector = Union[Unit, PowerA, PowerB]
BasisKey = Union[GenBasisVector, ComplementVector]


def _require_generic(q: QValue, what: str) -> None:
    if q.is_degenerate:
        raise DegenerateQError(
            "%s requires q not in {0, 1, -1}, got q = %s" % (what, q)
        )


@lru_cache(maxsize=None)
def expand_gen_basis(v: BasisKey, q: QValue) -> NormalElement:
    """PBW expansion of a basis vector of H(q) (generic-q families)."""
    _require_generic(q, "expand_gen_basis")
    if isinstance(v, BrBA):
        return bracketed_word("BA", q)
    if isinstance(v, GenA):
        return NormalElement.monomial(0, 1, q)
    if isinstance(v, GenB):
        return NormalElement.monomial(1, 0, q)
    if isinstance(v, AlphaBar):
        if v.k < 0 or v.l < 1:
            raise ValueError("AlphaBar needs k >= 0, l >= 1")
        return comm_power(v.k + 1, q) * NormalElement.monomial(0, v.l, q)
    if isinstance(v, BetaBar):
        if v.k < 0 or v.l < 1:
            raise ValueError("BetaBar needs k >= 0, l >= 1")
        return NormalElement.monomial(v.l, 0, q) * comm_power(v.k + 1, q)
    if isinstance(v, GammaBar):
        if v.k < 0:
            raise ValueError("GammaBar needs k >= 0")
        return comm_power(v.k + 2, q)
    if isinstance(v, Unit):
        return NormalElement.one(q)
    if isinstance(v, PowerA):
        return NormalElement.monomial(0, v.k, q)
    if isinstance(v, PowerB):
        return NormalElement.monomial(v.l, 0, q)
    raise TypeError("unknown basis vector %r" % (v,))


def combo_expand(pairs: List[Tuple[RationalFunction, BasisKey]], q: QValue) -> NormalElement:
    """Expand a linear combination of basis vectors to PBW form."""
    return lincomb(((c, expand_gen_basis(v, q)) for c, v in pairs), q)


def gen_basis_coords(x: NormalElement) -> Dict[BasisKey, RationalFunction]:
    """Exact coordinates of x in the full basis of H(q): the L(q) basis
    {<BA>, A, B, Abar, Bbar, Gbar} plus the complement {I, A^k, B^l}."""
    coords = to_lie_power_basis(x)
    out: Dict[BasisKey, RationalFunction] = {}
    for (d, k), c in coords.coords.items():
        if d == 0:
            if k == 0:
                out[Unit()] = c
            elif k == 1:
                out[BrBA()] = -c
            else:
                out[GammaBar(k - 2)] = c
        elif d > 0:
            if k == 0:
                out[GenB() if d == 1 else PowerB(d)] = c
            else:
                out[BetaBar(k - 1, d)] = c
        else:
            if k == 0:
                out[GenA() if d == -1 else PowerA(-d)] = c
            else:
                out[AlphaBar(k - 1, -d)] = c
    return out


def in_lie_span(coords: LiePowerCoords) -> bool:
    """Whether the element with these [A,B]-power coordinates lies in L(q),
    for q not 0, 1 or -1.

    By the basis theorem the complement of L(q) in H(q) is spanned by I
    and the pure powers A^k, B^l (k, l >= 2), so membership is the
    vanishing of those coordinates.
    """
    for (d, k), c in coords.coords.items():
        if k == 0 and (d == 0 or abs(d) >= 2) and not c.is_zero():
            return False
    return True


def membership_generic(x: NormalElement) -> bool:
    """Whether x lies in L(q), for q nonzero and not 0, 1 or -1."""
    if x.q.is_degenerate:
        raise DegenerateQError(
            "membership_generic requires |q| not in {0, 1}, got q = %s" % x.q
        )
    return in_lie_span(to_lie_power_basis(x))


def _q_minus(q: QValue, e1: int, e2: int, b: int = 0) -> RationalFunction:
    """(q^e1 - q^e2) / (q - 1)^b."""
    return q_laurent(q, ((1, e1), (-1, e2)), b)


def _q_run(q: QValue, lo: int, hi: int, c: int = 1) -> RationalFunction:
    """c (q^lo + q^(lo+1) + ... + q^(hi-1)) = c q^lo {hi - lo}_q."""
    return q_laurent(q, ((c, e) for e in range(lo, hi)))


# ---------------------------------------------------------------------------
# the beta generator families (iterated adjoints)
# ---------------------------------------------------------------------------


def beta_raw(kind: str, k: int, l: int = 1, q: QValue = None) -> NormalElement:
    """The generator as an iterated adjoint, evaluated in H(q).

    beta_A(k,l) = ((ad <BA>)^k o (-ad A)^(l+1))(B)
    beta_B(k,l) = ((ad B)^(l-1) o (-ad <BA>)^k)(<B^2 A>)
    beta_G(k)   = ((ad B) o (ad <BA>)^k)(<B A^2>)
    """
    if q is None:
        raise ValueError("beta_raw needs an explicit q")
    if k < 0:
        raise ValueError("beta_raw needs k >= 0")
    br_ba = bracketed_word("BA", q)
    a = NormalElement.monomial(0, 1, q)
    b = NormalElement.monomial(1, 0, q)
    if kind == "A":
        if l < 1:
            raise ValueError("beta_A needs l >= 1")
        acc = b
        for _ in range(l + 1):
            acc = commutator(acc, a)  # -ad A
        for _ in range(k):
            acc = commutator(br_ba, acc)
        return acc
    if kind == "B":
        if l < 1:
            raise ValueError("beta_B needs l >= 1")
        acc = bracketed_word("BBA", q)
        for _ in range(k):
            acc = commutator(acc, br_ba)  # -ad <BA>
        for _ in range(l - 1):
            acc = commutator(b, acc)
        return acc
    if kind == "G":
        acc = bracketed_word("BAA", q)
        for _ in range(k):
            acc = commutator(br_ba, acc)
        return commutator(b, acc)
    raise ValueError("unknown beta kind %r" % kind)


def beta_closed_sides(
    kind: str, k: int, l: int = 1, q: QValue = None, derived: bool = False
) -> Tuple[NormalElement, NormalElement]:
    """The iterated-adjoint generator against its closed form.

    ``derived=False`` uses the printed formulas; for the Gamma family the
    printed formula is wrong (see KNOWN_DISCREPANCIES) and
    ``derived=True`` selects the corrected one.
    """
    _require_generic(q, "beta_closed_sides")
    lhs = beta_raw(kind, k, l, q)
    if kind == "A":
        # -(1 - q)^l (q^l - 1)^k = (-1)^(l+1) (q - 1)^l (q^l - 1)^k
        c = q_laurent(q, (((-1) ** (l + 1 + k - j) * math.comb(k, j), l * j) for j in range(k + 1)), -l)
        rhs = combo_expand([(c, AlphaBar(k, l))], q)
    elif kind == "B":
        # (q - 1)^(k+1) (1 - q^(k+1))^(l-1)
        c = q_laurent(q, (((-1) ** j * math.comb(l - 1, j), (k + 1) * j) for j in range(l)), -(k + 1))
        rhs = combo_expand([(c, BetaBar(k, l))], q)
    elif kind == "G":
        # front (q - 1)^(k+1) {j}_q = front (q - 1)^k (q^j - 1); derived: front
        # q^-(k+1), j = k+1, k+2; printed: front q^-k, j = k (times q) and k+1
        if derived:
            c1, c2 = _q_minus(q, 0, -(k + 1), -k), _q_minus(q, 1, -(k + 1), -k)
        else:
            c1, c2 = _q_minus(q, 1, 1 - k, -k), _q_minus(q, 1, -k, -k)
        rhs = lincomb([(c1, comm_power(k + 1, q)), (-c2, comm_power(k + 2, q))], q)
    else:
        raise ValueError("unknown beta kind %r" % kind)
    return lhs, rhs


def beta_gamma_sum_sides(
    k: int, q: QValue, derived: bool = False
) -> Tuple[NormalElement, NormalElement]:
    """The telescoped Gamma identity.

    printed: q^k sum_i (q-1)^-(i+1) beta_G(i) = -{k+1}_q [A,B]^(k+2)
    derived: sum_i q^(i+1) (q-1)^-(i+1) beta_G(i)
             = -<BA> - {k+2}_q [A,B]^(k+2)
    """
    _require_generic(q, "beta_gamma_sum_sides")
    lhs = lincomb((
        (q_laurent(q, [(1, i + 1 if derived else k)], i + 1), beta_raw("G", i, 1, q))
        for i in range(k + 1)
    ), q)
    if derived:
        rhs = -bracketed_word("BA", q) - comm_power(k + 2, q).scale(_q_run(q, 0, k + 2))
    else:
        rhs = comm_power(k + 2, q).scale(_q_run(q, 0, k + 1, -1))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Table 1 and the commutation propositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CiCoefficient:
    """The scalar c_i(k,l,m,n) of the Abar/Bbar cross-commutator.

    c_i = (-1)^(n-i) (n i)_q (q^e1 - q^e2) with
    e1 = (l-n)(i+m+1) + C(i+1,2) and e2 = -n(k+m) - n(n+3)/2 + C(n-i,2);
    n(n+3) is even for every integer n, so e2 is an integer.  ``value``
    is the coefficient c_i (q-1)^-n that ``bigcomrel_rhs`` puts on the
    i-th basis vector, built by ``q_laurent`` from the Gaussian polynomial
    (n i)_q in one step.
    """

    k: int
    l: int
    m: int
    n: int
    i: int

    @property
    def e1(self) -> int:
        return (self.l - self.n) * (self.i + self.m + 1) + binom2(self.i + 1)

    @property
    def e2(self) -> int:
        half = self.n * (self.n + 3)
        if half % 2:
            raise AssertionError("n(n+3) must be even")
        return -self.n * (self.k + self.m) - half // 2 + binom2(self.n - self.i)

    def value(self, q: QValue) -> RationalFunction:
        n, i, s = self.n, self.i, (-1) ** (self.n - self.i)
        return q_laurent(q, gauss_terms(n, i, self.e1, s) + gauss_terms(n, i, self.e2, -s), n)


def bigcomrel_rhs(k: int, l: int, m: int, n: int, q: QValue) -> NormalElement:
    """Printed right side of [Abar(k,l), Bbar(m,n)], by the l vs n case."""
    _require_generic(q, "bigcomrel_rhs")
    if l > n:
        pairs = [
            (CiCoefficient(k, l, m, n, i).value(q), AlphaBar(i + k + m + 1, l - n))
            for i in range(n + 1)
        ]
    elif l < n:
        pairs = [
            (CiCoefficient(m, n, k, l, i).value(q), BetaBar(i + k + m + 1, n - l))
            for i in range(l + 1)
        ]
    else:
        pairs = [
            (CiCoefficient(k, l, m, l, i).value(q), GammaBar(i + k + m))
            for i in range(l + 1)
        ]
    return combo_expand(pairs, q)


def bigcomrel_sides(k: int, l: int, m: int, n: int, q: QValue):
    lhs = commutator(
        expand_gen_basis(AlphaBar(k, l), q), expand_gen_basis(BetaBar(m, n), q)
    )
    return lhs, bigcomrel_rhs(k, l, m, n, q)


def table1_rhs(
    row: GenBasisVector, col: GenBasisVector, q: QValue, derived: bool = False
) -> NormalElement:
    """Closed form of [row, col] for a printed cell of the commutation table.

    ``derived=True`` substitutes the corrected formulas for the three
    printed cells that fail (see KNOWN_DISCREPANCIES).
    """

    def combo(*pairs):
        return combo_expand(list(pairs), q)

    if isinstance(row, AlphaBar):
        k, l = row.k, row.l
        if isinstance(col, AlphaBar):
            m, n = col.k, col.l
            return combo(
                (_q_minus(q, l * (m + 1), n * (k + 1)), AlphaBar(k + m + 1, l + n))
            )
        if isinstance(col, GenA):
            if derived:
                return combo((_q_minus(q, 0, k + 1), AlphaBar(k, l + 1)))
            return combo((_q_minus(q, 0, 1), AlphaBar(k, l + 1)))
        if isinstance(col, BrBA):
            return combo((_q_minus(q, 0, l), AlphaBar(k + 1, l)))
        if isinstance(col, GammaBar):
            m = col.k
            return combo((_q_minus(q, l * (m + 2), 0), AlphaBar(k + m + 2, l)))
        if isinstance(col, GenB):
            if l == 1 and k == 0:
                return combo(
                    (_q_run(q, -1, 1), GammaBar(0)),
                    (q.power(-1), BrBA()),
                )
            if l == 1:
                return combo(
                    (_q_run(q, -(k + 1), 1), GammaBar(k)),
                    (_q_run(q, -(k + 1), 0, -1), GammaBar(k - 1)),
                )
            if derived:
                return combo(
                    (_q_run(q, -(k + 1), l), AlphaBar(k + 1, l - 1)),
                    (_q_run(q, -(k + 1), 0, -1), AlphaBar(k, l - 1)),
                )
            # (1 - q^-(k+2)) {l}_q
            return combo(
                (q_laurent(q, [(1, j) for j in range(l)] + [(-1, j - k - 2) for j in range(l)]),
                 AlphaBar(k + 2, l - 1))
            )
        if isinstance(col, BetaBar):
            return bigcomrel_rhs(k, l, col.k, col.l, q)
    if isinstance(row, GenA):
        if isinstance(col, GenA):
            return NormalElement.zero(q)
        if isinstance(col, BrBA):
            return combo((_q_minus(q, 0, 1), AlphaBar(0, 1)))
        if isinstance(col, GammaBar):
            m = col.k
            return combo((_q_minus(q, m + 2, 0), AlphaBar(m + 1, 1)))
        if isinstance(col, GenB):
            return combo((-RF_ONE, BrBA()))
        if isinstance(col, BetaBar):
            m, n = col.k, col.l
            if n == 1 and m == 0:
                return combo(
                    (_q_run(q, -1, 1), GammaBar(0)),
                    (q.power(-1), BrBA()),
                )
            if n == 1:
                return combo(
                    (_q_run(q, -(m + 1), 1), GammaBar(m)),
                    (_q_run(q, -(m + 1), 0, -1), GammaBar(m - 1)),
                )
            if derived:
                return combo(
                    (_q_run(q, -(m + 1), n), BetaBar(m + 1, n - 1)),
                    (_q_run(q, -(m + 1), 0, -1), BetaBar(m, n - 1)),
                )
            return combo(
                (_q_run(q, -(m + 2), n), BetaBar(m + 2, n - 1)),
                (_q_run(q, -(m + 2), 0, -1), BetaBar(m + 1, n - 1)),
            )
    if isinstance(row, BrBA):
        if isinstance(col, (BrBA, GammaBar)):
            return NormalElement.zero(q)
        if isinstance(col, GenB):
            return combo((_q_minus(q, 0, 1), BetaBar(0, 1)))
        if isinstance(col, BetaBar):
            return combo((_q_minus(q, 0, col.l), BetaBar(col.k + 1, col.l)))
    if isinstance(row, GammaBar):
        k = row.k
        if isinstance(col, GammaBar):
            return NormalElement.zero(q)
        if isinstance(col, GenB):
            return combo((_q_minus(q, k + 2, 0), BetaBar(k + 1, 1)))
        if isinstance(col, BetaBar):
            m, n = col.k, col.l
            return combo((_q_minus(q, n * (k + 2), 0), BetaBar(k + m + 2, n)))
    if isinstance(row, GenB):
        if isinstance(col, GenB):
            return NormalElement.zero(q)
        if isinstance(col, BetaBar):
            m, n = col.k, col.l
            return combo((_q_minus(q, 0, m + 1), BetaBar(m, n + 1)))
    if isinstance(row, BetaBar):
        if isinstance(col, BetaBar):
            k, l, m, n = row.k, row.l, col.k, col.l
            return combo(
                (_q_minus(q, n * (k + 1), l * (m + 1)), BetaBar(k + m + 1, l + n))
            )
    raise ValueError("not a printed cell: [%s, %s]" % (row.render(), col.render()))


def table1_sides(row, col, q: QValue, derived: bool = False):
    lhs = commutator(expand_gen_basis(row, q), expand_gen_basis(col, q))
    return lhs, table1_rhs(row, col, q, derived)


def table1_cells(bound: int):
    """All printed cells of the commutation table with indices <= bound.

    Yields (name, row, col) with rows/cols in the table's order; blank
    cells (determined by antisymmetry) are skipped.
    """
    kl = [(k, l) for k in range(bound + 1) for l in range(1, bound + 1)]
    ks = list(range(bound + 1))
    order: List[Tuple[str, List[GenBasisVector]]] = [
        ("Abar", [AlphaBar(k, l) for k, l in kl]),
        ("A", [GenA()]),
        ("BrBA", [BrBA()]),
        ("Gbar", [GammaBar(k) for k in ks]),
        ("B", [GenB()]),
        ("Bbar", [BetaBar(k, l) for k, l in kl]),
    ]
    for i, (rname, rvecs) in enumerate(order):
        for cname, cvecs in order[i:]:
            for rv in rvecs:
                for cv in cvecs:
                    yield ("%s|%s" % (rname, cname), rv, cv)


# ---------------------------------------------------------------------------
# Table 2: L(q) as a Lie ideal
# ---------------------------------------------------------------------------


def table2_sides(row: Tuple[str, int], col: GenBasisVector, q: QValue):
    """One cell of the Lie-ideal table.

    ``row`` is ("A", n) for A^n or ("B", m) for B^m, with the exponent at
    least 2.  Returns (kind, lhs, rhs_or_None): kind is "closed" when the
    table prints a scalar cell, "derived" for the re-derived (A^n, Abar)
    cell whose printed index is unbound, and "membership" for the two
    cells the table resolves by the ideal lemma.
    """
    letter, e = row
    if e < 2:
        raise ValueError("table 2 rows need exponent >= 2")
    x = (
        NormalElement.monomial(0, e, q)
        if letter == "A"
        else NormalElement.monomial(e, 0, q)
    )
    lhs = commutator(x, expand_gen_basis(col, q))

    def combo(*pairs):
        return combo_expand(list(pairs), q)

    if letter == "A":
        n = e
        if isinstance(col, BrBA):
            return "closed", lhs, combo((_q_minus(q, 0, n), AlphaBar(0, n)))
        if isinstance(col, AlphaBar):
            # printed cell carries an unbound index; re-derived closed form
            return (
                "derived",
                lhs,
                combo((_q_minus(q, n * (col.k + 1), 0), AlphaBar(col.k, col.l + n))),
            )
        if isinstance(col, BetaBar):
            return "membership", lhs, None
        if isinstance(col, GammaBar):
            return "closed", lhs, combo(
                (_q_minus(q, n * (col.k + 2), 0), AlphaBar(col.k + 1, n))
            )
    else:
        m = e
        if isinstance(col, BrBA):
            return "closed", lhs, combo((_q_minus(q, m, 0), BetaBar(0, m)))
        if isinstance(col, AlphaBar):
            return "membership", lhs, None
        if isinstance(col, BetaBar):
            return "closed", lhs, combo(
                (_q_minus(q, 0, m * (col.k + 1)), BetaBar(col.k, col.l + m))
            )
        if isinstance(col, GammaBar):
            return "closed", lhs, combo(
                (_q_minus(q, 0, m * (col.k + 2)), BetaBar(col.k + 1, m))
            )
    raise ValueError("not a table-2 cell")


# ---------------------------------------------------------------------------
# nilpotency of the quotient (generic q)
# ---------------------------------------------------------------------------


def nilpotent_generic_case(m: int, n: int, q: QValue):
    """Membership and span-support of [B^m, A^n] per the final case split.

    Returns (member, support_ok, coords).  Allowed supports:
    m > n: <BA> and Bbar(., m-n); m < n: Abar(., n-m); m = n: <BA>, Gbar.
    """
    if m < 2 or n < 2:
        raise ValueError("nilpotency cases need m, n >= 2")
    x = commutator(
        NormalElement.monomial(m, 0, q), NormalElement.monomial(0, n, q)
    )
    member = membership_generic(x)
    coords = gen_basis_coords(x)

    def allowed(vec) -> bool:
        if m > n:
            return isinstance(vec, BrBA) or (
                isinstance(vec, BetaBar) and vec.l == m - n
            )
        if m < n:
            return isinstance(vec, AlphaBar) and vec.l == n - m
        return isinstance(vec, (BrBA, GammaBar))

    support_ok = all(allowed(v) for v, c in coords.items() if not c.is_zero())
    return member, support_ok, coords


# ---------------------------------------------------------------------------
# exact rank computations (independence checks)
# ---------------------------------------------------------------------------


def matrix_rank(rows: List[Dict]) -> int:
    """Rank of a list of sparse rows over the exact coefficient field."""
    pivots: List[Tuple[object, Dict]] = []
    rank = 0
    for row in rows:
        row = add_terms({}, row.items())
        for key, prow in pivots:
            c = row.get(key)
            if c:
                add_terms(row, ((k2, -c * v2) for k2, v2 in prow.items()))
        if not row:
            continue
        key = min(row, key=repr)
        lead = row[key]
        row = {k: v / lead for k, v in row.items()}
        pivots.append((key, row))
        rank += 1
    return rank


def generic_basis_vectors(bound: int, q: QValue) -> List[Tuple[BasisKey, NormalElement]]:
    """All claimed H(q) basis vectors whose PBW support fits m, n <= bound."""
    out: List[Tuple[BasisKey, NormalElement]] = [(Unit(), NormalElement.one(q))]
    for k in range(1, bound + 1):
        out.append((PowerA(k) if k >= 2 else GenA(), NormalElement.monomial(0, k, q)))
    for l in range(1, bound + 1):
        out.append((PowerB(l) if l >= 2 else GenB(), NormalElement.monomial(l, 0, q)))
    out.append((BrBA(), expand_gen_basis(BrBA(), q)))
    for k in range(bound - 1):
        out.append((GammaBar(k), expand_gen_basis(GammaBar(k), q)))
    for k in range(bound):
        for l in range(1, bound + 1):
            if k + 1 + l <= bound:
                out.append((AlphaBar(k, l), expand_gen_basis(AlphaBar(k, l), q)))
                out.append((BetaBar(k, l), expand_gen_basis(BetaBar(k, l), q)))
    return out


def independence_counts(q_mode: str, degree_bound: int, q: QValue = None):
    """(vectors, rank) of the claimed basis restricted to the support box;
    equal when the basis has full row rank there."""
    if q_mode == "generic":
        if q is None:
            q = QValue()
        _require_generic(q, "independence_counts")
        vecs = generic_basis_vectors(degree_bound, q)
    elif q_mode == "zero":
        q = QValue.rational(0)
        vecs = zero_basis_vectors(degree_bound, extended=False)
    elif q_mode == "zero-extended":
        q = QValue.rational(0)
        vecs = zero_basis_vectors(degree_bound, extended=True)
    else:
        raise ValueError("q_mode must be generic, zero, or zero-extended")
    rows = [dict(x.terms) for _, x in vecs]
    return len(rows), matrix_rank(rows)


# ---------------------------------------------------------------------------
# q = 0: the bracketed-word basis and the Lie ideal checks
# ---------------------------------------------------------------------------

Q_ZERO = QValue.rational(0)


@dataclass(frozen=True)
class BrMN:
    """The bracketed word <B^m A^n> (m, n >= 1) at q = 0."""

    m: int
    n: int

    def render(self) -> str:
        return "<B^%d A^%d>" % (self.m, self.n)


def _require_zero(q: QValue, what: str) -> None:
    if not q.is_zero:
        raise DegenerateQError("%s requires q = 0, got q = %s" % (what, q))


@lru_cache(maxsize=None)
def brmn_closed(m: int, n: int) -> NormalElement:
    """PBW expansion of <B^m A^n> at q = 0.

    For m <= n this is the printed binomial form
    sum_i (-1)^i C(h,i) B^(m-i) A^(n-i), h = min(m, n).  For m > n the
    printed form is wrong (see KNOWN_DISCREPANCIES); the correct
    expansion, proved by induction with ad B, is
    sum_{i<n} (-1)^i C(m,i) B^(m-i) A^(n-i) + (-1)^n C(m-1,n-1) B^(m-n).
    Verified against the bracketing pipeline in the test suite.
    """
    if m < 1 or n < 1:
        raise ValueError("brmn_closed needs m, n >= 1")
    h = min(m, n)
    terms = {(m - i, n - i): RationalFunction.from_int((-1) ** i * math.comb(m, i)) for i in range(h)}
    tail = math.comb(m - 1, n - 1) if m > n else 1
    terms[(m - h, n - h)] = RationalFunction.from_int((-1) ** h * tail)
    return NormalElement(Q_ZERO, terms, _raw=True)


def brmn_printed(m: int, n: int) -> NormalElement:
    """The printed binomial form of <B^m A^n>; fails for m > n >= 2."""
    if m < 1 or n < 1:
        raise ValueError("brmn_printed needs m, n >= 1")
    h = min(m, n)
    terms = {(m - i, n - i): RationalFunction.from_int((-1) ** i * math.comb(h, i)) for i in range(h + 1)}
    return NormalElement(Q_ZERO, terms, _raw=True)


def zero_basis_coords(x: NormalElement) -> Dict[object, RationalFunction]:
    """Coordinates of x in the extended q = 0 basis
    {I, A, B, B^2 A^j, B^i A^2 (i, j >= 4), <B^m A^n> (m, n >= 1)}.

    Triangular solve: mixed PBW keys are cleared top-down through the
    closed bracketed-word expansions, then pure powers are rewritten via
    A^n = B^2 A^(n+2) - <B^2 A^(n+2)> - 2<B A^(n+1)> and its mirror.  With
    constant coefficients it runs on a copy of x's packed ints, else on Q(q).
    """
    _require_zero(x.q, "zero_basis_coords")
    cx = _codec(x)
    rem = dict(_packed_terms(x, cx[0]) if cx else x.terms)
    coords: Dict = {}  # ints or RationalFunctions, as rem; neither holds a 0
    while True:
        mixed = [k for k in rem if k[0] >= 1 and k[1] >= 1]
        if not mixed:
            break
        m, n = max(mixed, key=lambda k: (k[0] + k[1], k))
        c = rem[(m, n)]
        add_terms(coords, ((BrMN(m, n), c),))
        add_terms(rem, ((key, -c * v) for key, v in _packed_terms(brmn_closed(m, n), 1).items()))
    for (m, n), c in sorted(rem.items()):
        if (m, n) == (0, 0):
            terms = ((Unit(), c),)
        elif (m, n) == (0, 1):
            terms = ((GenA(), c),)
        elif (m, n) == (1, 0):
            terms = ((GenB(), c),)
        elif m == 0 and n >= 2:
            # A^n = B^2 A^(n+2) - <B^2 A^(n+2)> - 2 <B A^(n+1)>; PowerA(n)
            # stands for B^2 A^(n+2) after the basis swap
            terms = ((PowerA(n), c), (BrMN(2, n + 2), -c), (BrMN(1, n + 1), -c - c))
        elif n == 0 and m >= 2:
            # B^m = B^(m+2) A^2 - <B^(m+2) A^2> - (m+2) <B^(m+1) A>; PowerB(m)
            # stands for B^(m+2) A^2 after the basis swap
            terms = ((PowerB(m), c), (BrMN(m + 2, 2), -c), (BrMN(m + 1, 1), c * -(m + 2)))
        else:
            raise AssertionError("unexpected residual key %r" % ((m, n),))
        add_terms(coords, terms)
    return _decode(coords, None, cx[0]) if cx else coords


def membership_zero(x: NormalElement) -> bool:
    """Whether x lies in L(0) = span{A, B, <B^m A^n>}."""
    coords = zero_basis_coords(x)
    return not any(isinstance(k, (Unit, PowerA, PowerB)) for k in coords)


def zero_basis_vectors(bound: int, extended: bool) -> List[Tuple[object, NormalElement]]:
    """Basis vectors of H(0) with support inside the box m, n <= bound.

    ``extended=False`` gives {I, A^n, B^m, <B^m A^n>}; ``extended=True``
    swaps the pure powers of degree >= 2 for B^2 A^j / B^i A^2 (i, j >= 4).
    """
    out: List[Tuple[object, NormalElement]] = [(Unit(), NormalElement.one(Q_ZERO))]
    if extended:
        out.append((GenA(), NormalElement.monomial(0, 1, Q_ZERO)))
        out.append((GenB(), NormalElement.monomial(1, 0, Q_ZERO)))
        for j in range(4, bound + 1):
            out.append(("B2A%d" % j, NormalElement.monomial(2, j, Q_ZERO)))
            out.append(("B%dA2" % j, NormalElement.monomial(j, 2, Q_ZERO)))
    else:
        for n in range(1, bound + 1):
            out.append((PowerA(n) if n >= 2 else GenA(), NormalElement.monomial(0, n, Q_ZERO)))
        for m in range(1, bound + 1):
            out.append((PowerB(m) if m >= 2 else GenB(), NormalElement.monomial(m, 0, Q_ZERO)))
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            out.append((BrMN(m, n), brmn_closed(m, n)))
    return out


# -- the q = 0 identity families -------------------------------------------


def fer_sides(n: int, m: int) -> Tuple[NormalElement, NormalElement]:
    """A^n B^m at q = 0 collapses to a pure power."""
    if n < 1 or m < 1:
        raise ValueError("fer identity needs m, n >= 1")
    lhs = nf_word("A" * n + "B" * m, Q_ZERO)
    if n >= m:
        rhs = NormalElement.monomial(0, n - m, Q_ZERO)
    else:
        rhs = NormalElement.monomial(m - n, 0, Q_ZERO)
    return lhs, rhs


def fer2_sides(m: int, n: int, derived: bool = False):
    """[<BA>, <B^m A^n>] at q = 0 against the three-case closed form.

    The printed form is -<B^(m-n+1) A> / 0 / <B A^(n-m+1)>.  The actual
    value carries the scalar in front of the pure-power term of
    <B^m A^n>: (-1)^(n+1) C(m-1,n-1) for n < m and (-1)^m for n > m
    (see KNOWN_DISCREPANCIES).
    """
    if m < 1 or n < 1:
        raise ValueError("fer2 needs m, n >= 1")
    lhs = commutator(bracketed_word("BA", Q_ZERO), bracketed_word("B" * m + "A" * n, Q_ZERO))
    if n < m:
        c = (-1) ** (n + 1) * math.comb(m - 1, n - 1) if derived else -1
        rhs = bracketed_word("B" * (m - n + 1) + "A", Q_ZERO).scale(
            RationalFunction.from_int(c)
        )
    elif n == m:
        rhs = NormalElement.zero(Q_ZERO)
    else:
        rhs = bracketed_word("B" + "A" * (n - m + 1), Q_ZERO).scale(
            RationalFunction.from_int((-1) ** m if derived else 1)
        )
    return lhs, rhs


def notanbm_sides(which: int, idx: int, derived: bool = False):
    """The two pure-power elimination identities (index >= 4).

    The first is printed correctly; the second's printed coefficient 2 is
    actually the index m itself (see KNOWN_DISCREPANCIES).
    """
    if idx < 4:
        raise ValueError("identity stated for indices >= 4")
    two = RationalFunction.from_int(2)
    if which == 1:
        lhs = NormalElement.monomial(2, idx, Q_ZERO) - NormalElement.monomial(0, idx - 2, Q_ZERO)
        rhs = bracketed_word("BB" + "A" * idx, Q_ZERO) + bracketed_word(
            "B" + "A" * (idx - 1), Q_ZERO
        ).scale(two)
    elif which == 2:
        c = RationalFunction.from_int(idx) if derived else two
        lhs = NormalElement.monomial(idx, 2, Q_ZERO) - NormalElement.monomial(idx - 2, 0, Q_ZERO)
        rhs = bracketed_word("B" * idx + "AA", Q_ZERO) + bracketed_word(
            "B" * (idx - 1) + "A", Q_ZERO
        ).scale(c)
    else:
        raise ValueError("which must be 1 or 2")
    return lhs, rhs


def idlem_sides(eqno: int, idx: int, idx2: int = 0, derived: bool = False):
    """Lemma of bracket identities at q = 0, equations 1..5 (indices >= 4).

    Equations 2 and 5 hold as printed.  The derived forms of 1, 3, 4 are
    [B, B^2 A^k]   = <B^3 A^k> + 2<B^2 A^(k-1)> + <B A^(k-2)>
    [B^i A^2, A]   = <B^i A^3> + (i-1)<B^(i-1) A^2> + C(i-1,2)<B^(i-2) A>
    [B, B^l A^2]   = <B^(l+1) A^2> + l <B^l A>
    (see KNOWN_DISCREPANCIES).
    """
    if idx < 4 or (eqno == 5 and idx2 < 4):
        raise ValueError("identities stated for indices >= 4")
    b = NormalElement.monomial(1, 0, Q_ZERO)
    a = NormalElement.monomial(0, 1, Q_ZERO)
    br = lambda w: bracketed_word(w, Q_ZERO)
    rf = RationalFunction.from_int
    if eqno == 1:
        k = idx
        lhs = commutator(b, NormalElement.monomial(2, k, Q_ZERO))
        tail = br("B" + "A" * (k - 2))
        rhs = br("BBB" + "A" * k) + br("BB" + "A" * (k - 1)).scale(rf(2)) + (
            tail if derived else tail.scale(rf(-3))
        )
    elif eqno == 2:
        k = idx
        lhs = commutator(NormalElement.monomial(2, k, Q_ZERO), a)
        rhs = br("BB" + "A" * (k + 1)) + br("B" + "A" * k)
    elif eqno == 3:
        i = idx
        lhs = commutator(NormalElement.monomial(i, 2, Q_ZERO), a)
        mid = rf(i - 1) if derived else rf(2)
        tail = rf(math.comb(i - 1, 2)) if derived else rf(-3)
        rhs = (
            br("B" * i + "AAA")
            + br("B" * (i - 1) + "AA").scale(mid)
            + br("B" * (i - 2) + "A").scale(tail)
        )
    elif eqno == 4:
        l = idx
        lhs = commutator(b, NormalElement.monomial(l, 2, Q_ZERO))
        mid = rf(l) if derived else rf(1)
        rhs = br("B" * (l + 1) + "AA") + br("B" * l + "A").scale(mid)
    elif eqno == 5:
        i, l = idx, idx2
        lhs = commutator(
            NormalElement.monomial(i, 2, Q_ZERO), NormalElement.monomial(l, 2, Q_ZERO)
        )
        rhs = NormalElement.zero(Q_ZERO)
    else:
        raise ValueError("eqno must be 1..5")
    return lhs, rhs


def idlem5b_sides(j: int, k: int):
    """[B^2 A^j, B^2 A^k] = 0 at q = 0 (j, k >= 4)."""
    if j < 4 or k < 4:
        raise ValueError("identity stated for indices >= 4")
    lhs = commutator(
        NormalElement.monomial(2, j, Q_ZERO), NormalElement.monomial(2, k, Q_ZERO)
    )
    return lhs, NormalElement.zero(Q_ZERO)


def f_r(r: int) -> NormalElement:
    """f_r = B^r A^r - I at q = 0."""
    if r < 1:
        raise ValueError("f_r needs r >= 1")
    return NormalElement.monomial(r, r, Q_ZERO) - NormalElement.one(Q_ZERO)


def sandwiched_f_r(x: int, r: int, y: int) -> NormalElement:
    """B^x f_r A^y at q = 0."""
    return (
        NormalElement.monomial(x, 0, Q_ZERO)
        * f_r(r)
        * NormalElement.monomial(0, y, Q_ZERO)
    )


def bia2_b2ak_sides(i: int, k: int):
    """[B^i A^2, B^2 A^k] at q = 0 against the two-case closed form."""
    if i < 4 or k < 4:
        raise ValueError("identity stated for i, k >= 4")
    lhs = commutator(
        NormalElement.monomial(i, 2, Q_ZERO), NormalElement.monomial(2, k, Q_ZERO)
    )
    if i >= k:
        rhs = (
            NormalElement.monomial(i - k + 2, 0, Q_ZERO)
            * (NormalElement.monomial(k - 2, k - 2, Q_ZERO) - NormalElement.one(Q_ZERO))
            * NormalElement.monomial(0, 2, Q_ZERO)
        )
    else:
        rhs = (
            NormalElement.monomial(2, 0, Q_ZERO)
            * (NormalElement.monomial(i - 2, i - 2, Q_ZERO) - NormalElement.one(Q_ZERO))
            * NormalElement.monomial(0, k - i + 2, Q_ZERO)
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry of printed formulas that fail verification
# ---------------------------------------------------------------------------

KNOWN_DISCREPANCIES = {
    "table1:Abar-A": (
        "printed [Abar(k,l), A] = (1-q) Abar(k,l+1) only holds at k = 0; "
        "derived: (1-q^(k+1)) Abar(k,l+1)"
    ),
    "comrelAB1": (
        "printed [Abar(k,l), B] = (1-q^-(k+2)) {l}_q Abar(k+2,l-1) fails for "
        "every l >= 2; derived: q^-(k+1) ({k+l+1}_q Abar(k+1,l-1) "
        "- {k+1}_q Abar(k,l-1))"
    ),
    "comrelAB4": (
        "printed [A, Bbar(m,n)] has all indices shifted by one for n >= 2; "
        "derived: q^-(m+1) ({m+n+1}_q Bbar(m+1,n-1) - {m+1}_q Bbar(m,n-1))"
    ),
    "baseGrel": (
        "printed beta_G(k) = q^-k (q-1)^(k+1) (q {k}_q C^(k+1) - {k+1}_q C^(k+2)) "
        "fails for every k; derived: q^-(k+1) (q-1)^(k+1) ({k+1}_q C^(k+1) "
        "- {k+2}_q C^(k+2))"
    ),
    "baseGrel2": (
        "printed telescoped sum q^k sum_i (q-1)^-(i+1) beta_G(i) = -{k+1}_q C^(k+2) "
        "is consistent with the printed baseGrel but not with the actual "
        "beta_G; derived: sum_i q^(i+1) (q-1)^-(i+1) beta_G(i) = "
        "-<BA> - {k+2}_q C^(k+2)"
    ),
    "BmAnEQ": (
        "the printed expansion <B^m A^n> = sum_i (-1)^i C(h,i) B^(m-i) A^(n-i) "
        "(h = min(m,n)) fails for m > n >= 2; derived (by induction with ad B): "
        "sum_{i<n} (-1)^i C(m,i) B^(m-i) A^(n-i) + (-1)^n C(m-1,n-1) B^(m-n)"
    ),
    "fer2AnBm": (
        "printed [<BA>, <B^m A^n>] = -<B^(m-n+1) A> (n<m) / <B A^(n-m+1)> (n>m) "
        "misses the scalar of the pure-power term of <B^m A^n>; derived: "
        "(-1)^(n+1) C(m-1,n-1) <B^(m-n+1) A> for n < m and "
        "(-1)^m <B A^(n-m+1)> for n > m"
    ),
    "notAnBmeq2": (
        "printed B^m A^2 - B^(m-2) = <B^m A^2> + 2<B^(m-1) A> fails for m >= 4; "
        "derived coefficient is m, not 2"
    ),
    "idLemeq1": (
        "printed [B, B^2 A^k] = <B^3 A^k> + 2<B^2 A^(k-1)> - 3<B A^(k-2)>; "
        "derived tail coefficient is +1, not -3"
    ),
    "idLemeq3": (
        "printed [B^i A^2, A] = <B^i A^3> + 2<B^(i-1) A^2> - 3<B^(i-2) A>; "
        "derived: <B^i A^3> + (i-1)<B^(i-1) A^2> + C(i-1,2)<B^(i-2) A>"
    ),
    "idLemeq4": (
        "printed [B, B^l A^2] = <B^(l+1) A^2> + <B^l A>; derived coefficient "
        "of <B^l A> is l, not 1"
    ),
    "table2:An-Abar": (
        "printed [A^n, Abar(k,l)] = (q^(n(k+1))-1) Abar(k,l+m) has an unbound "
        "index m; derived: (q^(n(k+1))-1) Abar(k,l+n)"
    ),
}
