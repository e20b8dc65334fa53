"""Test-only readers and evaluators that the program itself never calls:
a report read back from its JSON, a coefficient specialized at a rational q,
a free-algebra element built from (word, coefficient) pairs, and, kept as
references, the chains of Q(q) operations that built the closed-form scalars
before ``coeff.q_laurent``, the Gauss polynomial route to A^n B^n that
summed its powers of q[A,B] by hand before ``heis.anbn_via_gauss`` became
one ``lincomb``, the term-by-term coefficient text that ``IntPoly.render``
wrote before its memo of term strings, and the split of an element into
one element per grading part that ``qheis eval`` printed before
``NormalElement.render_parts``."""

import json
from fractions import Fraction

from qheis.coeff import (
    RF_ONE,
    RF_ZERO,
    CoefficientError,
    IntPoly,
    RationalFunction,
    _gauss_binomial_poly,
    add_terms,
    binom2,
    q_binomial,
)
from qheis.heis import NormalElement, comm_power
from qheis.reports import Entry, Report
from qheis.words import check_word
from free_algebra import FreeElement


def entry_from_dict(d: dict) -> Entry:
    return Entry(
        tuple=tuple(d["tuple"]),
        status=d["status"],
        lhs=d.get("lhs", ""),
        rhs=d.get("rhs", ""),
        residual=d.get("residual", ""),
    )


def report_from_dict(d: dict) -> Report:
    return Report(
        suite=d["suite"],
        q=d["q"],
        bounds={k: int(v) for k, v in d["bounds"].items()},
        entries=[entry_from_dict(e) for e in d["entries"]],
    )


def report_from_json(text: str) -> Report:
    return report_from_dict(json.loads(text))


def evaluate(p: IntPoly, x: Fraction) -> Fraction:
    """The polynomial p at q = x, by Horner."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def specialize(f: RationalFunction, q0) -> Fraction:
    """The evaluation homomorphism at q = q0 (an exact rational)."""
    q0 = Fraction(q0)
    d = evaluate(f.den, q0)
    if d == 0:
        raise CoefficientError("denominator (%s) vanishes at q = %s" % (f.den.render(), q0))
    return evaluate(f.num, q0) / d


def free_from_terms(pairs) -> FreeElement:
    """The sum of c w over the (word, c) pairs."""
    return FreeElement(add_terms({}, ((check_word(w), c) for w, c in pairs)), _raw=True)


def horner_q_binomial(n: int, i: int, z: RationalFunction) -> RationalFunction:
    """(n choose i)_z by Horner over Q(q) on the Gaussian polynomial."""
    if i < 0 or i > n:
        raise CoefficientError("q_binomial needs 0 <= i <= n, got i=%d n=%d" % (i, n))
    acc = RF_ZERO
    for c in reversed(_gauss_binomial_poly(n, i).coeffs):
        acc = acc * z + RationalFunction.from_int(c)
    return acc


def field_q_laurent(q, terms, b: int = 0) -> RationalFunction:
    """The sum of c q^e over the (c, e) pairs, times (q - 1)^-b, by the Q(q)
    operations the closed forms used before ``q_laurent``: ``QValue.power``
    for each q^e and a power of q - 1, inverted for b > 0."""
    total = RF_ZERO
    for c, e in terms:
        total = total + RationalFunction.from_int(c) * q.power(e)
    return total * (q.scalar() - RF_ONE) ** (-b)


def field_ci_value(ci, q) -> RationalFunction:
    """c_i (q - 1)^-n of a ``lie.CiCoefficient`` by the Q(q) chain it
    replaced: a Horner q-binomial times q^e1 - q^e2, then the front of
    ``bigcomrel_rhs``."""
    front = (q.scalar() - RF_ONE) ** (-ci.n)
    v = horner_q_binomial(ci.n, ci.i, q.scalar()) * (q.power(ci.e1) - q.power(ci.e2))
    return (-v if (ci.n - ci.i) % 2 else v) * front


def gauss_polynomial(n: int, x, z: RationalFunction):
    """Gauss polynomial G_n(x; z) = sum (-1)^(n-i) z^C(n-i,2) (n i)_z x^i,
    for an algebra element x (x**0 the identity) with ``+`` and ``scale``."""
    total = None
    for i in range(n + 1):
        c = q_binomial(n, i, z) * z ** binom2(n - i)
        term = (x**i).scale(-c if (n - i) % 2 else c)
        total = term if total is None else total + term
    return total


def gauss_route_anbn(n: int, q):
    """A^n B^n as q^C(n,2) (q-1)^-n G_n(q[A,B]; q^-1), by powers of q[A,B]
    scaled and added one at a time."""
    z = q.scalar()
    g = gauss_polynomial(n, comm_power(1, q).scale(z), z.inv())
    return g.scale(z ** binom2(n) * (z - RF_ONE) ** (-n))


def render_poly(p: IntPoly) -> str:
    """The text of p, term by term, lowest degree first: "1 - 2*q + q^3"."""
    if not p.coeffs:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else "%d*" % abs(c)
            body = "%s%s" % (head, "q" if i == 1 else "q^%d" % i)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def render_rational(f: RationalFunction) -> str:
    """The text of f by ``render_poly``: num/den, each side parenthesized
    where it has more than one term, and the numerator alone over 1."""
    num = render_poly(f.num)
    if f.den.coeffs == (1,):
        return num
    den = render_poly(f.den)
    if len(f.num.coeffs) - f.num.coeffs.count(0) > 1:
        num = "(%s)" % num
    if len(f.den.coeffs) - f.den.coeffs.count(0) > 1:
        den = "(%s)" % den
    return "%s/%s" % (num, den)


def grade(x: NormalElement) -> dict:
    """Decomposition by the Z-grading d = m - n: {d: part}, d ascending."""
    buckets = {}
    for (m, n), c in x.terms.items():
        buckets.setdefault(m - n, {})[(m, n)] = c
    return {d: NormalElement(x.q, t, _raw=True) for d, t in sorted(buckets.items())}
