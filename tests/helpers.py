"""Test-only readers and evaluators that the program itself never calls:
a report read back from its JSON, a coefficient specialized at a rational q,
a free-algebra element built from (word, coefficient) pairs, and the chains
of Q(q) operations that built the closed-form scalars before
``coeff.q_laurent``, kept as references."""

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
)
from qheis.freealg import FreeElement
from qheis.reports import Entry, Report
from qheis.words import check_word


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
