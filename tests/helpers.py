"""Test-only readers and evaluators that the program itself never calls:
a report read back from its JSON, a coefficient specialized at a rational q,
and a free-algebra element built from (word, coefficient) pairs."""

import json
from fractions import Fraction

from qheis.coeff import CoefficientError, IntPoly, RationalFunction, add_terms
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
