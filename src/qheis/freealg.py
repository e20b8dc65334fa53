"""The free algebra on A, B: Q(q)-linear combinations of words under the
concatenation product, commutators, Lie-monomial expansion, and the
sign-reversal anti-automorphism used as a Lie-polynomial test."""

from __future__ import annotations

from typing import Dict

from .coeff import RF_ONE, RationalFunction, add_terms
from .words import Leaf, LieMonomial, check_word, render_word


class FreeElement:
    """Finite map word -> coefficient; equality is map equality."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[str, RationalFunction] = None, *, _raw=False):
        if terms is None:
            terms = {}
        self.terms = terms if _raw else add_terms({}, terms.items())

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "FreeElement":
        return FreeElement({}, _raw=True)

    @staticmethod
    def one() -> "FreeElement":
        return FreeElement.word("")

    @staticmethod
    def word(w: str, coeff: RationalFunction = RF_ONE) -> "FreeElement":
        check_word(w)
        if coeff.is_zero():
            return FreeElement.zero()
        return FreeElement({w: coeff}, _raw=True)

    # -- vector space ------------------------------------------------------

    def __add__(self, other: "FreeElement") -> "FreeElement":
        return FreeElement(add_terms(dict(self.terms), other.terms.items()), _raw=True)

    def __neg__(self) -> "FreeElement":
        return FreeElement({w: -c for w, c in self.terms.items()}, _raw=True)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def scale(self, c: RationalFunction) -> "FreeElement":
        if c.is_zero():
            return FreeElement.zero()
        return FreeElement({w: x * c for w, x in self.terms.items()}, _raw=True)

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "FreeElement") -> "FreeElement":
        out = add_terms({}, ((w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()))
        return FreeElement(out, _raw=True)

    def __pow__(self, n: int) -> "FreeElement":
        if n < 0:
            raise ValueError("free algebra elements have no negative powers")
        result = FreeElement.one()
        for _ in range(n):
            result = result * self
        return result

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            cs = c.render()
            if cs == "1" and w:
                parts.append(render_word(w))
            else:
                if ("+" in cs or "- " in cs) or "/" in cs:
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, render_word(w)) if w else cs)
        return " + ".join(parts)

    def __repr__(self):
        return "FreeElement(%s)" % self.render()


def commutator(x: FreeElement, y: FreeElement) -> FreeElement:
    """[x, y] = xy - yx."""
    return x * y - y * x


def eval_monomial(m: LieMonomial) -> FreeElement:
    """Expand a bracket tree into a combination of words."""
    if isinstance(m, Leaf):
        return FreeElement.word(m.letter)
    return commutator(eval_monomial(m.left), eval_monomial(m.right))


def theta(x: FreeElement) -> FreeElement:
    """Linear extension of W -> (-1)^|W| W-reversed; an anti-automorphism."""
    out = add_terms({}, ((w[::-1], -c if len(w) % 2 else c) for w, c in x.terms.items()))
    return FreeElement(out, _raw=True)


def passes_lie_necessary(x: FreeElement) -> bool:
    """Necessary condition for x to be a Lie polynomial: theta(x) = -x."""
    return theta(x) == -x
