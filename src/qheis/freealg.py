"""The free algebra on A, B: Q(q)-linear combinations of words under the
concatenation product, commutators, Lie-monomial expansion, and the
sign-reversal anti-automorphism used as a Lie-polynomial test."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .coeff import RF_ONE, RationalFunction
from .words import Leaf, LieMonomial, check_word, render_word


def _clean(terms: Dict[str, RationalFunction]) -> Dict[str, RationalFunction]:
    return {w: c for w, c in terms.items() if not c.is_zero()}


class FreeElement:
    """Finite map word -> coefficient; equality is map equality."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[str, RationalFunction] = None, *, _raw=False):
        if terms is None:
            terms = {}
        self.terms = terms if _raw else _clean(dict(terms))

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

    @staticmethod
    def from_terms(pairs: Iterable[Tuple[str, RationalFunction]]) -> "FreeElement":
        out: Dict[str, RationalFunction] = {}
        for w, c in pairs:
            check_word(w)
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
        return FreeElement(out)

    # -- vector space ------------------------------------------------------

    def __add__(self, other: "FreeElement") -> "FreeElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return FreeElement(out, _raw=True)

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
        out: Dict[str, RationalFunction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                acc = out.get(w)
                out[w] = c if acc is None else acc + c
        return FreeElement(out)

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


FREE_A = FreeElement.word("A")
FREE_B = FreeElement.word("B")


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
    out: Dict[str, RationalFunction] = {}
    for w, c in x.terms.items():
        rw = w[::-1]
        rc = -c if len(w) % 2 else c
        acc = out.get(rw)
        out[rw] = rc if acc is None else acc + rc
    return FreeElement(out)


def passes_lie_necessary(x: FreeElement) -> bool:
    """Necessary condition for x to be a Lie polynomial: theta(x) = -x."""
    return theta(x) == -x


def scale_letters(
    x: FreeElement, a_factor: RationalFunction, b_factor: RationalFunction
) -> FreeElement:
    """Substitute A -> a_factor * A and B -> b_factor * B."""
    out: Dict[str, RationalFunction] = {}
    for w, c in x.terms.items():
        f = c * a_factor ** w.count("A") * b_factor ** w.count("B")
        if not f.is_zero():
            out[w] = f
    return FreeElement(out, _raw=True)
