"""The free algebra on A, B, kept in the tests as an independent reference.

`FreeElement` holds Q(q)-linear combinations of words under the
concatenation product.  With the bracket trees of regular words it is what
the tests compare the program's `<w>`, its word expansions, the rewriting
reference and `qheis eval` against; `theta` and `passes_lie_necessary` are
the classical necessary condition theta(f) = -f for a Lie polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from qheis.coeff import RF_ONE, RationalFunction, add_terms
from qheis.words import check_word, factorize, is_regular


def render_word(w: str) -> str:
    return w if w else "I"


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


# -- bracket trees -------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    letter: str

    def foliage(self) -> str:
        return self.letter

    def __str__(self):
        return self.letter


@dataclass(frozen=True)
class Bracket:
    left: "LieMonomial"
    right: "LieMonomial"

    def foliage(self) -> str:
        return self.left.foliage() + self.right.foliage()

    def __str__(self):
        return "[%s,%s]" % (self.left, self.right)


LieMonomial = Union[Leaf, Bracket]


def bracketing(w: str) -> LieMonomial:
    """The nonassociative regular word: bracket at the canonical split."""
    if not w or not is_regular(w):
        raise ValueError("bracketing needs a regular word, got %r" % w)
    if len(w) == 1:
        return Leaf(w)
    g, h = factorize(w)
    return Bracket(bracketing(g), bracketing(h))


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
