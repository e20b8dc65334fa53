"""Words over the two-letter alphabet {A, B} and their combinatorics.

Words are plain Python strings ("" is the identity I).  The ordering is
A < B, and a word is *regular* when it beats every proper rotation in the
concatenation order; this is the cyclically-maximal convention, matching
the bracketing rules used throughout the rest of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple, Union

ALPHABET = ("A", "B")


def check_word(w: str) -> str:
    if any(c not in ("A", "B") for c in w):
        raise ValueError("word may contain only A and B: %r" % w)
    return w


def render_word(w: str) -> str:
    return w if w else "I"


def triangle_less(v: str, w: str) -> bool:
    """The concatenation order: holds when vw comes after wv."""
    if not v or not w:
        raise ValueError("triangle_less needs nonempty words")
    return v + w > w + v


def is_regular(w: str) -> bool:
    """A nonempty word is regular when every proper split g|h has g after h."""
    if not w:
        raise ValueError("the empty word is not compared")
    return all(triangle_less(w[:i], w[i:]) for i in range(1, len(w)))


def enumerate_regular(max_len: int) -> List[str]:
    """All regular words of length <= max_len, sorted by (length, lex)."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out: List[str] = []
    for n in range(1, max_len + 1):
        found = [
            "".join(t)
            for t in itertools.product(ALPHABET, repeat=n)
            if is_regular("".join(t))
        ]
        out.extend(sorted(found))
    return out


def factorize(w: str) -> Tuple[str, str]:
    """Split a regular word as g h with h the longest regular proper ending."""
    if len(w) < 2:
        raise ValueError("factorize needs length >= 2, got %r" % w)
    if not is_regular(w):
        raise ValueError("factorize needs a regular word, got %r" % w)
    for i in range(1, len(w)):
        if is_regular(w[i:]):
            return w[:i], w[i:]
    raise AssertionError("unreachable: single letters are regular")


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
