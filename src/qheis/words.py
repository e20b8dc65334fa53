"""Words over the two-letter alphabet {A, B} and their combinatorics.

Words are plain Python strings ("" is the identity I).  The ordering is
A < B, and a word is *regular* when it beats every proper rotation in the
concatenation order; this is the cyclically-maximal convention, matching
the bracketing rules used throughout the rest of the package.

An element of the free algebra on A, B is a plain ``{word: coefficient}``
dict with no zero values, its coefficients ints or RationalFunctions.
`bracket_expansion` expands the Lie monomial <w> of a regular word into
such a dict, and `is_lie` decides by the Dynkin-Specht-Wever criterion
whether a dict is a Lie polynomial.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from .coeff import add_terms

ALPHABET = ("A", "B")


def check_word(w: str) -> str:
    if any(c not in ("A", "B") for c in w):
        raise ValueError("word may contain only A and B: %r" % w)
    return w


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


def bracket_expansion(w: str) -> Dict[str, int]:
    """The Lie monomial <w> of a regular word w expanded into words:
    <w> = <g><h> - <h><g> at the canonical split (g, h) = factorize(w), the
    split `heis.bracketed_word` folds on the PBW basis."""
    if len(w) == 1:
        return {check_word(w): 1}
    g, h = factorize(w)
    x, y = bracket_expansion(g), bracket_expansion(h)
    xy = [(u, v, a * b) for u, a in x.items() for v, b in y.items()]
    return add_terms({}, [(u + v, c) for u, v, c in xy] + [(v + u, -c) for u, v, c in xy])


def left_normed(f: dict) -> dict:
    """r(f) for a nonzero homogeneous f of degree >= 1, r the linear map
    a1 a2 ... an -> [...[a1, a2], ..., an].  The brackets grow one letter at
    a time from the left, r(u a) = r(u) a - a r(u), and the words that have
    the same letters still to come share one partial sum."""
    todo: Dict[str, dict] = {}  # letters to come -> sum of c r(letters read)
    for w, c in f.items():
        todo.setdefault(w[1:], {})[w[0]] = c
    for _ in range(len(next(iter(f))) - 1):
        grown: Dict[str, dict] = {}
        for s, r in todo.items():
            a = s[0]
            pairs = [(u + a, c) for u, c in r.items()] + [(a + u, -c) for u, c in r.items()]
            add_terms(grown.setdefault(s[1:], {}), pairs)
        todo = grown
    return todo[""]


def is_lie(f: dict) -> bool:
    """The Dynkin-Specht-Wever criterion (Reutenauer, Free Lie Algebras,
    1993): f is a Lie polynomial exactly when its empty-word part is 0 and
    each homogeneous part f_n has r(f_n) = n f_n."""
    parts: Dict[int, dict] = {}
    for w, c in f.items():
        parts.setdefault(len(w), {})[w] = c
    return 0 not in parts and all(left_normed(p) == {w: n * c for w, c in p.items()} for n, p in parts.items())
