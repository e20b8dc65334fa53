"""The reference normal form: rewrite each word with AB -> q BA + I.

The program computes normal forms with the PBW product only; this rewriter,
a second engine that never multiplies in H(q), is what the tests compare it
with.  ``strategy`` picks which AB is contracted first, so the tests can also
probe confluence (the diamond lemma, Bergman 1978).
"""

import heapq
from functools import lru_cache
from typing import Dict

from qheis.coeff import RF_ONE, QValue, RationalFunction, add_terms
from qheis.freealg import FreeElement
from qheis.heis import MonoKey, NormalElement

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"


def _inversions(w: str) -> int:
    """Number of (A, later B) pairs; each rewrite strictly decreases it
    within a length class, so it is the termination metric."""
    a_seen = 0
    inv = 0
    for ch in w:
        if ch == "A":
            a_seen += 1
        else:
            inv += a_seen
    return inv


@lru_cache(maxsize=None)
def _word_normal_form(word: str, q: QValue, strategy: str):
    """Fully rewrite a single word with AB -> q BA + I.

    ``strategy`` picks which AB occurrence is contracted first; by
    confluence the result is independent of the choice, which the test
    suite probes explicitly.  Words are processed in decreasing
    (length, inversions) order: both successors of a rewrite sit
    strictly lower, so every distinct word is expanded exactly once.
    """
    q_rf = q.scalar()
    pending: Dict[str, RationalFunction] = {word: RF_ONE}
    heap = [(-len(word), -_inversions(word), word)]
    out: Dict[MonoKey, RationalFunction] = {}
    while heap:
        _, _, w = heapq.heappop(heap)
        c = pending.pop(w, None)
        if c is None:
            continue
        i = w.find("AB") if strategy == LEFTMOST else w.rfind("AB")
        if i < 0:
            m = w.count("B")
            add_terms(out, (((m, len(w) - m), c),))
            continue
        succ = ((w[:i] + "BA" + w[i + 2 :], c * q_rf), (w[:i] + w[i + 2 :], c))
        for v, cv in succ:
            # a word that cancels leaves a stale heap entry; the pop guard skips it
            if cv and v not in pending:
                heapq.heappush(heap, (-len(v), -_inversions(v), v))
        add_terms(pending, succ)
    return tuple(sorted(out.items()))


def normal_form(x: FreeElement, q: QValue, strategy: str = LEFTMOST) -> NormalElement:
    """Image of a free-algebra element in H(q), in PBW coordinates."""
    if strategy not in (LEFTMOST, RIGHTMOST):
        raise ValueError("unknown rewrite strategy %r" % strategy)
    out = add_terms({}, ((key, c * f) for w, c in x.terms.items() for key, f in _word_normal_form(w, q, strategy)))
    return NormalElement(q, out, _raw=True)


