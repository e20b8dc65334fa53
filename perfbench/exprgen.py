"""Expression generator for the eval-session workload.

Expressions are trees of plain tuples owned by the benchmark, so the
oracle can evaluate exactly the tree that was generated instead of the
program's own parse of its text:

    ("A",) ("B",) ("I",) ("q",) ("int", n >= 0) ("word", W)
    ("neg", x) ("add", x, y) ("sub", x, y) ("mul", x, y)
    ("pow", x, n) ("comm", x, y)

A negative exponent only ever sits on a scalar subtree.  The pool of
expressions is fixed by POOL_SEED; a run's seed only chooses which pool
entries each session evaluates and in which order, so every expression a
run can meet has a recorded expected output.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Sequence, Tuple

POOL_SEED = 1709
POOL_SIZE = 1200
SESSION_LEN = 100
Q_VALUES = ("symbolic", "2", "-1/3", "0")

# Caps that keep every expression near or under ~0.3 s: the free-algebra
# expansion has at most MAX_TERMS words, each of length at most MAX_LEN.
MAX_TERMS = 256
MAX_LEN = 14


def is_regular(w: str) -> bool:
    """Regular: strictly greater than every proper rotation (A < B)."""
    return len(w) >= 1 and all(w > w[i:] + w[:i] for i in range(1, len(w)))


REGULAR_WORDS = tuple(
    w
    for n in range(2, 6)
    for w in map("".join, itertools.product("AB", repeat=n))
    if is_regular(w)
)


def bracket_tree(w: str):
    """<w> as nested ("comm", left, right) tuples: split off the longest
    proper suffix that is itself regular."""
    if len(w) == 1:
        return (w,)
    for i in range(1, len(w)):
        if is_regular(w[i:]):
            return ("comm", bracket_tree(w[:i]), bracket_tree(w[i:]))
    raise ValueError("not a regular word: %r" % w)


def shape(e) -> Tuple[int, int]:
    """(terms, length): an upper bound on the number of words of the
    free-algebra expansion and on their length."""
    k = e[0]
    if k in ("A", "B"):
        return 1, 1
    if k in ("I", "q", "int"):
        return 1, 0
    if k == "word":
        return 2 ** (len(e[1]) - 1), len(e[1])
    if k == "neg":
        return shape(e[1])
    if k in ("add", "sub"):
        (t1, l1), (t2, l2) = shape(e[1]), shape(e[2])
        return t1 + t2, max(l1, l2)
    if k == "mul":
        (t1, l1), (t2, l2) = shape(e[1]), shape(e[2])
        return t1 * t2, l1 + l2
    if k == "comm":
        (t1, l1), (t2, l2) = shape(e[1]), shape(e[2])
        return 2 * t1 * t2, l1 + l2
    if k == "pow":
        t, l = shape(e[1])
        n = max(e[2], 0)
        return t**n, l * n
    raise ValueError("unknown node %r" % (e,))


def _scalar(rng: random.Random, q: str):
    """A scalar subtree, sometimes raised to a negative power."""
    r = rng.random()
    if r < 0.4:
        return ("int", rng.randrange(2, 6))
    if r < 0.6:
        return ("q",)
    if r < 0.8 and q != "0":
        return ("pow", ("q",), -rng.randrange(1, 4))
    if r < 0.9:
        return ("pow", ("int", rng.randrange(2, 5)), -1)
    return ("pow", ("sub", ("q",), ("int", 1)), -rng.randrange(1, 3))


def _atom(rng: random.Random, q: str):
    r = rng.random()
    if r < 0.55:
        return (rng.choice("AB"),)
    if r < 0.75:
        return ("word", rng.choice(REGULAR_WORDS))
    if r < 0.85:
        return ("I",)
    return _scalar(rng, q)


def _tree(rng: random.Random, q: str, depth: int):
    if depth == 0 or (depth < 4 and rng.random() < 0.2):
        return _atom(rng, q)
    r = rng.random()
    if r < 0.2:
        return ("add", _tree(rng, q, depth - 1), _tree(rng, q, depth - 1))
    if r < 0.3:
        return ("sub", _tree(rng, q, depth - 1), _tree(rng, q, depth - 1))
    if r < 0.55:
        return ("mul", _tree(rng, q, depth - 1), _tree(rng, q, depth - 1))
    if r < 0.8:
        return ("pow", _tree(rng, q, depth - 1), rng.randrange(2, 11))
    if r < 0.95:
        return ("comm", _tree(rng, q, depth - 1), _tree(rng, q, depth - 1))
    return ("neg", _tree(rng, q, depth - 1))


def random_expression(rng: random.Random, q: str):
    """A random tree within the MAX_TERMS / MAX_LEN caps that uses A or B.

    Its text never starts with "-", which argparse would take for an option.
    """
    while True:
        if rng.random() < 0.3:
            # a power of a sum: its free-algebra expansion has 2^n words
            e = ("pow", ("add", _atom(rng, q), _atom(rng, q)), rng.randrange(4, 9))
        else:
            e = _tree(rng, q, 4)
        terms, length = shape(e)
        if 1 <= length <= MAX_LEN and terms <= MAX_TERMS and render(e)[0] != "-":
            return e


_PREC = {"add": 1, "sub": 1, "mul": 2, "neg": 3, "pow": 4}


def render(e) -> str:
    """Text for `qheis eval` that parses back to the same tree."""
    k = e[0]

    def wrap(child, minimum):
        s = render(child)
        return "(%s)" % s if _PREC.get(child[0], 5) < minimum else s

    if k in ("A", "B", "I", "q"):
        return k
    if k == "int":
        return str(e[1])
    if k == "word":
        return "<%s>" % e[1]
    if k == "neg":
        return "-" + wrap(e[1], 3)
    if k == "add":
        return "%s + %s" % (wrap(e[1], 1), wrap(e[2], 2))
    if k == "sub":
        return "%s - %s" % (wrap(e[1], 1), wrap(e[2], 2))
    if k == "mul":
        return "%s*%s" % (wrap(e[1], 2), wrap(e[2], 3))
    if k == "pow":
        return "%s^%d" % (wrap(e[1], 5), e[2])
    if k == "comm":
        return "[%s, %s]" % (render(e[1]), render(e[2]))
    raise ValueError("unknown node %r" % (e,))


def pool() -> List[Dict]:
    """The fixed expression pool: POOL_SIZE entries {text, q, tree}, with
    the four q values in equal shares."""
    rng = random.Random(POOL_SEED)
    out = []
    for i in range(POOL_SIZE):
        q = Q_VALUES[i % len(Q_VALUES)]
        tree = random_expression(rng, q)
        out.append({"text": render(tree), "q": q, "tree": tree})
    return out


def sessions(seed: int, cost_ms: Sequence[float]) -> Iterator[List[int]]:
    """Pool indices of the run's sessions, SESSION_LEN expressions each.

    The pool is cut into SESSION_LEN strata of equal size by recorded cost,
    and each session takes one expression from every stratum, so that
    sessions of different seeds carry the same mix of cheap and costly
    work.  Within a run no expression repeats until each stratum is used
    up.
    """
    rng = random.Random(seed)
    order = sorted(range(len(cost_ms)), key=lambda i: (cost_ms[i], i))
    per = len(order) // SESSION_LEN
    strata = [order[s * per:(s + 1) * per] for s in range(SESSION_LEN)]
    for stratum in strata:
        rng.shuffle(stratum)
    for k in itertools.count():
        picks = [stratum[k % per] for stratum in strata]
        rng.shuffle(picks)
        yield picks
