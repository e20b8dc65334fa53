"""Independent oracle for `qheis eval`: the action of H(q) on Q[x].

A acts as the Jackson derivative D_q x^k = {k}_q x^(k-1) and B as
multiplication by x; then AB - qBA = I holds exactly, and for q = 0 or q
not a root of unity the action tells PBW elements apart once it is
applied to x^0 .. x^K with K at least the largest A-degree involved.
Everything here is plain `Fraction` arithmetic on the benchmark's own
expression trees, with no rewriting and no code from the program.  A
symbolic q is checked at the fixed rational point SYMBOLIC_POINT.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Dict, Iterable, Tuple

from exprgen import bracket_tree, shape

SYMBOLIC_POINT = Fraction(7, 4)

Poly = Dict[int, Fraction]  # x-exponent -> coefficient


def q_point(q: str) -> Fraction:
    return SYMBOLIC_POINT if q == "symbolic" else Fraction(q)


@lru_cache(maxsize=None)
def q_integer(k: int, q0: Fraction) -> Fraction:
    return sum((q0**i for i in range(k)), Fraction(0))


def _add(u: Poly, v: Poly, c: Fraction = Fraction(1)) -> Poly:
    out = dict(u)
    for k, x in v.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _scale(v: Poly, c: Fraction) -> Poly:
    return {k: c * x for k, x in v.items()} if c else {}


def apply(e, v: Poly, q0: Fraction) -> Poly:
    """The operator of tree `e` applied to the polynomial v."""
    k = e[0]
    if k == "A":
        return {j - 1: q_integer(j, q0) * x for j, x in v.items() if j > 0}
    if k == "B":
        return {j + 1: x for j, x in v.items()}
    if k == "I":
        return dict(v)
    if k == "q":
        return _scale(v, q0)
    if k == "int":
        return _scale(v, Fraction(e[1]))
    if k == "word":
        return apply(bracket_tree(e[1]), v, q0)
    if k == "neg":
        return _scale(apply(e[1], v, q0), Fraction(-1))
    if k == "add":
        return _add(apply(e[1], v, q0), apply(e[2], v, q0))
    if k == "sub":
        return _add(apply(e[1], v, q0), apply(e[2], v, q0), Fraction(-1))
    if k == "mul":
        return apply(e[1], apply(e[2], v, q0), q0)
    if k == "comm":
        return _add(
            apply(e[1], apply(e[2], v, q0), q0),
            apply(e[2], apply(e[1], v, q0), q0),
            Fraction(-1),
        )
    if k == "pow":
        if e[2] < 0:
            s = apply(e[1], {0: Fraction(1)}, q0).get(0, Fraction(0))
            return _scale(v, s ** e[2])
        for _ in range(e[2]):
            v = apply(e[1], v, q0)
        return v
    raise ValueError("unknown node %r" % (e,))


def coeff_value(c, q0: Fraction) -> Fraction:
    """A program coefficient at q0: an exact rational as is, otherwise a
    num/den pair of integer polynomials evaluated from their coefficients."""
    if isinstance(c, Rational):
        return Fraction(c)

    def at(coeffs: Iterable[int]) -> Fraction:
        acc = Fraction(0)
        for a in reversed(tuple(coeffs)):
            acc = acc * q0 + a
        return acc

    return at(c.num.coeffs) / at(c.den.coeffs)


def _pbw_apply(terms: Dict[Tuple[int, int], Fraction], j: int, q0: Fraction) -> Poly:
    """sum c B^m A^n applied to x^j."""
    out: Poly = {}
    for (m, n), c in terms.items():
        if n > j:
            continue
        f = c
        for i in range(j - n + 1, j + 1):
            f *= q_integer(i, q0)
        out = _add(out, {j - n + m: f})
    return out


def _lie_apply(coords: Dict[Tuple[int, int], Fraction], j: int, q0: Fraction) -> Poly:
    """sum c B^d [A,B]^k (d >= 0) or c [A,B]^k A^-d (d < 0) applied to x^j."""
    out: Poly = {}
    for (d, k), c in coords.items():
        tree = ("pow", ("comm", ("A",), ("B",)), k)
        if d > 0:
            tree = ("mul", ("pow", ("B",), d), tree)
        elif d < 0:
            tree = ("mul", tree, ("pow", ("A",), -d))
        out = _add(out, apply(tree, {j: Fraction(1)}, q0), c)
    return out


def check(tree, q: str, normal_terms, lie_coords=None) -> bool:
    """Whether the program's normal form (a map (m, n) -> coefficient) and,
    when given, its [A,B]-basis coordinates (a map (d, k) -> coefficient)
    act on x^0 .. x^K exactly as the expression tree does."""
    q0 = q_point(q)
    nf = {key: coeff_value(c, q0) for key, c in normal_terms.items()}
    top = max([n for _, n in nf] + [shape(tree)[1]])
    lie = None
    if lie_coords is not None:
        lie = {key: coeff_value(c, q0) for key, c in lie_coords.items()}
        top = max([top] + [k - min(d, 0) for d, k in lie])
    for j in range(top + 2):
        want = apply(tree, {j: Fraction(1)}, q0)
        if _pbw_apply(nf, j, q0) != want:
            return False
        if lie is not None and _lie_apply(lie, j, q0) != want:
            return False
    return True
