"""Surface expression language for the CLI.

Grammar (precedence low to high):

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := "-" factor | power
    power   := primary ("^" integer)*        # integer may be negative
    primary := "A" | "B" | "I" | "q" | integer
             | "(" expr ")"
             | "[" expr "," expr "]"         # commutator
             | "<" word ">"                  # bracketed regular word

Evaluation happens in H(q), in PBW coordinates: every subexpression is
a NormalElement, so nothing is expanded in the free algebra.  Negative
powers are only defined for a base that is a nonzero multiple of I in
H(q) (so (A*B - q*B*A)^-1 is I).  <W> demands a regular word and
evaluates to its canonical bracketing in H(q).  AST nodes are ``Value``s.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .coeff import QValue, RationalFunction, Record, Value
from .heis import (
    LiePowerCoords,
    NormalElement,
    bracketed_word,
    commutator,
    grade,
    to_lie_power_basis,
)
from .lie import in_lie_span, membership_zero
from .words import is_regular


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class EvalError(ValueError):
    pass


class Letter(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):  # "A" or "B"
        (self.name,) = self._key = (name,)


class Ident(Value):
    __slots__ = ()


class QSym(Value):
    __slots__ = ()


class IntLit(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        (self.value,) = self._key = (value,)


class Neg(Value):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        (self.arg,) = self._key = (arg,)


class _Binary(Value):
    __slots__ = ()  # each subclass declares the fields, as repr reads its own __slots__

    def __init__(self, left: Expression, right: Expression):
        self.left, self.right = self._key = (left, right)


class Add(_Binary):
    __slots__ = ("left", "right")


class Sub(_Binary):
    __slots__ = ("left", "right")


class Mul(_Binary):
    __slots__ = ("left", "right")


class Pow(Value):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        self.base, self.exponent = self._key = (base, exponent)


class Commutator(_Binary):
    __slots__ = ("left", "right")


class BracketWord(Value):
    __slots__ = ("word",)

    def __init__(self, word: str):
        (self.word,) = self._key = (word,)


Expression = Union[
    Letter, Ident, QSym, IntLit, Neg, Add, Sub, Mul, Pow, Commutator, BracketWord
]


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# refused beyond these, since the parser and bracketed_word recurse as deep
MAX_DEPTH = 100
MAX_WORD = 200
# and beyond this, since a power is evaluated by repeated multiplication
MAX_EXPONENT = 20000

_PUNCT = set("+-*^()[],<>")


def _tokenize(text: str):
    tokens = []  # (kind, value, pos)
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha():
            tokens.append(("name", c, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError("expected %r, found %s" % (kind, found), tok[2])
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek()[0] == "*":
            self.next()
            e = Mul(e, self.factor())
        return e

    def factor(self) -> Expression:
        # every nested (, [ and unary - passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("expression nested deeper than %d levels" % MAX_DEPTH, self.peek()[2])
        if self.peek()[0] == "-":
            self.next()
            e = Neg(self.factor())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expression:
        e = self.primary()
        while self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.expect("int")
            if tok[1] > MAX_EXPONENT:
                raise ParseError("exponent too large: %d, at most %d" % (tok[1], MAX_EXPONENT), tok[2])
            e = Pow(e, sign * tok[1])
        return e

    def primary(self) -> Expression:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return IntLit(value)
        if kind == "name":
            if value in ("A", "B"):
                return Letter(value)
            if value == "I":
                return Ident()
            if value == "q":
                return QSym()
            raise ParseError("unknown symbol %r" % value, pos)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "[":
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return Commutator(left, right)
        if kind == "<":
            letters = []
            while self.peek()[0] == "name":
                letters.append(self.next()[1])
            close = self.expect(">")
            word = "".join(letters)
            if len(word) > MAX_WORD:
                raise ParseError("bracketed word too long: %d letters, at most %d" % (len(word), MAX_WORD), pos)
            if not word or any(c not in "AB" for c in word):
                raise ParseError("bracketed word must be nonempty over A, B", pos)
            if not is_regular(word):
                raise ParseError("%r is not a regular word" % word, pos)
            return BracketWord(word)
        found = "end of input" if kind == "end" else "token %r" % (value,)
        raise ParseError("unexpected %s" % found, pos)


def parse(text: str) -> Expression:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# pretty printer (pretty . parse == identity on ASTs)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


_PREC = {Add: _PREC_ADD, Sub: _PREC_ADD, Mul: _PREC_MUL, Neg: _PREC_NEG, Pow: _PREC_POW}


def _wrap(child: Expression, minimum: int, s: Optional[str] = None) -> str:
    s = pretty(child) if s is None else s
    return "(%s)" % s if _PREC.get(type(child), _PREC_ATOM) < minimum else s


_CHAIN = (Add, Sub, Mul, Pow)


def _left_spine(e: Expression):
    """(the leftmost operand, the + - * ^ nodes above it, innermost first),
    found in a loop: only real nesting, limited to MAX_DEPTH, recurses."""
    leaf = e.base if isinstance(e, Pow) else e.left
    if not isinstance(leaf, _CHAIN):  # two operands, the common case: no list
        return leaf, (e,)
    spine = [e]
    while isinstance(leaf, _CHAIN):
        spine.append(leaf)
        leaf = leaf.base if isinstance(leaf, Pow) else leaf.left
    spine.reverse()
    return leaf, spine


_INFIX = {Add: (" + ", _PREC_ADD), Sub: (" - ", _PREC_ADD), Mul: ("*", _PREC_MUL)}


def pretty(e: Expression) -> str:
    if isinstance(e, Letter):
        return e.name
    if isinstance(e, Ident):
        return "I"
    if isinstance(e, QSym):
        return "q"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Neg):
        return "-%s" % _wrap(e.arg, _PREC_NEG)
    if isinstance(e, _CHAIN):
        leaf, spine = _left_spine(e)
        s = pretty(leaf)
        for node in spine:
            if isinstance(node, Pow):
                s = "%s^%d" % (_wrap(leaf, _PREC_ATOM, s), node.exponent)
            else:
                op, prec = _INFIX[type(node)]
                s = _wrap(leaf, prec, s) + op + _wrap(node.right, prec + 1)
            leaf = node
        return s
    if isinstance(e, Commutator):
        return "[%s, %s]" % (pretty(e.left), pretty(e.right))
    if isinstance(e, BracketWord):
        return "<%s>" % e.word
    raise TypeError("unknown AST node %r" % (e,))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval(e: Expression, q: QValue) -> NormalElement:
    """Evaluate an AST in H(q), in PBW coordinates."""
    if isinstance(e, Letter):
        m, n = (0, 1) if e.name == "A" else (1, 0)
        return NormalElement.monomial(m, n, q)
    if isinstance(e, Ident):
        return NormalElement.one(q)
    if isinstance(e, QSym):
        return NormalElement.monomial(0, 0, q, q.scalar())
    if isinstance(e, IntLit):
        return NormalElement.monomial(0, 0, q, RationalFunction.from_int(e.value))
    if isinstance(e, Neg):
        return -_eval(e.arg, q)
    if isinstance(e, _CHAIN):
        leaf, spine = _left_spine(e)
        x = _eval(leaf, q)
        for node in spine:
            if isinstance(node, Add):
                x = x + _eval(node.right, q)
            elif isinstance(node, Sub):
                x = x - _eval(node.right, q)
            elif isinstance(node, Mul):
                x = x * _eval(node.right, q)
            elif node.exponent >= 0:
                x = x**node.exponent
            elif x.is_zero():
                raise EvalError(
                    "division by zero: %s is 0 at q = %s" % (pretty(node.base), q.render())
                )
            elif set(x.terms) != {(0, 0)}:
                raise EvalError("negative power of a non-scalar expression")
            else:
                x = NormalElement.monomial(0, 0, q, x.coeff(0, 0) ** node.exponent)
        return x
    if isinstance(e, Commutator):
        return commutator(_eval(e.left, q), _eval(e.right, q))
    if isinstance(e, BracketWord):
        return bracketed_word(e.word, q)
    raise TypeError("unknown AST node %r" % (e,))


class EvalResult(Record):
    __slots__ = ("expression", "q", "normal", "graded", "lie_coords", "membership", "membership_mode")

    def __init__(self, expression: Expression, q: QValue, normal: NormalElement,
                 graded: Dict[int, NormalElement], lie_coords: Optional[LiePowerCoords],
                 membership: Optional[bool], membership_mode: str):
        self.expression, self.q, self.normal = expression, q, normal
        self.graded, self.lie_coords = graded, lie_coords
        self.membership, self.membership_mode = membership, membership_mode


def eval_expr(e: Expression, q: QValue) -> EvalResult:
    """Normal form plus the derived views the CLI prints."""
    nf = _eval(e, q)
    graded = grade(nf)
    lie_coords = None
    if not (q.is_zero or q.is_one):
        lie_coords = to_lie_power_basis(nf)
    membership: Optional[bool] = None
    if q.is_zero:
        mode = "zero"
        membership = membership_zero(nf)
    elif q.is_degenerate:
        mode = "degenerate"
    else:
        mode = "generic"
        membership = in_lie_span(lie_coords)
    return EvalResult(e, q, nf, graded, lie_coords, membership, mode)
