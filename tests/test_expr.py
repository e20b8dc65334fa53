"""Expression surface syntax: parsing, pretty printing, evaluation."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qheis.coeff import QValue, RF_Q, RationalFunction
from qheis.expr import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_WORD,
    Add,
    BracketWord,
    Commutator,
    EvalError,
    Ident,
    IntLit,
    Letter,
    Mul,
    Neg,
    ParseError,
    Pow,
    QSym,
    Sub,
    eval_expr,
    parse,
    pretty,
)
from qheis.freealg import FreeElement, commutator as f_commutator, eval_monomial
from qheis.heis import NormalElement, comm_power, nf_word, to_lie_power_basis
from qheis.lie import membership_generic
from qheis.words import bracketing
from rewriting import normal_form

SYM = QValue()
QS = [SYM, QValue.rational(2), QValue.parse("-1/3"), QValue.rational(0), QValue.rational(1)]


def free_eval(e, q):
    """Reference: the AST expanded word by word in the free algebra, as
    `eval_expr` once did before normalizing.  A negative power needs a
    base that is a multiple of the empty word."""
    if isinstance(e, Letter):
        return FreeElement.word(e.name)
    if isinstance(e, Ident):
        return FreeElement.one()
    if isinstance(e, QSym):
        return FreeElement.word("", q.scalar())
    if isinstance(e, IntLit):
        return FreeElement.word("", RationalFunction.from_int(e.value))
    if isinstance(e, Neg):
        return -free_eval(e.arg, q)
    if isinstance(e, Add):
        return free_eval(e.left, q) + free_eval(e.right, q)
    if isinstance(e, Sub):
        return free_eval(e.left, q) - free_eval(e.right, q)
    if isinstance(e, Mul):
        return free_eval(e.left, q) * free_eval(e.right, q)
    if isinstance(e, Pow):
        base = free_eval(e.base, q)
        if e.exponent >= 0:
            return base**e.exponent
        if base.is_zero():
            raise EvalError(
                "division by zero: %s is 0 at q = %s" % (pretty(e.base), q.render())
            )
        if set(base.terms) != {""}:
            raise EvalError("negative power of a non-scalar expression")
        return FreeElement.word("", base.terms[""] ** e.exponent)
    if isinstance(e, Commutator):
        return f_commutator(free_eval(e.left, q), free_eval(e.right, q))
    if isinstance(e, BracketWord):
        return eval_monomial(bracketing(e.word))
    raise TypeError("unknown AST node %r" % (e,))


def _outcome(evaluate):
    try:
        return "ok", evaluate()
    except EvalError as exc:
        return "error", str(exc)


def test_parse_defining_element():
    ast = parse("A*B - q*B*A - I")
    expected = Sub(
        Sub(Mul(Letter("A"), Letter("B")), Mul(Mul(QSym(), Letter("B")), Letter("A"))),
        Ident(),
    )
    assert ast == expected
    value = free_eval(ast, SYM)
    defining = (
        FreeElement.word("AB")
        - FreeElement.word("BA", RF_Q)
        - FreeElement.one()
    )
    assert value == defining


@pytest.mark.parametrize("q", QS, ids=str)
def test_defining_relation_evaluates_to_zero(q):
    # the paper's defining relation AB - qBA = I, at every q
    assert eval_expr(parse("A*B - q*B*A - I"), q).normal.is_zero()


def test_parse_bracketed_word():
    ast = parse("<BBA>")
    assert ast == BracketWord("BBA")
    assert free_eval(ast, SYM) == eval_monomial(bracketing("BBA"))
    expected = normal_form(eval_monomial(bracketing("BBA")), SYM)
    assert eval_expr(ast, SYM).normal == expected


def test_parse_rejects_irregular_bracket_word():
    with pytest.raises(ParseError, match="not a regular word"):
        parse("<AB>")
    with pytest.raises(ParseError):
        parse("<>")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("A + ")
    assert exc.value.position == 4
    with pytest.raises(ParseError, match="position"):
        parse("A @ B")
    with pytest.raises(ParseError):
        parse("A B")  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse("C")


def test_parse_errors_name_the_end_of_input():
    for text, message in (
        ("<BA", "expected '>', found end of input"),
        ("(A + B", "expected ')', found end of input"),
        ("[A, B", "expected ']', found end of input"),
        ("A + ", "unexpected end of input"),
        ("A^", "expected 'int', found end of input"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(text)
    with pytest.raises(ParseError, match=re.escape("expected '>', found '+'")):
        parse("<BA+")


def test_nesting_limit_is_exact():
    # every (, [ and unary - is one level of the parser
    for opener, closer in (("(", ")"), ("[A, ", "]"), ("-", "")):
        ok = opener * (MAX_DEPTH - 1) + "A" + closer * (MAX_DEPTH - 1)
        parse(ok)
        with pytest.raises(ParseError, match="nested deeper than %d levels" % MAX_DEPTH):
            parse(opener * MAX_DEPTH + "A" + closer * MAX_DEPTH)
    # a flat chain is not nesting: 300 operands evaluate as before
    assert eval_expr(parse("+".join(["A"] * 300)), SYM).normal == eval_expr(parse("300*A"), SYM).normal


def test_word_length_limit_is_exact():
    longest = "<" + "B" * (MAX_WORD - 1) + "A>"
    # at the limit, a word still evaluates under the deepest allowed nesting
    deepest = "-" * (MAX_DEPTH - 1) + longest
    assert eval_expr(parse(deepest), QValue.rational(2)).membership is True
    with pytest.raises(ParseError, match="bracketed word too long: %d letters" % (MAX_WORD + 1)):
        parse("<B" + longest[1:])


def test_exponent_limit_is_exact():
    q2 = QValue.rational(2)
    # at the limit a power still evaluates, in either sign
    for text in ("I^%d" % MAX_EXPONENT, "(-1)^-%d" % MAX_EXPONENT):
        assert eval_expr(parse(text), q2).normal == NormalElement.one(q2)
    for text in ("A^%d" % (MAX_EXPONENT + 1), "q^-%d" % (MAX_EXPONENT + 1)):
        message = r"exponent too large: %d, at most %d \(at position %d\)" % (MAX_EXPONENT + 1, MAX_EXPONENT, text.index("2"))
        with pytest.raises(ParseError, match=message):
            parse(text)


def test_precedence_and_unary_minus():
    assert parse("A + B*A") == Add(Letter("A"), Mul(Letter("B"), Letter("A")))
    # unary minus binds tighter than *
    assert parse("-A*B") == Mul(Neg(Letter("A")), Letter("B"))
    assert parse("A^2*B") == Mul(Pow(Letter("A"), 2), Letter("B"))
    assert parse("q^-2") == Pow(QSym(), -2)
    assert parse("2^-1*A") == Mul(Pow(IntLit(2), -1), Letter("A"))


def test_commutator_expression():
    ast = parse("[A,B]^2")
    assert ast == Pow(Commutator(Letter("A"), Letter("B")), 2)
    result = eval_expr(ast, SYM)
    assert result.normal == comm_power(2, SYM)
    assert result.membership is True


def test_eval_examples_from_the_interface():
    result = eval_expr(parse("A*B"), SYM)
    assert result.normal == nf_word("AB", SYM)
    assert result.membership is False  # identity coefficient is nonzero
    result = eval_expr(parse("B^3"), SYM)
    assert result.membership is False
    result = eval_expr(parse("<BA>"), SYM)
    assert result.membership is True


def test_eval_zero_mode_and_degenerate():
    r0 = eval_expr(parse("B*A - I"), QValue.rational(0))
    assert r0.membership is True and r0.membership_mode == "zero"
    assert r0.lie_coords is None
    r1 = eval_expr(parse("A"), QValue.rational(1))
    assert r1.membership is None and r1.membership_mode == "degenerate"


def test_negative_powers_of_scalars_only():
    ast = parse("(q - 1)^-1 * (q*[A,B] - I)")
    result = eval_expr(ast, SYM)
    assert result.normal == nf_word("AB", SYM)
    with pytest.raises(EvalError, match="non-scalar"):
        eval_expr(parse("A^-1"), SYM)
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(parse("0^-1"), SYM)
    # a base that is a multiple of I only in H(q) is a scalar too
    assert eval_expr(parse("(A*B - q*B*A)^-1"), SYM).normal == nf_word("", SYM)
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(parse("(A*B - q*B*A - I)^-1"), SYM)


def test_pretty_examples():
    assert pretty(parse("A*B - q*B*A - I")) == "A*B - q*B*A - I"
    assert pretty(parse("[A , B]^2")) == "[A, B]^2"
    assert pretty(parse("-(A + B)")) == "-(A + B)"
    assert pretty(parse("A - (B - A)")) == "A - (B - A)"


def _nodes(children, exponents):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Commutator(*ab)),
        children.map(Neg),
        st.tuples(children, exponents).map(lambda be: Pow(*be)),
    )


def _ast_strategy():
    leaves = st.one_of(
        st.just(Letter("A")),
        st.just(Letter("B")),
        st.just(Ident()),
        st.just(QSym()),
        st.integers(0, 50).map(IntLit),
        st.sampled_from(["BA", "BAA", "BBA", "BBABA"]).map(BracketWord),
    )
    return st.recursive(
        leaves, lambda children: _nodes(children, st.integers(-3, 4)), max_leaves=12
    )


@settings(max_examples=300, deadline=None)
@given(_ast_strategy())
def test_pretty_then_parse_is_identity(ast):
    assert parse(pretty(ast)) == ast


def _scalar_strategy():
    """ASTs without letters, so negative powers are defined in both the free
    algebra and H(q) exactly when the base is nonzero."""
    leaves = st.one_of(st.just(Ident()), st.just(QSym()), st.integers(0, 3).map(IntLit))
    return st.recursive(
        leaves, lambda children: _nodes(children, st.integers(-3, 3)), max_leaves=4
    )


def _eval_strategy():
    scalars = _scalar_strategy()
    leaves = st.one_of(
        st.just(Letter("A")),
        st.just(Letter("B")),
        st.just(Ident()),
        st.just(QSym()),
        st.integers(0, 5).map(IntLit),
        st.sampled_from(["BA", "BAA", "BBA"]).map(BracketWord),
        st.tuples(scalars, st.integers(-3, -1)).map(lambda be: Pow(*be)),
    )
    return st.recursive(
        leaves, lambda children: _nodes(children, st.integers(0, 3)), max_leaves=8
    )


def _free_words_bound(e):
    """Upper bound on the number of words in the free-algebra expansion."""
    if isinstance(e, (Add, Sub)):
        return _free_words_bound(e.left) + _free_words_bound(e.right)
    if isinstance(e, Mul):
        return _free_words_bound(e.left) * _free_words_bound(e.right)
    if isinstance(e, Commutator):
        return 2 * _free_words_bound(e.left) * _free_words_bound(e.right)
    if isinstance(e, Neg):
        return _free_words_bound(e.arg)
    if isinstance(e, Pow):
        return _free_words_bound(e.base) ** max(e.exponent, 0)
    if isinstance(e, BracketWord):
        return 2 ** (len(e.word) - 1)
    return 1


@settings(max_examples=150, deadline=None)
@given(_eval_strategy())
def test_eval_matches_free_algebra_reference(ast):
    assume(_free_words_bound(ast) <= 256)
    for q in QS:
        want = _outcome(lambda: normal_form(free_eval(ast, q), q))
        got = _outcome(lambda: eval_expr(ast, q).normal)
        assert got == want, (pretty(ast), str(q))


@settings(max_examples=100, deadline=None)
@given(_eval_strategy())
def test_eval_reuses_its_lie_coordinates_for_membership(ast):
    for q in (SYM, QValue.rational(2), QValue.parse("-1/3"), QValue.rational(-1)):
        try:
            result = eval_expr(ast, q)
        except EvalError:
            continue
        nf = result.normal
        assert result.lie_coords.coords == to_lie_power_basis(nf).coords
        if q.is_degenerate:
            assert result.membership is None
        else:
            assert result.membership == membership_generic(nf)
