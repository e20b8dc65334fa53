"""The record classes: the immutable values (q, expression nodes, basis
keys) and the mutable records (report entries, reports, suite configs)."""

import pytest

from qheis.coeff import QValue
from qheis.expr import Add, IntLit, Letter, Mul, Sub, parse
from qheis.lie import AlphaBar, BetaBar, BrMN, CiCoefficient, GenA, PowerA, PowerB, Unit
from qheis.reports import Entry, Report
from qheis.suites import SUITES, SuiteConfig


def test_equality_requires_the_same_class():
    a, b = Letter("A"), Letter("B")
    assert GenA() != Unit()
    assert AlphaBar(1, 2) != BetaBar(1, 2)
    assert PowerA(2) != PowerB(2)
    assert Add(a, b) != Sub(a, b)
    assert AlphaBar(1, 2) != (1, 2)
    assert Letter("A") != "A"


def test_equal_values_hash_alike():
    pairs = [
        (GenA(), GenA()),
        (AlphaBar(1, 2), AlphaBar(k=1, l=2)),
        (BrMN(2, 3), BrMN(2, 3)),
        (parse("A + 2*B"), Add(Letter("A"), Mul(IntLit(2), Letter("B")))),
        (CiCoefficient(1, 2, 0, 1, 0), CiCoefficient(k=1, l=2, m=0, n=1, i=0)),
        (QValue.rational(1, 3), QValue.parse("1/3")),
    ]
    for x, y in pairs:
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
    assert AlphaBar(1, 2) != AlphaBar(2, 1)


def test_keys_of_different_classes_stay_apart_in_a_dict():
    d = {k: i for i, k in enumerate([Unit(), GenA(), PowerA(2), BrMN(1, 1)])}
    assert len(d) == 4
    assert [d[k] for k in (Unit(), GenA(), PowerA(2), BrMN(1, 1))] == [0, 1, 2, 3]


def test_parsed_q_is_shared():
    assert QValue.parse("2") is QValue.parse("2")
    assert QValue.parse("2") == QValue.rational(2)
    assert hash(QValue.parse("2")) == hash(QValue.rational(2))
    assert QValue.parse("symbolic") == QValue()
    assert QValue() != QValue.rational(0)


def test_reprs_name_the_fields():
    assert repr(AlphaBar(1, 2)) == "AlphaBar(k=1, l=2)"
    assert repr(GenA()) == "GenA()"
    assert repr(Add(Letter("A"), IntLit(3))) == "Add(left=Letter(name='A'), right=IntLit(value=3))"
    assert repr(QValue.rational(1, 3)) == "QValue(value=Fraction(1, 3))"
    assert repr(Entry(("x", 1), "pass")) == (
        "Entry(tuple=('x', 1), status='pass', lhs='', rhs='', residual='')"
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: AlphaBar(1),
        lambda: AlphaBar(1, 2, 3),
        lambda: GenA(1),
        lambda: BrMN(1, 2, 3),
        lambda: Add(Letter("A")),
        lambda: QValue(1, 2),
        lambda: AlphaBar(k=1, m=2),
        lambda: Entry(("x",)),
    ],
)
def test_wrong_arity_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_mutable_records_compare_by_fields_and_have_no_hash():
    e = Entry(tuple=("x", 1), status="pass")
    assert e == Entry(("x", 1), "pass", "", "", "")
    assert e != Entry(("x", 1), "fail")
    with pytest.raises(TypeError):
        hash(e)
    r1, r2 = Report(suite="s", q="symbolic", bounds={}), Report("s", "symbolic", {})
    assert r1 == r2 and r1.entries is not r2.entries  # a fresh list each
    r1.entries.append(e)
    assert r1 != r2
    cfg = SuiteConfig("reorder", QValue(), {"n": 3})
    assert cfg == SuiteConfig(suite="reorder", q=QValue(), bounds={"n": 3})
    assert cfg.bounds == {"n": 3}
    assert SuiteConfig("reorder", QValue()).bounds == SUITES["reorder"].default_bounds
    assert SUITES["reorder"].min_bounds == {} and SUITES["theta-lie"].min_bounds == {"len": 1}
