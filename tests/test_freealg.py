"""The free algebra on A, B and the theta anti-automorphism."""

import random

from qheis.coeff import IntPoly, RF_ONE, RF_Q, RationalFunction
from qheis.freealg import (
    FreeElement,
    commutator,
    eval_monomial,
    passes_lie_necessary,
    theta,
)
from qheis.words import Leaf, bracketing, enumerate_regular

W = FreeElement.word
FREE_A = W("A")
FREE_B = W("B")


def rand_element(rng, max_len=4, nterms=4):
    acc = FreeElement.zero()
    for _ in range(nterms):
        length = rng.randrange(max_len + 1)
        word = "".join(rng.choice("AB") for _ in range(length))
        coeffs = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 3))]
        c = RationalFunction(IntPoly(coeffs))
        acc = acc + W(word, c if not c.is_zero() else RF_ONE)
    return acc


def test_concatenation_product():
    assert FREE_A * FREE_B == W("AB")
    assert (FREE_A + FREE_B) ** 2 == W("AA") + W("AB") + W("BA") + W("BB")
    assert FreeElement.one() * W("BBA") == W("BBA")


def test_product_is_graded():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randrange(4)
        n = rng.randrange(4)
        x = sum(
            (W("".join(rng.choice("AB") for _ in range(m))) for _ in range(2)),
            FreeElement.zero(),
        )
        y = sum(
            (W("".join(rng.choice("AB") for _ in range(n))) for _ in range(2)),
            FreeElement.zero(),
        )
        for word in (x * y).terms:
            assert len(word) == m + n


def test_commutator_examples():
    assert commutator(FREE_A, FREE_B) == W("AB") - W("BA")
    x = W("AB") + W("A", RF_Q)
    assert commutator(x, x).is_zero()
    assert commutator(FREE_B, W("BA")) == W("BBA") - W("BAB")


def test_eval_monomial_examples():
    assert eval_monomial(bracketing("BA")) == W("BA") - W("AB")
    assert eval_monomial(bracketing("BBA")) == W("BBA") - W("BAB", RationalFunction.from_int(2)) + W("ABB")
    assert eval_monomial(Leaf("A")) == FREE_A


def test_theta_examples():
    assert theta(W("AB")) == W("BA")
    assert theta(FREE_A) == -FREE_A
    defining = W("AB") - W("BA", RF_Q) - FreeElement.one()
    assert theta(defining) == W("BA") - W("AB", RF_Q) - FreeElement.one()


def test_theta_is_an_involution():
    rng = random.Random(6)
    for _ in range(200):
        x = rand_element(rng)
        assert theta(theta(x)) == x


def test_theta_is_an_anti_automorphism():
    rng = random.Random(7)
    for _ in range(500):
        x = rand_element(rng, max_len=3, nterms=3)
        y = rand_element(rng, max_len=3, nterms=3)
        assert theta(x * y) == theta(y) * theta(x)


def test_lie_necessary_condition():
    for w in enumerate_regular(8):
        assert passes_lie_necessary(eval_monomial(bracketing(w)))
    defining = W("AB") - W("BA", RF_Q) - FreeElement.one()
    assert not passes_lie_necessary(defining)
    assert passes_lie_necessary(FreeElement.zero())


def test_bracketed_word_has_unit_leading_coefficient():
    # coefficient of w itself inside the expansion of <w> is +-1
    for w in enumerate_regular(10):
        expansion = eval_monomial(bracketing(w))
        c = expansion.terms[w]
        assert c == RF_ONE or c == -RF_ONE


def test_jacobi_identity_on_random_words():
    rng = random.Random(8)
    for _ in range(100):
        x, y, z = (
            W("".join(rng.choice("AB") for _ in range(rng.randrange(1, 4))))
            for _ in range(3)
        )
        total = (
            commutator(x, commutator(y, z))
            + commutator(z, commutator(x, y))
            + commutator(y, commutator(z, x))
        )
        assert total.is_zero()


def test_rendering_is_sorted_and_stable():
    x = W("BA") + W("A", RF_Q) - FreeElement.one()
    assert x.render() == "-1 + q*A + BA"
