"""Regular words, the concatenation order, factorization, bracketing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.coeff import RF_ONE, RF_Q, add_terms
from qheis.words import (
    bracket_expansion,
    enumerate_regular,
    factorize,
    is_lie,
    is_regular,
    left_normed,
    triangle_less,
)
from free_algebra import Bracket, FreeElement, Leaf, bracketing, eval_monomial, passes_lie_necessary

words_st = st.text(alphabet="AB", min_size=1, max_size=8)


def all_words(max_len):
    for n in range(1, max_len + 1):
        for t in itertools.product("AB", repeat=n):
            yield "".join(t)


def necklace_count(n):
    def mobius(d):
        out, x, p = 1, d, 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if x > 1 else out

    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_triangle_less_examples():
    assert triangle_less("B", "A")  # BA > AB
    assert not triangle_less("A", "A")
    assert not triangle_less("BA", "B")  # BAB < BBA
    assert triangle_less("B", "BA")
    with pytest.raises(ValueError):
        triangle_less("", "A")


def test_triangle_trichotomy():
    for v in all_words(4):
        for w in all_words(4):
            same_class = v + w == w + v
            forward = triangle_less(v, w)
            backward = triangle_less(w, v)
            if same_class:
                assert not forward and not backward
            else:
                assert forward != backward


def test_is_regular_examples():
    assert is_regular("BA")
    assert not is_regular("AB")
    assert not is_regular("BABA")
    assert is_regular("A") and is_regular("B")
    with pytest.raises(ValueError):
        is_regular("")


def test_regular_words_are_cyclically_maximal():
    for w in all_words(10):
        if not is_regular(w):
            continue
        for i in range(1, len(w)):
            rotation = w[i:] + w[:i]
            assert w > rotation


def test_enumerate_regular_small():
    assert enumerate_regular(2) == ["A", "B", "BA"]
    assert enumerate_regular(3) == ["A", "B", "BA", "BAA", "BBA"]
    with pytest.raises(ValueError):
        enumerate_regular(0)


def test_enumerate_regular_counts_match_necklace_oracle():
    words = enumerate_regular(6)
    by_len = [sum(1 for w in words if len(w) == n) for n in range(1, 7)]
    assert by_len == [2, 1, 2, 3, 6, 9]
    assert by_len == [necklace_count(n) for n in range(1, 7)]


def test_factorize_examples():
    assert factorize("BBA") == ("B", "BA")
    assert factorize("BAA") == ("BA", "A")
    assert factorize("BBABA") == ("BBA", "BA")
    with pytest.raises(ValueError):
        factorize("AB")
    with pytest.raises(ValueError):
        factorize("B")


def test_factorize_parts_are_regular_and_concatenate():
    for w in enumerate_regular(12):
        if len(w) < 2:
            continue
        g, h = factorize(w)
        assert g + h == w
        assert is_regular(g) and is_regular(h)
        # h is the longest regular proper ending
        for i in range(1, len(w) - len(h)):
            assert not is_regular(w[i:])


def test_bracketing_examples():
    assert bracketing("BA") == Bracket(Leaf("B"), Leaf("A"))
    assert str(bracketing("BBA")) == "[B,[B,A]]"
    with pytest.raises(ValueError):
        bracketing("AB")


def test_bracketing_recursion_matches_block_shapes():
    # <B^(m+1) A^n> = [B, <B^m A^n>] for m, n >= 1
    for m in range(1, 4):
        for n in range(1, 4):
            w = "B" * (m + 1) + "A" * n
            assert bracketing(w) == Bracket(Leaf("B"), bracketing("B" * m + "A" * n))
    # <B A^(n+1)> = [<B A^n>, A]
    for n in range(1, 5):
        w = "B" + "A" * (n + 1)
        assert bracketing(w) == Bracket(bracketing("B" + "A" * n), Leaf("A"))


def test_foliage_reconstructs_the_word():
    for w in enumerate_regular(12):
        assert bracketing(w).foliage() == w


def test_bracket_expansion_examples():
    assert bracket_expansion("A") == {"A": 1}
    assert bracket_expansion("BA") == {"BA": 1, "AB": -1}
    assert bracket_expansion("BBA") == {"BBA": 1, "BAB": -2, "ABB": 1}
    for w in ("AB", "", "ABA"):
        with pytest.raises(ValueError):
            bracket_expansion(w)


def test_bracket_expansion_matches_the_bracket_tree_reference():
    # the word dicts against the reference free algebra's bracket trees
    for w in enumerate_regular(12):
        assert bracket_expansion(w) == eval_monomial(bracketing(w)).terms, w


def test_left_normed_examples():
    assert left_normed({"A": 3}) == {"A": 3}
    assert left_normed({"BA": 1}) == {"BA": 1, "AB": -1}
    # [[A,B],A] = 2 ABA - AAB - BAA
    assert left_normed({"ABA": 1}) == {"ABA": 2, "AAB": -1, "BAA": -1}


def test_is_lie_examples():
    assert is_lie({}) and is_lie({"A": 2, "B": -1}) and is_lie({"AB": 1, "BA": -1})
    for f in ({"AB": 1}, {"AAB": 1}, {"AB": 1, "BA": 1}, {"AB": 1, "BA": -1, "": -1}, {"": 1}):
        assert not is_lie(f), f
    # theta(ABA) = -ABA: the necessary condition accepts ABA, the criterion does not
    assert passes_lie_necessary(FreeElement.word("ABA"))
    assert not is_lie({"ABA": 1}) and not is_lie({"AB": 1, "BA": -1, "ABA": 1})
    # coefficients in Q(q): the defining element is not Lie, at q = 0 neither
    assert not is_lie({"AB": RF_ONE, "BA": -RF_Q, "": -RF_ONE})
    assert not is_lie({"AB": RF_ONE, "": -RF_ONE})
    assert is_lie({"AB": RF_Q, "BA": -RF_Q})
    assert not is_lie({"AB": RF_Q, "BA": -RF_ONE})


REGULAR = enumerate_regular(8)


@st.composite
def lie_combinations(draw):
    """A random integer combination of the <w> with |w| = n, as a word dict."""
    n = draw(st.integers(1, 8))
    words = [w for w in REGULAR if len(w) == n]
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(words), max_size=len(words)))
    return add_terms({}, ((u, c * a) for w, c in zip(words, coeffs) for u, a in bracket_expansion(w).items()))


@settings(max_examples=150, deadline=None)
@given(lie_combinations(), st.text(alphabet="AB", min_size=2, max_size=8), st.integers(-5, 5).filter(bool))
def test_criterion_accepts_lie_combinations_and_rejects_an_added_word(f, u, c):
    # Lie polynomials form a subspace, and no single word of length >= 2 is in it
    assert is_lie(f)
    assert not is_lie(add_terms(dict(f), ((u, c),)))


@settings(max_examples=300, deadline=None)
@given(words_st, words_st)
def test_triangle_less_is_concatenation_comparison(v, w):
    assert triangle_less(v, w) == (v + w > w + v)
