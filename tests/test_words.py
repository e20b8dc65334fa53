"""Regular words, the concatenation order, factorization, bracketing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.words import (
    Bracket,
    Leaf,
    bracketing,
    enumerate_regular,
    factorize,
    is_regular,
    triangle_less,
)

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


@settings(max_examples=300, deadline=None)
@given(words_st, words_st)
def test_triangle_less_is_concatenation_comparison(v, w):
    assert triangle_less(v, w) == (v + w > w + v)
