"""Free group words: reduction, cyclic structure, ordering, text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside.words import (
    EMPTY,
    concat,
    cyclic_reduce,
    cyclic_shifts,
    deglex_compare,
    format_word,
    inverse,
    is_cyclically_reduced,
    is_reduced,
    parse,
    power,
    primitive_root,
    reduce_word,
)

letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, max_size=40).map(tuple)


def test_reduce_examples():
    assert reduce_word(parse("abBa")) == parse("aa")
    assert reduce_word((1, -1)) == EMPTY
    # c is the third generator
    assert reduce_word((2, -1, 1, -2, 3)) == (3,)


def test_cyclic_reduce_examples():
    assert cyclic_reduce(parse("baB")) == ((1,), (2,))
    assert cyclic_reduce(parse("ab")) == ((1, 2), EMPTY)
    assert cyclic_reduce(parse("Baab")) == ((1, 1), (-2,))


def test_cyclic_reduce_reassembles():
    for text in ("baB", "ab", "Baab", "abABba"):
        w = reduce_word(parse(text))
        core, conj = cyclic_reduce(w)
        assert reduce_word(conj + core + inverse(conj)) == w
        assert is_cyclically_reduced(core)


def test_primitive_root_examples():
    assert primitive_root(parse("abab")) == primitive_root(parse("ab")).__class__(
        root=(1, 2), exponent=2
    )
    assert primitive_root(parse("aba")).exponent == 1
    r = primitive_root(parse("aaa"))
    assert r.root == (1,) and r.exponent == 3


def test_deglex_examples():
    assert deglex_compare(parse("ab"), parse("b")) > 0
    assert deglex_compare(parse("ab"), parse("ab")) == 0
    # letter order a < a^-1 < b < b^-1
    assert deglex_compare(parse("ab"), parse("ba")) < 0
    assert deglex_compare(parse("a"), parse("A")) < 0
    assert deglex_compare(parse("A"), parse("b")) < 0
    assert deglex_compare(parse("b"), parse("B")) < 0


def test_cyclic_shifts_examples():
    assert set(cyclic_shifts(parse("aab"))) == {
        parse("aab"), parse("aba"), parse("baa")
    }
    assert cyclic_shifts(EMPTY) == [EMPTY]


def test_inverse_examples():
    assert inverse(parse("ab")) == parse("BA")
    assert inverse(EMPTY) == EMPTY


def test_parse_and_format():
    assert parse("a^5") == (1,) * 5
    assert parse("(ab)^-3") == parse("BABABA")
    assert parse("a^-2") == (-1, -1)
    assert format_word(parse("a^5")) == "a^5"
    assert format_word(EMPTY) == "1"
    assert parse("1") == EMPTY
    assert format_word(parse("ab"), compress_powers=False) == "ab"


def test_parse_nesting_bound():
    assert parse("(" * 200 + "a" + ")" * 200) == (1,)
    with pytest.raises(ValueError, match="nested deeper than 200"):
        parse("(" * 201 + "a" + ")" * 201)


def test_parse_format_round_trip():
    for text in ("a", "ab", "a^17Ba^-4", "BAba"):
        w = parse(text)
        assert parse(format_word(w)) == w


def test_power_and_concat():
    assert power(parse("ab"), 3) == parse("ababab")
    assert power(parse("ab"), -1) == parse("BA")
    assert concat(parse("ab"), parse("BA")) == EMPTY


@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert is_reduced(r)
    assert reduce_word(r) == r


@given(raw_words)
def test_reduce_inverse_cancels(w):
    r = reduce_word(w)
    assert reduce_word(r + inverse(r)) == EMPTY


@given(raw_words, raw_words, raw_words)
@settings(max_examples=50)
def test_deglex_total_order(a, b, c):
    a, b, c = reduce_word(a), reduce_word(b), reduce_word(c)
    assert deglex_compare(a, b) == -deglex_compare(b, a)
    if deglex_compare(a, b) <= 0 and deglex_compare(b, c) <= 0:
        assert deglex_compare(a, c) <= 0
    if deglex_compare(a, b) == 0:
        assert a == b
    if len(a) != len(b):
        assert (deglex_compare(a, b) < 0) == (len(a) < len(b))
