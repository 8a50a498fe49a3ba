"""Fractional powers, common power prefixes, runs, periodic shifts."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside.errors import (
    BadRegime,
    CommutingPeriods,
    NotAPrefixOfPower,
    NotAFractionalPower,
    SpanOutOfRange,
)
from burnside.periodicity import (
    common_power_prefix,
    decompose,
    find_runs,
    lambda_measure,
    periodic_shifts,
    runs_of_period,
)
from burnside.support import has_overlap_factor
from burnside.words import EMPTY, parse

MEASURES = [0, 1, Fraction(3, 2), Fraction(5, 3), 2, Fraction(5, 2), 16,
            Fraction(429, 2)]


def test_lambda_measure_examples():
    assert lambda_measure(parse("ababa"), parse("ab")) == Fraction(5, 2)
    assert lambda_measure(parse("a"), parse("ab")) == Fraction(1, 2)
    assert lambda_measure(EMPTY, parse("ab")) == 0


def test_lambda_measure_accepts_any_phase():
    # ba is a factor of (ab)^inf, just shifted
    assert lambda_measure(parse("ba"), parse("ab")) == 1


def test_lambda_measure_rejects_mismatch():
    with pytest.raises(NotAFractionalPower):
        lambda_measure(parse("aa"), parse("ab"))


def test_common_power_prefix_examples():
    prefix, bound = common_power_prefix(parse("ab"), parse("aab"))
    assert prefix == parse("a") and bound == 4
    prefix, bound = common_power_prefix(parse("ab"), parse("aba"))
    assert prefix == parse("aba") and bound == 4
    with pytest.raises(CommutingPeriods):
        common_power_prefix(parse("ab"), parse("abab"))
    with pytest.raises(CommutingPeriods):
        common_power_prefix(parse("ab"), parse("BA"))


def test_decompose_examples():
    fp = decompose(parse("ababa"), parse("ab"))
    assert fp.k == 2 and fp.a1 == parse("a")
    fp = decompose(parse("abaab"), parse("aba"))
    assert fp.k == 1 and fp.a1 == parse("ab")
    with pytest.raises(NotAPrefixOfPower):
        decompose(parse("ba"), parse("ab"))


def test_periodic_shifts_examples():
    offs = periodic_shifts(parse("aab"), 3, (0, 2))
    assert set(offs) == {0, 3, 6} and len(offs) >= 1
    offs = periodic_shifts(parse("ab"), 4, (0, 4))
    assert set(offs) == {0, 2, 4} and len(offs) >= 2
    with pytest.raises(BadRegime):
        periodic_shifts(parse("ab"), 2, (0, 2))
    with pytest.raises(SpanOutOfRange):
        periodic_shifts(parse("ab"), 3, (5, 4))


def test_find_runs_letter_power():
    runs = find_runs(parse("ba^5b"), min_measure=2)
    assert (1, 5, (1,)) in runs


def test_find_runs_two_letter_period():
    runs = find_runs(parse("c(ab)^3c"), min_measure=2)
    spans = [(s, l) for s, l, p in runs if p == parse("ab")]
    assert (1, 6) in spans


def test_find_runs_skips_imprimitive_periods():
    # the period at length 4 inside (ab)^4 is abab = (ab)^2: not listed
    runs = find_runs(parse("(ab)^4"), min_measure=1)
    assert all(len(p) != 4 for _, _, p in runs)


def test_find_runs_no_trivial_measure_one():
    runs = find_runs(parse("abcd"), min_measure=1)
    assert runs == []


def test_find_runs_sorted_and_maximal():
    w = parse("a^20ba^30")
    runs = find_runs(w, min_measure=5)
    assert runs == sorted(runs, key=lambda r: (r[0], -r[1]))
    assert (0, 20, (1,)) in runs and (21, 30, (1,)) in runs


def _oracle_blocks(w):
    """Every maximal w[i] == w[i+p] block with a primitive aligned period.

    (start, length, period) per block, periods in increasing length and
    blocks left to right, straight from the definition.
    """
    L = len(w)
    out = []
    for p in range(1, L):
        i = 0
        while i < L - p:
            j = i
            while j < L - p and w[j] == w[j + p]:
                j += 1
            if j > i:
                period = w[i:i + p]
                if all(period != period[:d] * (p // d)
                       for d in range(1, p) if p % d == 0):
                    out.append((i, j - i + p, period))
            i = j + 1
    return out


def _oracle_runs(blocks, min_measure):
    kept = [b for b in blocks if Fraction(b[1], len(b[2])) >= min_measure]
    return sorted(kept, key=lambda b: (b[0], -b[1]))


def _assert_matches_oracle(w):
    blocks = _oracle_blocks(w)
    for m in MEASURES:
        assert find_runs(w, m) == _oracle_runs(blocks, m), (w, m)
    for p in (1, 2, 3, 7):
        assert runs_of_period(w, p) == [b for b in blocks if len(b[2]) == p], (w, p)


def test_find_runs_matches_oracle_exhaustive():
    for L in range(8):
        for w in product((1, -1, 2, -2), repeat=L):
            _assert_matches_oracle(w)


@st.composite
def near_periodic_words(draw):
    letters = st.sampled_from((1, -1, 2, -2))
    base = draw(st.lists(letters, min_size=1, max_size=12))
    w = (base * draw(st.integers(1, 300)))[:draw(st.integers(1, 300))]
    for i in draw(st.lists(st.integers(0, len(w) - 1), max_size=4)):
        w[i] = draw(st.sampled_from((1, -1, 2, -2, 3)))
    return tuple(w)


@given(near_periodic_words())
@settings(max_examples=60, deadline=None)
def test_find_runs_matches_oracle_near_periodic(w):
    _assert_matches_oracle(w)


def test_has_overlap_factor_matches_definition():
    for L in range(13):
        for w in product((1, 2), repeat=L):
            overlap = any(
                all(w[k] == w[k + p] for k in range(i, i + p + 1))
                for p in range(1, L)
                for i in range(L - 2 * p)
            )
            assert has_overlap_factor(w) == overlap, w
