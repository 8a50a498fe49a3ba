"""Word primitives against letter-by-letter definitions.

reduce_word, is_reduced, the rank-1 canonical form and the galloping
common prefix/suffix all work on whole slices; here each is compared with
the plain letter loop it replaces, or with balanced_residue_oracle.
"""

from itertools import chain, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnside.canonical import can1_word, can_word
from burnside.config import LAB, default_params, make_params
from burnside.support import balanced_residue_oracle
from burnside.words import common_prefix, common_suffix, is_reduced, reduce_word

ALPHABET = (1, -1, 2, -2)
SHORT_RAW = [w for L in range(9) for w in product(ALPHABET, repeat=L)]


def loop_reduce(raw):
    out = []
    for g in raw:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def loop_is_reduced(w):
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def loop_prefix(a, i, b, j, cap):
    k = 0
    while k < cap and a[i + k] == b[j + k]:
        k += 1
    return k


def loop_suffix(a, i, b, j, cap):
    k = 0
    while k < cap and a[i - 1 - k] == b[j - 1 - k]:
        k += 1
    return k


def longest_letter_run(w):
    best, cur = 0, 0
    for i, g in enumerate(w):
        cur = cur + 1 if i and w[i - 1] == g else 1
        best = max(best, cur)
    return best


def test_reduce_matches_letter_loop_exhaustive():
    for raw in SHORT_RAW:
        want = loop_reduce(raw)
        got = reduce_word(raw)
        assert got == want and type(got) is tuple
        assert reduce_word(list(raw)) == want
        assert is_reduced(raw) == loop_is_reduced(raw)
        if loop_is_reduced(raw):
            assert got is raw


@pytest.mark.parametrize("n", [3, 5])
def test_can1_matches_oracle_exhaustive(n):
    params = make_params(n, 2, LAB)
    for w in {loop_reduce(raw) for raw in SHORT_RAW}:
        want = balanced_residue_oracle(w, params)
        assert can_word(w, 1, params) == want
        assert can1_word(w, params) == want
        if longest_letter_run(w) <= n // 2:
            assert can1_word(w, params) is w


def test_common_prefix_suffix_exhaustive():
    words = [w for L in range(5) for w in product((1, 2), repeat=L)]
    for a, b in product(words, repeat=2):
        for i, j in product(range(len(a) + 1), range(len(b) + 1)):
            for cap in range(min(len(a) - i, len(b) - j) + 1):
                assert common_prefix(a, i, b, j, cap) == loop_prefix(a, i, b, j, cap)
            for cap in range(min(i, j) + 1):
                assert common_suffix(a, i, b, j, cap) == loop_suffix(a, i, b, j, cap)


# strict regime: runs at the edges of the rank-1 window and whole relators
N = default_params().n
RUN_LENGTHS = (1, N // 2, N // 2 + 1, N - 1, N, 2 * N, 3 * N + 1)
runs = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.sampled_from(RUN_LENGTHS)),
    min_size=1,
    max_size=6,
)


def spell(spec):
    return tuple(chain.from_iterable((g,) * e for g, e in spec))


@given(runs, runs)
@settings(max_examples=150, deadline=None)
@example([(1, N // 2 + 1)], [(2, 1)])  # sign flip
@example([(1, N // 2), (2, N), (-1, N // 2)], [(1, 1)])  # relator, then cancel
@example([(1, N // 2 + 1), (2, 2 * N), (1, N // 2 + 1)], [(2, N)])  # merge
@example([(1, N + 3), (-1, N - 1), (2, 1)], [(-2, N // 2)])  # cancelling seam
def test_long_runs_match_letter_loops(spec, tail):
    params = default_params()
    raw = spell(spec)
    w = reduce_word(raw)
    assert w == loop_reduce(raw)
    assert is_reduced(raw) == loop_is_reduced(raw)
    want = balanced_residue_oracle(raw, params)
    assert can_word(raw, 1, params) == want
    assert can1_word(w, params) == want
    if longest_letter_run(w) <= N // 2:
        assert can1_word(w, params) is w
    # two hosts that differ in one window, as a turn leaves them
    a, b = w + spell(tail) + w, w + spell(tail[::-1]) + w
    cap = min(len(a), len(b))
    assert common_prefix(a, 0, b, 0, cap) == loop_prefix(a, 0, b, 0, cap)
    assert common_suffix(a, len(a), b, len(b), cap) == loop_suffix(
        a, len(a), b, len(b), cap
    )
