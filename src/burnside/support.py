"""Control sequence, cube-free word streams, and brute-force oracles."""

from collections import deque
from itertools import groupby
from typing import Iterator, Sequence

from .config import Params, default_params
from .periodicity import find_runs
from .words import Word, inverse, reduce_word


def control_m(i: int) -> int:
    """Overlap-free control value in {1, 2} (Thue-Morse, 0/1 mapped to 1/2)."""
    if i < 1:
        raise ValueError("index starts at 1")
    return 1 + (bin(i - 1).count("1") & 1)


def has_overlap_factor(seq: Sequence[int]) -> bool:
    """True if seq contains a factor B B b with b a nonempty prefix of B.

    A BBb factor with |B| = p is a period-p segment of length >= 2p + 1,
    and a non-primitive period is reported at its root, so this is a
    measure-2 run longer than twice its period.
    """
    return any(l > 2 * len(per) for _, l, per in find_runs(seq, 2))


def _has_cube_suffix(w: list[int]) -> bool:
    L = len(w)
    for l in range(1, L // 3 + 1):
        if w[L - l:] == w[L - 2 * l:L - l] == w[L - 3 * l:L - 2 * l]:
            return True
    return False


def cube_free_words(length: int) -> Iterator[Word]:
    """All cube-free words of the given length over {a, b}, lexicographic."""
    if length < 1:
        return
    w: list[int] = []

    def rec():
        if len(w) == length:
            yield tuple(w)
            return
        for g in (1, 2):
            w.append(g)
            if not _has_cube_suffix(w):
                yield from rec()
            w.pop()

    yield from rec()


def cube_free_stream(count: int) -> Iterator[Word]:
    """The first `count` cube-free words over {a, b}, by length then lex."""
    emitted = 0
    length = 1
    while emitted < count:
        for w in cube_free_words(length):
            yield w
            emitted += 1
            if emitted == count:
                return
        length += 1


def balanced_residue_oracle(A: Sequence[int], params: Params | None = None) -> Word:
    """Normal form in the free product of cyclic groups of order n.

    Naive fixpoint: rewrite every letter-run exponent to its balanced
    residue mod n, freely reduce, repeat until nothing changes.
    """
    params = params or default_params()
    n = params.n
    w = reduce_word(A)
    while True:
        parts: list[int] = []
        for g, grp in groupby(w):
            e = len(list(grp))
            if g < 0:
                g, e = -g, -e
            e %= n
            if e > n // 2:
                e -= n
            parts.extend([g if e > 0 else -g] * abs(e))
        nxt = reduce_word(parts)
        if nxt == w:
            return w
        w = nxt


def _letter_normal_form(w: Word, letter_set: frozenset, n: int) -> Word:
    """Balanced-residue normal form for the letters with a letter relator.

    Confluent for the free product of the cyclic groups generated by the
    letters in letter_set, so two states are equal there iff their normal
    forms coincide.
    """
    while True:
        parts: list[int] = []
        for g, grp in groupby(w):
            e = len(list(grp))
            if g < 0:
                g, e = -g, -e
            if g in letter_set:
                e %= n
                if e > n // 2:
                    e -= n
            parts.extend([g if e > 0 else -g] * abs(e))
        nxt = reduce_word(parts)
        if nxt == w:
            return w
        w = nxt


def bfs_equivalent(
    A: Sequence[int],
    B: Sequence[int],
    relator_periods: Sequence[Sequence[int]],
    n: int,
    budget: int = 1_000_000,
) -> str:
    """Semidecision of A = B modulo the n-th powers of the given periods.

    States are normalized modulo the single-letter relators (exact normal
    form), then explored by BFS over insertions of the longer relator
    conjugates, capped in length.  'Yes' is sound; 'Unknown' means the
    budget ran out.
    """
    letters = frozenset(abs(x[0]) for x in relator_periods if len(x) == 1)

    def norm(w):
        return _letter_normal_form(reduce_word(w), letters, n)

    A, B = norm(A), norm(B)
    if A == B:
        return "Yes"
    rels = []
    for x in relator_periods:
        x = tuple(x)
        if len(x) == 1:
            continue
        for s in range(len(x)):
            rot = x[s:] + x[:s]
            for r in (rot * n, inverse(rot * n)):
                if r not in rels:
                    rels.append(r)
    if not rels:
        return "Unknown"
    cap = len(A) + len(B) + 2 * n * max(len(x) for x in relator_periods)
    seen = {A}
    queue = deque([A])
    visited = 0
    while queue and visited < budget:
        state = queue.popleft()
        visited += 1
        for i in range(len(state) + 1):
            for rel in rels:
                nxt = norm(state[:i] + rel + state[i:])
                if nxt == B:
                    return "Yes"
                if len(nxt) <= cap and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return "Unknown"
