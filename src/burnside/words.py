"""Free-group word algebra.

A word is a tuple of nonzero ints: +i is the i-th generator, -i its inverse.
Generators print as a..z, inverses as A..Z.  All functions are pure and all
words returned are freely reduced.
"""

from dataclasses import dataclass
from itertools import chain
from operator import add, indexOf
from typing import Iterable, Sequence

from .errors import EmptyWord

Word = tuple  # tuple[int, ...]

EMPTY: Word = ()

# deepest parenthesis nesting parse accepts
_MAX_NESTING = 200


def reduce_word(raw: Iterable[int]) -> Word:
    """Freely reduce a letter sequence (cancel adjacent x, x^-1).

    A reduced tuple is returned as it is, the same object.
    """
    w = raw if type(raw) is tuple else tuple(raw)
    if is_reduced(w):
        return w
    # letters are nonzero, so a zero sum of neighbours is a cancelling pair
    i = indexOf(map(add, w, w[1:]), 0)
    out = list(w[:i])
    for g in w[i:]:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def concat(*parts: Sequence[int]) -> Word:
    """Reduced product of several words."""
    return reduce_word(chain.from_iterable(parts))


def inverse(w: Sequence[int]) -> Word:
    return tuple(-g for g in reversed(w))


def is_reduced(w: Sequence[int]) -> bool:
    return 0 not in map(add, w, w[1:])


def common_prefix(a: Sequence[int], i: int, b: Sequence[int], j: int, cap: int) -> int:
    """Largest k <= cap with a[i:i+k] == b[j:j+k], by galloping slices.

    cap must not exceed the letters left in either word:
    cap <= min(len(a) - i, len(b) - j).
    """
    k, size = 0, 1
    while size <= cap - k and a[i + k:i + k + size] == b[j + k:j + k + size]:
        k += size
        size += size
    rest = min(size - 1, cap - k)
    while rest:
        half = (rest + 1) // 2
        if a[i + k:i + k + half] == b[j + k:j + k + half]:
            k += half
            rest -= half
        else:
            rest = half - 1
    return k


def common_suffix(a: Sequence[int], i: int, b: Sequence[int], j: int, cap: int) -> int:
    """Largest k <= cap with a[i-k:i] == b[j-k:j], by galloping slices.

    cap must not exceed the letters before either end: cap <= min(i, j).
    """
    k, size = 0, 1
    while size <= cap - k and a[i - k - size:i - k] == b[j - k - size:j - k]:
        k += size
        size += size
    rest = min(size - 1, cap - k)
    while rest:
        half = (rest + 1) // 2
        if a[i - k - half:i - k] == b[j - k - half:j - k]:
            k += half
            rest -= half
        else:
            rest = half - 1
    return k


def is_cyclically_reduced(w: Sequence[int]) -> bool:
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def cyclic_reduce(w: Sequence[int]) -> tuple[Word, Word]:
    """Split a reduced word as conjugator * core * conjugator^-1."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[i:j]), tuple(w[:i])


def cyclic_shifts(w: Sequence[int]) -> list[Word]:
    """All rotations of a cyclically reduced word (just the word if empty)."""
    w = tuple(w)
    if not w:
        return [w]
    seen = []
    for i in range(len(w)):
        s = w[i:] + w[:i]
        if s not in seen:
            seen.append(s)
    return seen


def power(w: Sequence[int], k: int) -> Word:
    """w^k, freely reduced."""
    if k < 0:
        w, k = inverse(w), -k
    return reduce_word(tuple(w) * k)


@dataclass(frozen=True)
class PrimitiveRoot:
    root: Word
    exponent: int


def primitive_root(w: Sequence[int]) -> PrimitiveRoot:
    """Largest k and shortest x with x^k = w; w must be cyclically reduced."""
    w = tuple(w)
    if not w:
        raise EmptyWord("primitive_root of the empty word")
    L = len(w)
    for p in range(1, L):
        if L % p == 0 and w == w[:p] * (L // p):
            return PrimitiveRoot(w[:p], L // p)
    return PrimitiveRoot(w, 1)


def is_primitive(w: Sequence[int]) -> bool:
    return primitive_root(w).exponent == 1


def letter_key(g: int) -> int:
    """Order a1 < a1^-1 < a2 < a2^-1 < ..."""
    return 2 * (abs(g) - 1) + (0 if g > 0 else 1)


def deglex_key(w: Sequence[int]):
    return (len(w), tuple(letter_key(g) for g in w))


def deglex_compare(c1: Sequence[int], c2: Sequence[int]) -> int:
    """-1, 0 or 1: shorter first, then lexicographic on letters."""
    k1, k2 = deglex_key(c1), deglex_key(c2)
    return (k1 > k2) - (k1 < k2)


def parse(text: str) -> Word:
    """Parse word syntax: letters a..z / A..Z, powers a^5, groups (ab)^-3."""
    pos = 0

    def seq(depth: int) -> list[int]:
        nonlocal pos
        out: list[int] = []
        while pos < len(text):
            ch = text[pos]
            if ch.isspace() or ch in "*.1":
                # "1" denotes the identity, matching format_word
                pos += 1
                continue
            if ch == ")":
                if depth == 0:
                    raise ValueError(f"unbalanced ')' at {pos}")
                return out
            if ch == "(":
                if depth == _MAX_NESTING:
                    raise ValueError(
                        f"parentheses nested deeper than {_MAX_NESTING} at {pos}"
                    )
                pos += 1
                grp = seq(depth + 1)
                if pos >= len(text) or text[pos] != ")":
                    raise ValueError("missing ')'")
                pos += 1
                e = expo()
                if e >= 0:
                    out.extend(grp * e)
                else:
                    out.extend([-g for g in reversed(grp)] * (-e))
                continue
            if ch.islower():
                atom = ord(ch) - ord("a") + 1
            elif ch.isupper():
                atom = -(ord(ch) - ord("A") + 1)
            else:
                raise ValueError(f"bad character {ch!r} at {pos}")
            pos += 1
            e = expo()
            if e >= 0:
                out.extend([atom] * e)
            else:
                out.extend([-atom] * (-e))
        return out

    def expo() -> int:
        nonlocal pos
        if pos < len(text) and text[pos] == "^":
            pos += 1
            start = pos
            if pos < len(text) and text[pos] == "-":
                pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start or text[start:pos] == "-":
                raise ValueError(f"bad exponent at {start}")
            return int(text[start:pos])
        return 1

    letters = seq(0)
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}")
    return reduce_word(letters)


def letter_str(g: int) -> str:
    if g > 0:
        return chr(ord("a") + g - 1)
    return chr(ord("A") - g - 1)


def format_word(w: Sequence[int], compress_powers: bool = True) -> str:
    """Render a word; letter runs print as a^e with signed exponent."""
    if not w:
        return "1"
    if not compress_powers:
        return "".join(letter_str(g) for g in w)
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        g = w[i]
        if run == 1:
            out.append(letter_str(g))
        elif g > 0:
            out.append(f"{letter_str(g)}^{run}")
        else:
            out.append(f"{letter_str(-g)}^-{run}")
        i = j
    return "".join(out)
