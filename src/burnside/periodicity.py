"""Fractional powers, periodic runs, and common-prefix bounds."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import (
    BadRegime,
    CommutingPeriods,
    NotAFractionalPower,
    NotAPrefixOfPower,
    PeriodNotPrimitive,
    SpanOutOfRange,
)
from .words import (
    Word,
    common_prefix,
    common_suffix,
    inverse,
    is_primitive,
    primitive_root,
)


@dataclass(frozen=True)
class FractionalPower:
    u: Word
    period: Word
    k: int
    a1: Word

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.u), len(self.period))


def lambda_measure(u: Sequence[int], period: Sequence[int]) -> Fraction:
    """|u| / |period|, after checking u really is a factor of period^N."""
    u, period = tuple(u), tuple(period)
    p = len(period)
    if p == 0:
        raise NotAFractionalPower("empty period")
    if not is_primitive(period):
        raise PeriodNotPrimitive(repr(period))
    if u:
        for phase in range(p):
            if all(u[i] == period[(phase + i) % p] for i in range(len(u))):
                break
        else:
            raise NotAFractionalPower(f"{u!r} is not a factor of a power of {period!r}")
    return Fraction(len(u), p)


def decompose(u: Sequence[int], period: Sequence[int]) -> FractionalPower:
    """Write a prefix of period^N as period^k * a1."""
    u, period = tuple(u), tuple(period)
    p = len(period)
    if p == 0 or any(u[i] != period[i % p] for i in range(len(u))):
        raise NotAPrefixOfPower(f"{u!r} is not a prefix of a power of {period!r}")
    return FractionalPower(u, period, len(u) // p, u[len(u) - len(u) % p:])


def common_power_prefix(x: Sequence[int], y: Sequence[int]) -> tuple[Word, int]:
    """Longest common prefix of x^inf and y^inf, plus the |x|+|y|-gcd bound."""
    x, y = tuple(x), tuple(y)
    rx, ry = primitive_root(x).root, primitive_root(y).root
    if ry == rx or ry == inverse(rx):
        raise CommutingPeriods(f"{x!r} and {y!r} share a root")
    bound = len(x) + len(y) - gcd(len(x), len(y))
    cap = bound + len(x) + len(y)
    i = 0
    while i < cap and x[i % len(x)] == y[i % len(y)]:
        i += 1
    return tuple(x[j % len(x)] for j in range(i)), bound


def periodic_shifts(X: Sequence[int], K: int, span: tuple[int, int]) -> list[int]:
    """Offsets of all |X|-translates of span inside X^K."""
    X = tuple(X)
    if not is_primitive(X):
        raise PeriodNotPrimitive(repr(X))
    if K < 3:
        raise BadRegime(f"need K >= 3, got {K}")
    off, length = span
    total = K * len(X)
    if off < 0 or length < 0 or off + length > total:
        raise SpanOutOfRange(f"span {span} outside X^{K}")
    lo = off % len(X)
    return [o for o in range(lo, total - length + 1, len(X))]


def _scan_period(w: Word, p: int, need: int) -> list[tuple[int, int, Word]]:
    """Maximal period-p segments whose match block has >= need positions.

    The match block of a segment is the maximal [s, e) with w[i] == w[i+p]
    for s <= i < e; the segment is w[s:e+p].  Any need consecutive
    positions hold a multiple of step = max(1, need), so probing only those
    anchors finds every block that is long enough.
    """
    step = max(1, need)
    lim = len(w) - p
    out = []
    i = 0
    while i < lim:
        if w[i] != w[i + p]:
            i += step
            continue
        # the anchor step back mismatched or lay before the last block's end
        s = i - common_suffix(w, i, w, i + p, min(i, step - 1))
        e = i + 1 + common_prefix(w, i + 1, w, i + 1 + p, lim - i - 1)
        if e - s >= need:
            period = w[s:s + p]
            if p == 1 or is_primitive(period):
                out.append((s, e - s + p, period))
        i = -(-(e + 1) // step) * step
    return out


def runs_of_period(w: Sequence[int], p: int) -> list[tuple[int, int, Word]]:
    """The period-p entries of find_runs(w, 1), left to right.

    Every maximal segment of w with period p that is longer than p, as
    (start, length, aligned period), skipping segments whose aligned period
    is not primitive.
    """
    return _scan_period(tuple(w), p, 0)


def find_runs(
    w: Sequence[int], min_measure: Fraction | int = 1
) -> list[tuple[int, int, Word]]:
    """Maximal periodic segments (start, length, aligned primitive period).

    For every period length p, a segment is a maximal w[s:e+p] with
    w[i] == w[i+p] on [s, e).  It is listed when its measure length/p is at
    least min_measure, compared exactly as length*den >= num*p.  A segment
    is always longer than its period, so trivial measure-1 occurrences
    (every factor is one) are never listed.  Non-primitive aligned periods
    are skipped: the same segment is reported at the primitive period
    length.  The output is sorted by (start, -length), ties by period length.

    Below measure 2 one segment can carry several periods, and each is
    listed: aabaa gives (0, 5, aab) and (0, 5, aaba), and aba gives
    (0, 3, ab).  From measure 2 on, Fine and Wilf leave one period per
    segment.

    Cost: a listed segment has a match block of at least
    need = ceil((num - den) * p / den) positions, so only every
    max(1, need)-th position is probed, and each probe that matches is
    extended both ways by galloping slice compares.  For min_measure
    m >= 2 that is O(L log L / (m - 1)) probes over all periods; up to
    measure 1 every position of every period is probed, O(L^2).
    """
    w = tuple(w)
    L = len(w)
    num, den = min_measure.numerator, min_measure.denominator
    pm = L - 1 if num <= den else min(L - 1, L * den // num)
    out: list[tuple[int, int, Word]] = []
    for p in range(1, pm + 1):
        out.extend(_scan_period(w, p, -((den - num) * p // den)))
    out.sort(key=lambda t: (t[0], -t[1]))
    return out
