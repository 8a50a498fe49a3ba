"""Maximal occurrences of a given rank, their complements and isolation."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import Params, default_params
from .errors import OverlappingSpansOrderedWrong, SpanOutOfRange
from .periodicity import find_runs, runs_of_period
from .relators import classify_rank
from .words import Word, common_prefix, common_suffix, inverse

ISOLATED = "Isolated"
STRONGLY_ISOLATED = "StronglyIsolated"
CLOSE_NEIGHBOURS = "CloseNeighbours"


@dataclass(frozen=True)
class Occurrence:
    host: Word
    start: int
    length: int
    period: Word  # aligned: host[start : start+|period|] == period
    rank: int

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def content(self) -> Word:
        return self.host[self.start:self.end]

    @property
    def k(self) -> int:
        return self.length // len(self.period)

    @property
    def a1(self) -> Word:
        return self.period[: self.length % len(self.period)]

    @property
    def measure(self) -> Fraction:
        return Fraction(self.length, len(self.period))

    def cyclic_class(self) -> Word:
        p = self.period
        return min(p[i:] + p[:i] for i in range(len(p)))


def occurrence_from_run(
    host: Word, start: int, length: int, period: Word,
    params: Params | None = None, rank: int | None = None,
) -> Occurrence:
    if rank is None:
        rank = classify_rank(period, params)
    if start < 0 or start + length > len(host):
        raise SpanOutOfRange(f"({start}, {length}) in word of length {len(host)}")
    return Occurrence(host, start, length, period, rank)


def maximal_occurrences(
    A: Sequence[int],
    rank: int,
    min_measure=1,
    params: Params | None = None,
) -> list[Occurrence]:
    """All maximal rank-`rank` occurrences with measure >= min_measure.

    Listed left to right; ties broken by longer span first.  Measure-1
    occurrences (arbitrary short factors) are not enumerated.
    """
    params = params or default_params()
    A = tuple(A)
    out = []
    for start, length, period in find_runs(A, min_measure=min_measure):
        if classify_rank(period, params) == rank:
            out.append(Occurrence(A, start, length, period, rank))
    return out


def complement(occ: Occurrence, params: Params | None = None, shift: int = 1) -> Word:
    """The other side of the relator: v = a^-n * u (or a^n * u for shift=-1).

    Returned reduced; u * v^-1 is a^(shift*n) in the free group.
    """
    params = params or default_params()
    n = params.n
    a, k, a1 = occ.period, occ.k, occ.a1
    if shift == -1:
        return a * (k + n) + a1
    if k >= n:
        return a * (k - n) + a1
    a2 = a[len(a1):]
    return inverse(a) * (n - k - 1) + inverse(a2)


def _tau_power_count(gap: Word, rank: int, params: Params) -> int:
    """Max number of disjoint rank-`rank` tau-power factors in the gap."""
    tau = params.tau
    chunks = []
    for s, l, period in find_runs(gap, min_measure=tau):
        if classify_rank(period, params) != rank:
            continue
        size = tau * len(period)
        for i in range(l // size):
            chunks.append((s + i * size, s + (i + 1) * size))
    chunks.sort(key=lambda c: c[1])
    count, free = 0, 0
    for a, b in chunks:
        if a >= free:
            count += 1
            free = b
    return count


def classify_isolation(
    A: Sequence[int], u: Occurrence, w: Occurrence,
    params: Params | None = None,
) -> str:
    """Isolation of two occurrences, u entirely to the left of w."""
    params = params or default_params()
    A = tuple(A)
    if u.start >= w.start or (u.start, u.length) == (w.start, w.length):
        raise OverlappingSpansOrderedWrong(
            f"expected u left of w, got spans {(u.start, u.length)}, {(w.start, w.length)}"
        )
    if u.end >= w.start:
        return CLOSE_NEIGHBOURS
    count = _tau_power_count(A[u.end:w.start], u.rank, params)
    if count >= 3:
        return STRONGLY_ISOLATED
    if count >= 1:
        return ISOLATED
    return CLOSE_NEIGHBOURS


def corresponding_occurrence(
    old_host: Word, new_host: Word, occ: Occurrence,
    params: Params | None = None,
) -> Occurrence | None:
    """Track an occurrence through a local edit of its host.

    If the occurrence sits entirely in the unchanged prefix or suffix it maps
    over directly; otherwise the maximal run in the new host with the same
    period class nearest the expected span is returned, or None if no such
    run survives.
    """
    params = params or default_params()
    dl = len(new_host) - len(old_host)
    shorter = min(len(old_host), len(new_host))
    lcp = common_prefix(old_host, 0, new_host, 0, shorter)
    lcs = common_suffix(old_host, len(old_host), new_host, len(new_host), shorter)
    overlap = lcp + lcs - shorter
    if overlap > 0:
        lcs -= overlap
    if occ.end <= lcp:
        return Occurrence(new_host, occ.start, occ.length, occ.period, occ.rank)
    if occ.start >= len(old_host) - lcs:
        return Occurrence(new_host, occ.start + dl, occ.length, occ.period, occ.rank)
    p = len(occ.period)
    cls = occ.cyclic_class()
    spans = [(occ.start, occ.end), (occ.start + dl, occ.end + dl)]
    best = None
    for s, l, period in runs_of_period(new_host, p):
        if min(period[i:] + period[:i] for i in range(p)) != cls:
            continue
        score = max(min(s + l, hi) - max(s, lo) for lo, hi in spans)
        if best is None or score > best[0]:
            best = (score, s, l, period)
    if best is None or best[0] <= 0:
        return None
    _, s, l, period = best
    return Occurrence(new_host, s, l, period, occ.rank)


def are_essentially_non_isolated(
    A: Sequence[int], u: Occurrence, w: Occurrence, r: int,
    params: Params | None = None,
) -> bool:
    """Decide essential non-isolation by executing the trial turns.

    True iff for some side choice of one occurrence, turning it changes the
    occurrence corresponding to the other.
    """
    from .turns import turn  # deferred: turns depends on this module

    params = params or default_params()
    if (u.start, u.length) == (w.start, w.length):
        raise OverlappingSpansOrderedWrong("occurrences coincide")
    A = tuple(A)

    def changes(x: Occurrence, y: Occurrence) -> bool:
        tr = turn(A, x, r, params)
        cy = corresponding_occurrence(A, tr.result, y, params)
        return cy is None or cy.content != y.content

    if changes(u, w) or changes(w, u):
        return True
    # complement sides: turn one, then test the other against the remainder
    for first, second in ((u, w), (w, u)):
        tr = turn(A, first, r, params)
        if tr.vhat_span is None:
            continue
        vs, vl = tr.vhat_span
        vhat = Occurrence(tr.result, vs, vl, tr.result[vs:vs + len(first.period)], r)
        cs = corresponding_occurrence(A, tr.result, second, params)
        if cs is None:
            return True
        tr2 = turn(tr.result, cs, r, params)
        cv = corresponding_occurrence(tr.result, tr2.result, vhat, params)
        if cv is None or cv.content != vhat.content:
            return True
    return False
