"""Turns: replace a maximal occurrence by its complement, smooth at rank r-1."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import Params, default_params
from .errors import (
    NoInverse,
    NotMaximal,
    NotStable,
    RankMismatch,
    SidesNotFree,
    SpanOutOfRange,
)
from .occurrences import (
    CLOSE_NEIGHBOURS,
    Occurrence,
    classify_isolation,
    complement,
    corresponding_occurrence,
    maximal_occurrences,
)
# find_runs stays bound here: perfbench's tracer test checks that its wrapper
# reaches every module namespace that names it.
from .periodicity import find_runs, runs_of_period  # noqa: F401
from .relators import is_tau_free
from .words import EMPTY, Word, common_prefix, common_suffix, inverse, reduce_word

TYPE1, TYPE2, TYPE3 = "Type1", "Type2", "Type3"


@dataclass(frozen=True)
class TurnResult:
    host: Word
    occ: Occurrence
    result: Word
    type_tag: str
    remainder: Word
    remainder_span: tuple | None
    vhat_span: tuple | None
    left_prefix: Word
    right_suffix: Word
    triangle_left: tuple  # (D1, D2, D3)
    triangle_right: tuple  # (E1, E2, E3)
    rank: int
    shift: int


def _can_prev(w: Sequence[int], r: int, params: Params) -> Word:
    if r <= 1:
        return reduce_word(w)
    from .canonical import can_word

    return can_word(w, r - 1, params)


def _cyc_class(p: Word) -> Word:
    return min(p[i:] + p[:i] for i in range(len(p)))


def _extend_run(w: Word, s: int, e: int, p: int) -> tuple[int, int]:
    while s > 0 and s - 1 + p < e + p and s - 1 + p < len(w) and w[s - 1] == w[s - 1 + p]:
        s -= 1
    while e < len(w) and e - p >= s and w[e] == w[e - p]:
        e += 1
    return s, e


def turn(
    A: Sequence[int],
    occ: Occurrence,
    r: int,
    params: Params | None = None,
    shift: int = 1,
) -> TurnResult:
    """Replace occ by its complement and canonicalize at rank r-1.

    shift=1 multiplies by a^-n (the normal direction); shift=-1 by a^n,
    which is what inverting a turn of a same-sign remainder needs.
    """
    params = params or default_params()
    A = tuple(A)
    if occ.host != A:
        raise SpanOutOfRange("occurrence does not belong to this word")
    if occ.rank != r:
        raise RankMismatch(f"occurrence rank {occ.rank}, turn rank {r}")
    p = len(occ.period)
    s, e = _extend_run(A, occ.start, occ.end, p)
    if (s, e) != (occ.start, occ.end):
        if occ.k >= params.tau + 1:
            occ = Occurrence(A, s, e - s, A[s:s + p], occ.rank)
        else:
            raise NotMaximal(
                f"occurrence at {occ.start} extends to ({s}, {e - s})"
            )
    L, R = A[:occ.start], A[occ.end:]
    v = complement(occ, params, shift)
    raw = L + v + R
    B = _can_prev(raw, r, params)

    vp = len(occ.period)
    same_sign = shift == -1 or occ.k >= params.n
    v_cls = _cyc_class(occ.period if same_sign else inverse(occ.period))

    # B is reduced, so B == raw also says raw is
    if B == raw:
        span = (len(L), len(v)) if v else None
        vhat = None
        if v and len(v) > vp:
            vs, ve = _extend_run(B, len(L), len(L) + len(v), vp)
            vhat = (vs, ve - vs)
        return TurnResult(
            A, occ, B, TYPE1, v, span, vhat, L, R,
            (EMPTY, EMPTY, EMPTY), (EMPTY, EMPTY, EMPTY), r, shift,
        )

    l1 = common_prefix(B, 0, L, 0, min(len(B), len(L)))
    r1 = common_suffix(B, len(B), R, len(R), min(len(B), len(R)))
    if l1 + r1 > len(B):
        r1 = len(B) - l1
    mid_lo, mid_hi = l1, len(B) - r1
    best = None
    for rs, rl, rper in runs_of_period(B, vp):
        if _cyc_class(rper) != v_cls:
            continue
        ov = min(rs + rl, mid_hi) - max(rs, mid_lo)
        if ov > 0 and (best is None or ov > best[0]):
            best = (ov, rs, rl)

    D1, E2 = L[l1:], R[: len(R) - r1]
    if best is None:
        D3, E3 = B[mid_lo:mid_hi], EMPTY
        _assert_sides_free(D3, E3, r, params)
        return TurnResult(
            A, occ, B, TYPE3, EMPTY, None, None, B[:l1], B[len(B) - r1:],
            (D1, EMPTY, D3), (EMPTY, E2, E3), r, shift,
        )

    _, vs, vl = best
    i1, i2 = max(vs, mid_lo), min(vs + vl, mid_hi)
    rem = B[i1:i2]
    D3, E3 = B[mid_lo:i1], B[i2:mid_hi]
    idx = _locate_remainder(v, rem, D1, D3, r, params)
    D2, E1 = v[:idx], v[idx + len(rem):]
    _assert_sides_free(D3, E3, r, params)
    return TurnResult(
        A, occ, B, TYPE2, rem, (i1, i2 - i1), (vs, vl), B[:l1], B[len(B) - r1:],
        (D1, D2, D3), (E1, E2, E3), r, shift,
    )


def _locate_remainder(v: Word, rem: Word, D1: Word, D3: Word,
                      r: int, params: Params) -> int:
    """Index of the surviving remainder inside v (v = D2 v' E1)."""
    if not rem:
        return 0
    cands = [
        i for i in range(len(v) - len(rem) + 1) if v[i:i + len(rem)] == rem
    ]
    if not cands:
        return 0
    for i in cands:
        if _can_prev(D1 + v[:i], r, params) == D3:
            return i
    # fall back: anchor the remainder at the right end of v
    target = len(v) - len(rem)
    return min(cands, key=lambda i: abs(i - target))


def _assert_sides_free(D3: Word, E3: Word, r: int, params: Params) -> None:
    bound = 3 * params.tau + 1
    for side in (D3, E3):
        if not is_tau_free(side, r, bound, params):
            raise SidesNotFree(
                "smoothing side is not (3*tau+1)-free of the turn rank"
            )


def inverse_turn(tr: TurnResult, r: int, params: Params | None = None) -> TurnResult:
    """Turn the maximal prolongation of the remainder; restores tr.host."""
    params = params or default_params()
    if tr.type_tag == TYPE3 or tr.vhat_span is None:
        raise NoInverse("no remainder to turn back")
    vs, vl = tr.vhat_span
    vp = len(tr.occ.period)
    if Fraction(vl, vp) < params.tau + 1:
        raise NoInverse(f"remainder measure {Fraction(vl, vp)} < tau+1")
    B = tr.result
    vhat = Occurrence(B, vs, vl, B[vs:vs + vp], r)
    same_sign = tr.shift == -1 or tr.occ.k >= params.n
    back = turn(B, vhat, r, params, shift=-1 if same_sign else 1)
    if back.result != tr.host:
        raise NoInverse("turning the remainder does not restore the input")
    return back


def potential_d(A: Sequence[int], r: int, params: Params | None = None) -> Fraction:
    """Sum of measures of maximal rank-r occurrences with measure >= 5*tau+3."""
    params = params or default_params()
    total = Fraction(0)
    for occ in maximal_occurrences(tuple(A), r, params.cert_floor, params):
        total += occ.measure
    return total


@dataclass(frozen=True)
class StableSequence:
    host: Word
    members: tuple  # ordered Occurrences, left to right


def is_stable(seq: StableSequence, params: Params | None = None) -> bool:
    """Conditions (c1) and (c2): bounded measures and solidity.

    The sufficient fast path accepts members whose measures all lie in
    [5*tau+3, n-8*tau-3].  Otherwise solidity is checked by pairwise trial
    turns: turning any single member must leave each other member present
    with measure >= tau+1.
    """
    params = params or default_params()
    members = list(seq.members)
    if not members:
        return True
    if any(m.host != seq.host for m in members):
        return False
    if any(members[i].start >= members[i + 1].start for i in range(len(members) - 1)):
        return False
    # close-neighbour counts for (c1)
    ks = [0] * len(members)
    for i in range(len(members) - 1):
        u, w = members[i], members[i + 1]
        if u.end > w.start or classify_isolation(seq.host, u, w, params) == CLOSE_NEIGHBOURS:
            ks[i] += 1
            ks[i + 1] += 1
    for m, k in zip(members, ks):
        if not (params.tau + 1 <= m.measure <= params.n - (4 * params.tau + 1 + k * params.epsilon)):
            return False
    if all(params.cert_floor <= m.measure <= params.mu for m in members):
        return True
    for i, m in enumerate(members):
        tr = turn(seq.host, m, m.rank, params)
        for j, other in enumerate(members):
            if j == i:
                continue
            c = corresponding_occurrence(seq.host, tr.result, other, params)
            if c is None or c.measure < params.tau + 1:
                return False
    return True


def multi_turn(
    seq: StableSequence,
    choices: Sequence[str],
    params: Params | None = None,
    order: Sequence[int] | None = None,
) -> Word:
    """Turn the members with choice 'v'; the result is order independent."""
    params = params or default_params()
    if len(choices) != len(seq.members):
        raise NotStable("one side choice per member required")
    if not is_stable(seq, params):
        raise NotStable("sequence fails (c1)/(c2)")
    chosen = [i for i, c in enumerate(choices) if c == "v"]
    if order is None:
        order = chosen
    if sorted(order) != sorted(chosen):
        raise NotStable("order must permute the chosen members")
    host = seq.host
    current = {i: m for i, m in enumerate(seq.members)}
    for i in order:
        occ = current[i]
        tr = turn(host, occ, occ.rank, params)
        for j in list(current):
            if j != i:
                c = corresponding_occurrence(host, tr.result, current[j], params)
                if c is None:
                    raise NotStable(f"member {j} destroyed by turning member {i}")
                current[j] = c
        host = tr.result
        del current[i]
    return host
