"""Canonical form of rank r: winner sides, certification, can_r, can."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, product
from operator import eq
from typing import Sequence

from .config import Params, default_params
from .errors import InvariantViolation, NotStabilized, StabilizationWatchdog
from .occurrences import (
    Occurrence,
    corresponding_occurrence,
    are_essentially_non_isolated,
    maximal_occurrences,
)
from .semican import _descend
from .support import control_m
from .turns import turn
from .words import (
    EMPTY,
    Word,
    common_prefix,
    common_suffix,
    deglex_key,
    inverse,
    reduce_word,
)

KEEP, TURN = "Keep", "Turn"
CERT, UNCERT, TRIVIAL = "Certification", "UnCertification", "Trivial"


@dataclass(frozen=True)
class CanonicalForm:
    word: Word
    rank: int
    provenance: tuple = ()


@dataclass(frozen=True)
class WinnerDecision:
    side: str  # Keep | Turn
    basis: str  # ForcedShort | ForcedLong | LengthCompare | DeglexTuples
    tuples: tuple | None = None  # (U, V) for DeglexTuples


@dataclass(frozen=True)
class CertificationOutcome:
    direction: str
    sequence: tuple  # Occurrences u_0..u_t in the original host
    choices: tuple  # 'u' or 'v' per member
    witness: Word
    kind: str  # Certification | UnCertification | Trivial
    certified_side: str | None  # the side choice f_1, None for trivial


def _balanced(e: int, n: int) -> int:
    e %= n
    if e > n // 2:
        e -= n
    return e


def can1_word(A: Word, params: Params) -> Word:
    """Rank-1 canonical form of a reduced word: balanced letter-power exponents.

    Only a letter run longer than n//2 changes.  In a reduced word a maximal
    g-run borders neither g nor g^-1, so its balanced power is spliced in
    place, and a word without such runs is returned as it is.  A run of
    n*k letters vanishes and lets its neighbours merge; then one stack pass
    over the letter groups settles the merges.
    """
    n = params.n
    half = n // 2
    same = bytes(map(eq, A, A[1:]))
    long_run = b"\x01" * half
    i = same.find(long_run)
    if i < 0:
        return A
    pieces = []
    done = 0
    while i >= 0:
        j = same.find(0, i + half)
        j = len(A) if j < 0 else j + 1
        g = A[i]
        e = _balanced(j - i, n)
        if not e:
            return _merge_groups(A, n)
        pieces.append(A[done:i])
        pieces.append((g,) * e if e > 0 else (-g,) * -e)
        done = j
        i = same.find(long_run, j)
    pieces.append(A[done:])
    return tuple(chain.from_iterable(pieces))


def _merge_groups(A: Word, n: int) -> Word:
    """Balance every letter group, merging groups a vanished one brings
    together; the result is reduced."""
    stack: list[list[int]] = []  # [generator, exponent], exponent balanced != 0
    for g, grp in groupby(A):
        e = len(list(grp))
        if g < 0:
            g, e = -g, -e
        while True:
            if stack and stack[-1][0] == g:
                e += stack.pop()[1]
                continue
            e = _balanced(e, n)
            if e:
                stack.append([g, e])
            break
    out: list[int] = []
    for g, e in stack:
        out.extend([g if e > 0 else -g] * abs(e))
    return tuple(out)


_can_memo: dict[tuple, Word] = {}


def can_word(A: Sequence[int], r: int, params: Params | None = None) -> Word:
    """The canonical word of rank r (cascades through lower ranks)."""
    params = params or default_params()
    A = tuple(A)
    if r <= 0:
        return reduce_word(A)
    # memo keys are reduced words, so a hit needs no reduction scan
    key = (A, r, params.n, params.m, params.tau)
    hit = _can_memo.get(key)
    if hit is not None:
        return hit
    B = reduce_word(A)
    if B is not A:
        A = B
        key = (A, r, params.n, params.m, params.tau)
        hit = _can_memo.get(key)
        if hit is not None:
            return hit
    if r == 1:
        w = can1_word(A, params)
    else:
        w = can_word(A, r - 1, params)
        w, _ = _descend(w, r, Fraction(params.mu), params)
        w, _ = _descend(w, r, params.lam, params)
        w = _decision_pass(w, r, params)
    _can_memo[key] = w
    return w


def _occ_key(o: Occurrence) -> tuple:
    return (o.start, o.length)


def _decision_pass(w: Word, r: int, params: Params) -> Word:
    """Decide every occurrence in the window and turn the losers."""
    decided: dict[tuple, Occurrence] = {}
    steps = 0
    limit = 10 * len(w) + 20
    while True:
        occs = maximal_occurrences(w, r, params.window_lo, params)
        pending = [o for o in occs if _occ_key(o) not in decided]
        if not pending:
            return w
        if steps >= limit:
            raise StabilizationWatchdog("decision pass did not settle")
        steps += 1
        o = pending[0]
        dec = winner_side(w, o, params)
        if dec.side == KEEP:
            decided[_occ_key(o)] = o
            continue
        tr = turn(w, o, r, params)
        remapped: dict[tuple, Occurrence] = {}
        for old in decided.values():
            c = corresponding_occurrence(w, tr.result, old, params)
            if c is not None:
                remapped[_occ_key(c)] = c
        if tr.vhat_span is not None:
            vs, vl = tr.vhat_span
            vp = len(o.period)
            vhat = Occurrence(tr.result, vs, vl, tr.result[vs:vs + vp], r)
            remapped[_occ_key(vhat)] = vhat
        decided = remapped
        w = tr.result


# ---------------------------------------------------------------------------
# certification


def _invert_occurrence(occ: Occurrence) -> Occurrence:
    host = inverse(occ.host)
    start = len(occ.host) - occ.end
    p = len(occ.period)
    period = inverse(occ.host[occ.end - p:occ.end])
    return Occurrence(host, start, occ.length, period, occ.rank)


def _apply_choices(
    A: Word, members: list[Occurrence], choices: list[str], r: int,
    params: Params, observers: list[Occurrence] | None = None,
):
    """Turn the members chosen 'v', left to right; track everything through.

    Returns (host, member images, observer images); an image is None when
    the occurrence did not survive.
    """
    host = A
    cur: list[Occurrence | None] = list(members)
    obs: list[Occurrence | None] = list(observers or [])
    for i, ch in enumerate(choices):
        if ch != "v" or cur[i] is None:
            continue
        tr = turn(host, cur[i], r, params)
        for lst in (cur, obs):
            for j, item in enumerate(lst):
                if item is None or (lst is cur and j == i):
                    continue
                lst[j] = corresponding_occurrence(host, tr.result, item, params)
        if tr.vhat_span is not None:
            vs, vl = tr.vhat_span
            vp = len(cur[i].period)
            cur[i] = Occurrence(tr.result, vs, vl, tr.result[vs:vs + vp], r)
        else:
            cur[i] = None
        host = tr.result
    return host, cur, obs


def _lam(i: int, params: Params) -> Fraction:
    return params.lambda1 if control_m(i) == 1 else params.lambda2


def _turned_measure(host: Word, occ: Occurrence, target: Occurrence,
                    r: int, params: Params) -> Fraction | None:
    """Measure of target's correspondent after turning occ in host."""
    tr = turn(host, occ, r, params)
    c = corresponding_occurrence(host, tr.result, target, params)
    return None if c is None else c.measure


def certify(
    A: Sequence[int], u0: Occurrence, direction: str = "right",
    params: Params | None = None,
) -> list[CertificationOutcome]:
    """The (un-)certification sequences for each side of the nearest
    essentially non-isolated neighbour of u0, or the trivial outcome."""
    params = params or default_params()
    A = tuple(A)
    if direction == "left":
        mirrored = certify(inverse(A), _invert_occurrence(u0), "right", params)
        out = []
        for oc in mirrored:
            out.append(CertificationOutcome(
                "left",
                tuple(_invert_occurrence(o) for o in reversed(oc.sequence)),
                tuple(reversed(oc.choices)),
                inverse(oc.witness),
                oc.kind,
                oc.certified_side,
            ))
        return out

    r = u0.rank
    chain = [u0] + [
        o for o in maximal_occurrences(A, r, params.cert_floor, params)
        if o.start > u0.start
    ]
    trivial = CertificationOutcome(
        "right", (u0,), ("u",), A, TRIVIAL, None
    )
    if len(chain) == 1 or not are_essentially_non_isolated(
        A, u0, chain[1], r, params
    ):
        return [trivial]
    out = []
    for f1 in ("u", "v"):
        oc = _build_sequence(A, chain, f1, r, params)
        if oc is not None:
            out.append(oc)
    return out or [trivial]


def _build_sequence(
    A: Word, chain: list[Occurrence], f1: str, r: int, params: Params
) -> CertificationOutcome | None:
    """Grow the unique (un-)certification sequence for the side f1."""

    def witness(choices: list[str], extra: int):
        members = chain[: len(choices)]
        observers = chain[len(choices): len(choices) + extra]
        return _apply_choices(A, members, choices, r, params, observers)

    # condition 3 fixes f0 at t = 1
    f0 = None
    for cand in ("u", "v"):
        choices = [cand, f1]
        W, cur, _ = witness(choices, 0)
        if cur[0] is None or cur[1] is None:
            continue
        before = cur[1].measure
        after = _turned_measure(W, cur[0], cur[1], r, params)
        if after is None:
            continue
        if after > before or (after == before and cand == "u"):
            f0 = cand
            break
    if f0 is None:
        return None

    choices = [f0, f1]
    while True:
        t = len(choices) - 1
        has_next = t + 1 < len(chain)
        W, cur, obs = witness(choices, 1 if has_next else 0)
        if any(c is None for c in cur):
            return None
        kind = CERT if cur[t].measure <= _lam(t, params) else UNCERT
        if any(cur[i].measure > _lam(i, params) for i in range(1, t)):
            return None
        if not has_next or obs[0] is None:
            return CertificationOutcome(
                "right", tuple(chain[: t + 1]), tuple(choices), W, kind, f1
            )
        after = _turned_measure(W, obs[0], cur[t], r, params)
        ok = (
            after is not None
            and (after <= _lam(t, params) if kind == CERT else after > _lam(t, params))
        )
        if ok:
            return CertificationOutcome(
                "right", tuple(chain[: t + 1]), tuple(choices), W, kind, f1
            )
        # condition 5/5' fails: extend by the next occurrence; its side is
        # the unique one keeping the prefix measures below their thresholds
        extended = None
        for cand in ("u", "v"):
            trial = choices + [cand]
            W2, cur2, _ = witness(trial, 0)
            if any(c is None for c in cur2):
                continue
            if all(cur2[i].measure <= _lam(i, params) for i in range(1, t + 1)):
                extended = trial
                break
        if extended is None:
            return None
        choices = extended


def certified_sides(
    A: Word, u: Occurrence, direction: str, params: Params
) -> list[str]:
    """The sides of the nearest neighbour certified in the given direction."""
    return [
        oc.certified_side
        for oc in certify(A, u, direction, params)
        if oc.kind == CERT and oc.certified_side is not None
    ]


# ---------------------------------------------------------------------------
# winner side


def _neighbour(A: Word, u: Occurrence, direction: str, params: Params):
    occs = maximal_occurrences(A, u.rank, params.cert_floor, params)
    if direction == "right":
        after = [o for o in occs if o.start > u.start]
        return after[0] if after else None
    before = [o for o in occs if o.start < u.start]
    return before[-1] if before else None


def _cyc_arc(C: Word, i: int, j: int) -> Word:
    N = len(C)
    return tuple(C[k % N] for k in range(i, j))


def _place_positions(content: Word, period: Word, n: int) -> list[int]:
    """All offsets x with content matching (period^n) cyclically at x."""
    p = len(period)
    N = n * p
    out = []
    for ph in range(p):
        rot = period[ph:] + period[:ph]
        if all(content[i] == rot[i % p] for i in range(len(content))):
            out.extend(ph + t * p for t in range(n))
    return out


def _best_position(positions: list[int], length: int, lo: int, hi: int, N: int) -> int:
    if not positions:
        raise InvariantViolation("complement does not fit the relator circle")

    def overlap(x: int) -> int:
        return max(
            min(x + length, hi) - max(x, lo),
            min(x - N + length, hi) - max(x - N, lo),
            min(x + N + length, hi) - max(x + N, lo),
        )

    return max(positions, key=overlap)


def _midpoint(a: int, b: int, C: Word):
    """Marker between two arc endpoints: middle letter or empty midpoint."""
    lo, hi = min(a, b), max(a, b)
    if (hi - lo) % 2:
        mid = (lo + hi) // 2
        return (mid, mid + 1), (C[mid % len(C)],)
    mid = (lo + hi) // 2
    return (mid, mid), EMPTY


def _deglex_tuples(u_word: Word, vhat: Word, period: Word, params: Params):
    """The two 6-element tuples of the relator-circle partition."""
    n = params.n
    p = len(period)
    N = n * p
    C = period * n
    # u occupies [0, |u|); v^-1 the complementary arc
    v_inv = inverse(vhat)
    pos = _place_positions(v_inv, period, n)
    x = _best_position(pos, len(v_inv), len(u_word), N, N)
    if x + len(v_inv) <= len(u_word):
        x += N
    F_u, F_v = len(u_word), x
    I_u, I_v = 0, x + len(v_inv)
    (P2, P2p), d = _midpoint(F_u, F_v, C)
    (P1, P1p), c = _midpoint(I_u, I_v - N, C)
    u0 = _cyc_arc(C, P1p, P2)
    v0 = inverse(_cyc_arc(C, P2p, P1 + N))
    U = sorted(
        [u0, inverse(u0), c + u0, u0 + d, inverse(u0) + inverse(c),
         inverse(d) + inverse(u0)],
        key=deglex_key,
    )
    V = sorted(
        [v0, inverse(v0), inverse(c) + v0, v0 + inverse(d), inverse(v0) + c,
         d + inverse(v0)],
        key=deglex_key,
    )
    return tuple(U), tuple(V)


def winner_side(
    A: Sequence[int], u: Occurrence, params: Params | None = None
) -> WinnerDecision:
    """Keep or turn: forced thresholds, shortest correspondents, deglex tie."""
    params = params or default_params()
    A = tuple(A)
    if u.measure <= params.window_lo:
        return WinnerDecision(KEEP, "ForcedShort")
    if u.measure >= params.window_hi:
        return WinnerDecision(TURN, "ForcedLong")
    r = u.rank

    turn_opts = []
    for direction in ("left", "right"):
        nb = _neighbour(A, u, direction, params)
        if nb is None:
            continue
        if "v" in certified_sides(A, u, direction, params):
            turn_opts.append(nb)

    best_u = None  # (length, content, period)
    best_v = None  # (length, content)
    for mask in product((False, True), repeat=len(turn_opts)):
        host, cur, obs = _apply_choices(
            A,
            [o for o, used in zip(turn_opts, mask) if used],
            ["v"] * sum(mask),
            r,
            params,
            observers=[u],
        )
        uc = obs[0]
        if uc is None:
            continue
        tr = turn(host, uc, r, params)
        if tr.vhat_span is None:
            vlen = len(tr.remainder)
            vword = tr.remainder
        else:
            vs, vl = tr.vhat_span
            vlen, vword = vl, tr.result[vs:vs + vl]
        if best_u is None or len(uc.content) < best_u[0]:
            best_u = (len(uc.content), uc.content, uc.period, vword)
        if best_v is None or vlen < best_v[0]:
            best_v = (vlen, vword)
    if best_u is None:
        return WinnerDecision(KEEP, "LengthCompare")
    if best_u[0] < best_v[0]:
        return WinnerDecision(KEEP, "LengthCompare")
    if best_u[0] > best_v[0]:
        return WinnerDecision(TURN, "LengthCompare")
    U, V = _deglex_tuples(best_u[1], best_u[3], best_u[2], params)
    if U == V:
        raise InvariantViolation("tie-break tuples coincide")
    return WinnerDecision(KEEP if U < V else TURN, "DeglexTuples", (U, V))


# ---------------------------------------------------------------------------
# public canonical API


def can_1(A: Sequence[int], params: Params | None = None) -> CanonicalForm:
    params = params or default_params()
    return CanonicalForm(can_word(A, 1, params), 1)


def can_r(A: Sequence[int], r: int, params: Params | None = None) -> CanonicalForm:
    params = params or default_params()
    return CanonicalForm(can_word(A, r, params), r)


def can(A: Sequence[int], params: Params | None = None,
        max_rank: int = 6) -> CanonicalForm:
    """Iterate can_r until two consecutive ranks agree and no large
    occurrence of the next rank remains."""
    params = params or default_params()
    prev = can_word(A, 1, params)
    for r in range(2, max_rank + 1):
        cur = can_word(A, r, params)
        if cur == prev:
            big = [
                o for o in maximal_occurrences(cur, r + 1, params.window_lo, params)
                if o.measure > params.window_lo
            ]
            if not big:
                return CanonicalForm(cur, r - 1)
        prev = cur
    raise StabilizationWatchdog(f"no stabilization by rank {max_rank}")


def mult_r(
    A: Sequence[int], B: Sequence[int], r: int, params: Params | None = None
):
    """can_r(A*B) plus its seam triangle factorization A' D3 B'."""
    params = params or default_params()
    A, B = tuple(A), tuple(B)
    w = can_word(A + B, r, params)
    i = common_prefix(w, 0, A, 0, min(len(w), len(A)))
    j = common_suffix(w, len(w), B, len(B), min(len(w) - i, len(B)))
    triangle = (w[:i], w[i:len(w) - j], w[len(w) - j:])
    return CanonicalForm(w, r, provenance=(triangle,))


def power_form(
    A: Sequence[int], M: int, r: int, params: Params | None = None
):
    """can_r(A^M) written as W * core^(M-K) * Z, stable in M.

    Returns (W, core, K, Z); verified on M, M+1, M+2.
    """
    from .periodicity import runs_of_period
    from .words import cyclic_reduce, primitive_root

    params = params or default_params()
    A = reduce_word(A)
    if not A:
        raise NotStabilized("empty base")
    core, _ = cyclic_reduce(A)
    root = primitive_root(core).root
    cls = min(root[i:] + root[:i] for i in range(len(root)))
    iroot = inverse(root)
    inv_cls = min(iroot[i:] + iroot[:i] for i in range(len(iroot)))

    def split(m: int):
        w = can_word(A * m, r, params)
        best = None
        for s, l, per in runs_of_period(w, len(root)):
            k = min(per[i:] + per[:i] for i in range(len(per)))
            if k == cls:
                sign = 1
            elif k == inv_cls:
                sign = -1
            else:
                continue
            if best is None or l > best[1]:
                best = (s, l, sign)
        if best is None:
            if w == tuple():
                return (EMPTY, 0, EMPTY)
            # no periodic core survives; treat the whole word as W
            return (w, 0, EMPTY)
        s, l, sign = best
        e = sign * (l // len(root))
        return (w[:s], e, w[s + l:])

    # degenerate short case: A^m itself stays put
    w_direct = can_word(A * M, r, params)
    if w_direct == reduce_word(A * M):
        return (EMPTY, A, 0, EMPTY)

    res = [split(m) for m in (M, M + 1, M + 2)]
    (W0, e0, Z0), (W1, e1, Z1), (W2, e2, Z2) = res
    if not (W0 == W1 == W2 and Z0 == Z1 == Z2 and e1 - e0 == e2 - e1 == 1):
        raise NotStabilized(f"power form not stable at M={M}")
    return (W0, root, M - e0, Z0)
