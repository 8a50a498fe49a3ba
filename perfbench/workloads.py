"""Seeded inputs and independent output checks for the three workloads.

Nothing here imports `burnside`: inputs are plain letter tuples (+i is the
i-th generator, -i its inverse) built from the seed alone, and the checks
re-derive what they need instead of asking the library under test.

Cost-determining parameters (the power exponent on `roundtrip`, the period
mix and measures on `canon`) follow a fixed plan of slots and the seed draws
within each slot, so two seeds give passes of nearly equal work.
"""

import hashlib
import math
import operator
import random
from fractions import Fraction
from itertools import combinations

# Strict regime constants, restated so the checks do not read them from the
# code under test: n = 593, tau = 16.
N = 593
TAU = 16
WINDOW_LO = Fraction(N, 2) - 5 * TAU - 2
WINDOW_HI = Fraction(N, 2) + 5 * TAU + 2

a, b, A, B = 1, 2, -1, -2
LETTERS = (a, A, b, B)

WORKLOADS = ("roundtrip", "canon", "witness")
DEFAULT_SEED = 1

# A pass always runs all of its items, so per-pass memory and latency
# percentiles do not depend on how fast the code is.  canon has 75 items:
# the 20 period pairs and triples three times plus 15 nested words.
ROUNDTRIP_ITEMS = 60
WITNESS_ITEMS = 50_000
# expected-output digests are kept per group of this many items
DIGEST_GROUP = {"roundtrip": 1, "canon": 1, "witness": 100}

RT_S = (295, 296)
RT_K = (17, 566)
CANON_RANK2 = ((a, b), (a, B), (a, b, b), (a, a, b), (a, b, A, B))
CANON_RANK3 = tuple(
    x * 16 + y for x, y in (((a, b), (b,)), ((a, B), (B,)), ((b, a), (a,)), ((b, A), (A,)))
)
# measure thresholds of the strict regime: window_lo, n/2, lambda, window_hi
CANON_MEASURE_EDGES = (WINDOW_LO, Fraction(N, 2), Fraction(N, 2) + 3 * TAU + 1, WINDOW_HI)
# k for the nested words: 250 .. lambda .. mu .. 500
CANON_K_EDGES = (249, Fraction(N, 2) + 3 * TAU + 1, N - 8 * TAU - 3, 501)
CANON_SPREAD = 7  # coprime to the 150 rank-2 powers
CANON_COPIES = 3
WITNESS_MAX_OFFSET = 1000


def reduce_letters(raw) -> tuple:
    out: list[int] = []
    for g in raw:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _power_prefix(period: tuple, length: int) -> tuple:
    return tuple(period[i % len(period)] for i in range(length))


def roundtrip_inputs(seed: int, count: int = ROUNDTRIP_ITEMS) -> list[tuple]:
    """Criterion-4 hosts b A^s (baa)^k B b, freely reduced."""
    rng = random.Random(f"roundtrip:{seed}")
    ks = _slotted(rng, (RT_K[0] - 1, RT_K[1] + 1), (count,))
    rng.shuffle(ks)
    return [
        reduce_letters((b,) + (A,) * rng.choice(RT_S) + (b, a, a) * k + (B, b))
        for k in ks
    ]


def _slotted(rng: random.Random, edges: tuple, counts: tuple) -> list[int]:
    """Integers drawn one per slot, in slot order.

    The open interval between consecutive edges i and i+1 is cut into
    counts[i] equal slots, so no slot straddles an edge.
    """
    out = []
    for lo, hi, count in zip(edges, edges[1:], counts):
        first, width = math.floor(lo) + 1, math.ceil(hi) - math.floor(lo) - 1
        for i in range(count):
            low = first + i * width // count
            out.append(rng.randint(low, max(low, first + (i + 1) * width // count - 1)))
    return out


def canon_inputs(seed: int) -> list[tuple]:
    """Rank-2 window words and rank-3 nested words in a fixed 4:1 ratio.

    Each rank-2 item is one of the 20 pairs and triples of periods from
    CANON_RANK2 (each three times), as powers split by 1-3 fixed letters.  Their
    measures lie in the decision window [n/2-5tau-2, n/2+5tau+2], one per
    slot of a fixed slot plan whose edges are the thresholds where the
    decision logic changes path (n/2, where |u| = |v|, and lambda =
    n/2+3tau+1, above which descent turns the power).  Rank-3 items are a X^k a with
    X = (ab)^16 b up to symmetry, k in [250, 500], slotted at lambda and mu.
    The seed moves each measure and k within its slot and sets the item
    order; the plan keeps the work of a pass nearly seed-free.
    """
    rng = random.Random(f"canon:{seed}")
    combos = [c for r in (2, 3) for c in combinations(CANON_RANK2, r)] * CANON_COPIES
    npowers = sum(len(c) for c in combos)
    quarters = _slotted(rng, tuple(4 * e for e in CANON_MEASURE_EDGES),
                        _proportional(CANON_MEASURE_EDGES, npowers))
    # a fixed spread of the slots over the powers, so every item keeps its
    # slots from seed to seed
    measures = [Fraction(quarters[(CANON_SPREAD * i) % npowers], 4) for i in range(npowers)]
    items = []
    for index, periods in enumerate(combos):
        # gap letters are part of the plan: they move an item's cost more
        # than its measures do
        gaps = random.Random(f"canon-gaps:{index}")
        parts: list[int] = []
        for j, period in enumerate(periods):
            if j:
                parts.extend(gaps.choice(LETTERS) for _ in range(gaps.randint(1, 3)))
            parts.extend(_power_prefix(period, int(measures.pop() * len(period))))
        items.append(reduce_letters(parts))
    ks = _slotted(rng, CANON_K_EDGES, _proportional(CANON_K_EDGES, len(combos) // 4))
    for x, k in zip(CANON_RANK3 * len(ks), ks):
        items.append(reduce_letters((a,) + x * k + (a,)))
    rng.shuffle(items)
    return items


def _proportional(edges: tuple, total: int) -> tuple:
    """Split `total` slots over the intervals between edges by width."""
    widths = [hi - lo for lo, hi in zip(edges, edges[1:])]
    counts = [int(total * w / sum(widths)) for w in widths]
    counts[0] += total - sum(counts)
    return tuple(counts)


def witness_offset(seed: int) -> int:
    """Start of the pass's window into the cube-free stream."""
    return random.Random(f"witness:{seed}").randrange(WITNESS_MAX_OFFSET)


def inputs(workload: str, seed: int):
    """The workload's items for this seed (for witness, the stream offset)."""
    if workload == "roundtrip":
        return roundtrip_inputs(seed)
    if workload == "canon":
        return canon_inputs(seed)
    if workload == "witness":
        return witness_offset(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks (run after the timed loop)


def max_measure_bound_ok(w: tuple, bound: Fraction) -> bool:
    """True iff w has no periodic factor of measure > bound.

    A factor of length l with period p has measure l/p; a maximal block of
    m positions with w[i] == w[i+p] is a factor of length m + p.  Every
    period p <= |w|/bound is scanned.  A period of rank >= 4 is at least
    16 * 32 letters long, so for words shorter than 512 * bound letters
    this is exactly "no rank <= 3 occurrence of measure > bound".
    """
    num, den = bound.numerator, bound.denominator
    for p in range(1, int(len(w) / bound) + 1):
        # fewest matches m with (m + p) / p > num / den
        need = (num * p - den * p) // den + 1
        if b"\x01" * need in bytes(map(operator.eq, w, w[p:])):
            return False
    return True


def is_reduced(w: tuple) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def check_roundtrip(host: tuple, out: tuple) -> bool:
    tag, remainder, _result, back = out
    return tag == "Type2" and Fraction(len(remainder), 3) >= TAU + 1 and back == host


def check_canon(word: tuple, out: tuple) -> bool:
    result, _rank = out
    return is_reduced(result) and max_measure_bound_ok(result, WINDOW_HI)


def check_witness_items(outs: list[tuple]) -> list[int]:
    """Indices of witness items that fail: not a fixed point, or a repeat."""
    seen: set = set()
    bad = []
    for i, out in enumerate(outs):
        if out is None:
            bad.append(i)
            continue
        w, fixed = out
        if fixed != w or w in seen:
            bad.append(i)
        seen.add(w)
    return bad


def failed_items(workload: str, items, outs: list) -> list[int]:
    """Indices whose output fails the workload's independent check."""
    if workload == "witness":
        return check_witness_items(outs)
    check = check_roundtrip if workload == "roundtrip" else check_canon
    return [i for i, (x, o) in enumerate(zip(items, outs)) if o is None or not check(x, o)]


def item_digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def group_digests(digests: list[str], group: int) -> list[str]:
    if group == 1:
        return list(digests)
    return [
        hashlib.sha256("".join(digests[i:i + group]).encode()).hexdigest()[:16]
        for i in range(0, len(digests), group)
    ]
