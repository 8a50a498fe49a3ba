"""The rank hierarchy of relator periods, by nesting depth of tau-power subwords.

Rank 1: single letters.  Rank 2: longer primitive periods with no cyclically
contained tau-power.  Rank r >= 3: nesting depth of contained tau-powers + 2.
"""

from fractions import Fraction
from typing import Sequence

from .config import Params, default_params
from .errors import EmptyWord, NotPrimitive
from .periodicity import find_runs
from .words import Word, is_cyclically_reduced, is_primitive

# memo: (cyclic-class key, tau) -> nesting depth; safe under the GIL, and
# concurrent duplicate computation just recomputes the same value.
_depth_memo: dict[tuple, int] = {}


def _cyclic_key(x: Word) -> Word:
    return min(x[i:] + x[:i] for i in range(len(x)))


def contained_tau_periods(x: Word, tau: int) -> list[Word]:
    """Primitive periods a with a^tau a factor of a cyclic shift of x.

    One representative per cyclic class of the period.
    """
    if len(x) < tau:
        return []
    doubled = x + x
    seen: dict[Word, Word] = {}
    for start, length, period in find_runs(doubled, min_measure=tau):
        if tau * len(period) > len(x):
            continue
        key = _cyclic_key(period)
        seen.setdefault(key, period)
    return list(seen.values())


def _nesting_depth(x: Word, params: Params) -> int:
    if len(x) == 1:
        return 0
    key = (_cyclic_key(x), params.tau)
    if key in _depth_memo:
        return _depth_memo[key]
    subs = contained_tau_periods(x, params.tau)
    depth = 0 if not subs else 1 + max(_nesting_depth(s, params) for s in subs)
    _depth_memo[key] = depth
    return depth


def classify_rank(x: Sequence[int], params: Params | None = None) -> int:
    """The rank r with x^n a relator of rank r."""
    params = params or default_params()
    x = tuple(x)
    if not x:
        raise EmptyWord("cannot rank the empty period")
    if not is_cyclically_reduced(x) or not is_primitive(x):
        raise NotPrimitive(f"{x!r} is not a primitive cyclically reduced word")
    if len(x) == 1:
        return 1
    depth = _nesting_depth(x, params)
    return depth + 2


def rank_witness(x: Sequence[int], params: Params | None = None) -> list[Word]:
    """A chain of nested tau-power periods witnessing the rank."""
    params = params or default_params()
    x = tuple(x)
    chain: list[Word] = []
    while len(x) > 1:
        subs = contained_tau_periods(x, params.tau)
        if not subs:
            break
        x = max(subs, key=lambda s: _nesting_depth(s, params))
        chain.append(x)
    return chain


def ranked_runs(
    A: Sequence[int],
    rank: int,
    min_measure,
    params: Params | None = None,
) -> list[tuple[int, int, Word]]:
    """Runs in A whose aligned period has the given rank and measure >= bound."""
    params = params or default_params()
    return [
        run
        for run in find_runs(A, min_measure=min_measure)
        if classify_rank(run[2], params) == rank
    ]


def is_tau_free(
    A: Sequence[int],
    rank: int,
    threshold,
    params: Params | None = None,
) -> bool:
    """True iff A has no rank-`rank` fractional power of measure >= threshold."""
    return not ranked_runs(tuple(A), rank, threshold, params)


def is_alpha_free_modulo(
    A: Sequence[int],
    rank: int,
    alpha,
    params: Params | None = None,
) -> bool:
    """True iff A has no a^alpha factor whose period rank exceeds `rank`."""
    params = params or default_params()
    for _, _, period in find_runs(tuple(A), min_measure=alpha):
        if classify_rank(period, params) > rank:
            return False
    return True
