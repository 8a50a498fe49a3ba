"""Kappa-semicanonical forms: greedy descent, staged descent, seam products."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import Params, default_params
from .errors import BadRegime, InvariantViolation, StabilizationWatchdog
from .occurrences import maximal_occurrences
from .turns import potential_d, turn
from .words import Word, reduce_word


@dataclass(frozen=True)
class SemicanonicalForm:
    word: Word
    kappa: Fraction
    rank: int
    trace: tuple  # ((start, length, period, type_tag), ...)


def _oversized(w: Word, r: int, bound, params: Params, strict: bool = True):
    """Leftmost maximal rank-r occurrence with measure > bound (or >= bound)."""
    floor = max(bound, 1)
    for occ in maximal_occurrences(w, r, floor, params):
        if occ.measure > bound or (not strict and occ.measure == bound):
            return occ
    return None


def _descend(A: Word, r: int, bound, params: Params,
             check_potential: bool = False) -> tuple[Word, tuple]:
    """Turn leftmost occurrences of measure > bound until none remain."""
    w = tuple(A)
    trace = []
    steps = 0
    limit = 10 * len(w) + 20
    while True:
        occ = _oversized(w, r, bound, params)
        if occ is None:
            return w, tuple(trace)
        if steps >= limit:
            raise StabilizationWatchdog(f"descent did not settle in {limit} steps")
        if check_potential:
            before = potential_d(w, r, params)
        tr = turn(w, occ, r, params)
        if check_potential:
            after = potential_d(tr.result, r, params)
            if not after < before:
                raise InvariantViolation("greedy turn did not decrease the potential")
        trace.append((occ.start, occ.length, occ.period, tr.type_tag))
        w = tr.result
        steps += 1


def greedy_semicanonicalize(
    A: Sequence[int], r: int, params: Params | None = None
) -> SemicanonicalForm:
    """Turn measures > mu until the word is mu-semicanonical.

    Every step strictly decreases the potential (sum of measures >= 5*tau+3),
    which is what guarantees termination.
    """
    params = params or default_params()
    w, trace = _descend(reduce_word(A), r, Fraction(params.mu), params,
                        check_potential=True)
    return SemicanonicalForm(w, Fraction(params.mu), r, trace)


def is_semicanonical(w: Sequence[int], r: int, kappa, params: Params | None = None) -> bool:
    params = params or default_params()
    return _oversized(tuple(w), r, kappa, params) is None


def staged_descent(
    A: Sequence[int], r: int, mu1, mu2, params: Params | None = None
) -> SemicanonicalForm:
    """Left-to-right sweep turning measures > mu2 - epsilon.

    Takes a mu1-semicanonical word to a mu2-semicanonical one; every
    intermediate word stays (mu1 + epsilon)-semicanonical.
    """
    params = params or default_params()
    mu1, mu2 = Fraction(mu1), Fraction(mu2)
    lo = Fraction(params.n, 2) + 3 * params.tau + 1
    hi = params.n - 7 * params.tau - 3
    if not (lo <= mu2 <= mu1 <= hi):
        raise BadRegime(f"need {lo} <= mu2 <= mu1 <= {hi}")
    w = reduce_word(A)
    if not is_semicanonical(w, r, mu1, params):
        raise BadRegime("input is not mu1-semicanonical")
    trace = []
    steps = 0
    limit = 10 * len(w) + 20
    while True:
        occ = _oversized(w, r, mu2 - params.epsilon, params)
        if occ is None:
            return SemicanonicalForm(w, mu2, r, tuple(trace))
        if steps >= limit:
            raise StabilizationWatchdog("staged descent did not settle")
        tr = turn(w, occ, r, params)
        w = tr.result
        trace.append((occ.start, occ.length, occ.period, tr.type_tag))
        if not is_semicanonical(w, r, mu1 + params.epsilon, params):
            raise InvariantViolation("a staged turn broke (mu1 + epsilon)-semicanonicity")
        steps += 1


def seam_product(
    A: Sequence[int], C: Sequence[int], r: int, kappa,
    params: Params | None = None,
) -> Word:
    """Multiply two kappa-semicanonical words, then turn seam occurrences
    until the product is (kappa + 3*tau + 1)-semicanonical."""
    params = params or default_params()
    kappa = Fraction(kappa)
    lo = Fraction(params.n, 2) + params.tau
    hi = params.n - 7 * params.tau - 3
    if not (lo <= kappa <= hi):
        raise BadRegime(f"kappa {kappa} outside [{lo}, {hi}]")
    from .turns import _can_prev

    w = _can_prev(tuple(A) + tuple(C), r, params)
    w, _ = _descend(w, r, kappa + 3 * params.tau + 1, params)
    return w
