"""Turns, inverse turns, stable sequences, the potential."""

from fractions import Fraction
from itertools import permutations

import pytest

from burnside.config import default_params
from burnside import turns
from burnside.errors import NoInverse, NotStable, RankMismatch, SidesNotFree
from burnside.occurrences import maximal_occurrences, Occurrence
from burnside.turns import (
    TYPE1,
    TYPE2,
    StableSequence,
    inverse_turn,
    is_stable,
    multi_turn,
    potential_d,
    turn,
)
from burnside.words import EMPTY, parse, power, reduce_word

P = default_params()


def occ_at(host, rank, start, min_measure=1):
    occs = [
        o for o in maximal_occurrences(host, rank, min_measure, P)
        if o.start == start
    ]
    assert occs
    return occs[0]


def test_turn_rank1_large_power():
    host = parse("ba^600b")
    tr = turn(host, occ_at(host, 1, 1), 1, P)
    assert tr.result == parse("ba^7b")
    assert tr.type_tag == TYPE1


def test_turn_rank2_alternating_power():
    host = parse("aa(ab)^400aa")
    tr = turn(host, occ_at(host, 2, 2), 2, P)
    assert tr.result == reduce_word(parse("aa(ab)^-193aa"))
    assert tr.type_tag == TYPE1


def test_turn_small_occurrence_measure_increasing():
    host = parse("ba^5b")
    tr = turn(host, occ_at(host, 1, 1), 1, P)
    assert tr.result == parse("ba^-588b")


def test_turn_rank_mismatch():
    host = parse("ba^600b")
    with pytest.raises(RankMismatch):
        turn(host, occ_at(host, 1, 1), 2, P)


def test_inverse_turn_rank2():
    host = parse("aa(ab)^400aa")
    tr = turn(host, occ_at(host, 2, 2), 2, P)
    back = inverse_turn(tr, 2, P)
    assert back.result == host


def test_inverse_turn_small_remainder_raises():
    # the remainder a^7 has measure 7 < tau + 1, so there is no inverse turn
    host = parse("ba^600b")
    tr = turn(host, occ_at(host, 1, 1), 1, P)
    with pytest.raises(NoInverse):
        inverse_turn(tr, 1, P)


def test_rank1_round_trip_via_explicit_shift():
    # b a^7 b goes back to b a^600 b by turning a^7 with the n-shift
    host = parse("ba^600b")
    tr = turn(host, occ_at(host, 1, 1), 1, P)
    small = occ_at(tr.result, 1, 1)
    back = turn(tr.result, small, 1, P, shift=-1)
    assert back.result == host


def test_inverse_turn_of_measure_increasing_turn():
    host = parse("ba^5b")
    tr = turn(host, occ_at(host, 1, 1), 1, P)
    back = inverse_turn(tr, 1, P)
    assert back.result == host


def test_type2_turn_and_inverse():
    host = parse("bA^295") + power(parse("baa"), 300) + parse("Bb")
    occ = next(
        o for o in maximal_occurrences(host, 2, 16, P) if len(o.period) == 3
    )
    tr = turn(host, occ, 2, P)
    assert tr.type_tag == TYPE2
    assert tr.remainder != EMPTY
    assert Fraction(len(tr.remainder), 3) >= P.tau + 1
    back = inverse_turn(tr, 2, P)
    assert back.result == host


def test_type2_turn_reports_sides_not_free(monkeypatch):
    host = parse("bA^295") + power(parse("baa"), 300) + parse("Bb")
    occ = next(
        o for o in maximal_occurrences(host, 2, 16, P) if len(o.period) == 3
    )
    monkeypatch.setattr(turns, "is_tau_free", lambda *args: False)
    with pytest.raises(SidesNotFree):
        turn(host, occ, 2, P)


def test_potential_examples():
    assert potential_d(parse("a^1200"), 1, P) == 1200
    assert potential_d(parse("a^14"), 1, P) == 0
    assert potential_d(EMPTY, 1, P) == 0


def two_member_host():
    return parse("ba^400ba^400b")


def test_multi_turn_empty_choice_is_identity():
    host = two_member_host()
    seq = StableSequence(host, tuple(maximal_occurrences(host, 1, 83, P)))
    assert multi_turn(seq, ("u", "u"), P) == host


def test_multi_turn_singleton_equals_turn():
    host = two_member_host()
    members = tuple(maximal_occurrences(host, 1, 83, P))
    seq = StableSequence(host, members)
    assert multi_turn(seq, ("v", "u"), P) == turn(host, members[0], 1, P).result


def test_multi_turn_order_independent():
    host = two_member_host()
    members = tuple(maximal_occurrences(host, 1, 83, P))
    seq = StableSequence(host, members)
    expected = parse("ba^-193ba^-193b")
    for order in permutations(range(2)):
        assert multi_turn(seq, ("v", "v"), P, order=list(order)) == expected


def test_multi_turn_validates_choices():
    host = two_member_host()
    seq = StableSequence(host, tuple(maximal_occurrences(host, 1, 83, P)))
    with pytest.raises(NotStable):
        multi_turn(seq, ("v",), P)


def test_is_stable_fast_path_and_bounds():
    host = two_member_host()
    members = tuple(maximal_occurrences(host, 1, 83, P))
    assert is_stable(StableSequence(host, members), P)
    # a member with measure above n - (4 tau + 1) violates (c1)
    big = parse("ba^550b")
    bmem = tuple(maximal_occurrences(big, 1, 83, P))
    assert not is_stable(StableSequence(big, bmem), P)


def test_is_stable_rejects_unordered():
    host = two_member_host()
    members = tuple(maximal_occurrences(host, 1, 83, P))
    assert not is_stable(StableSequence(host, members[::-1]), P)
