"""Semicanonical forms: greedy and staged descent, seam products."""

from fractions import Fraction

import pytest

import burnside.semican as semican
from burnside.config import default_params
from burnside.errors import BadRegime, InvariantViolation
from burnside.semican import (
    greedy_semicanonicalize,
    is_semicanonical,
    seam_product,
    staged_descent,
)
from burnside.words import EMPTY, parse

P = default_params()


def test_greedy_chain():
    form = greedy_semicanonicalize(parse("a^1200"), 1, P)
    assert form.word == parse("a^14")
    assert len(form.trace) == 2  # 1200 -> 607 -> 14


def test_greedy_potential_check_raises_typed_error(monkeypatch):
    # a potential that never decreases breaks the termination invariant
    monkeypatch.setattr(semican, "potential_d", lambda *args: Fraction(0))
    with pytest.raises(InvariantViolation, match="potential"):
        greedy_semicanonicalize(parse("a^1200"), 1, P)


def test_greedy_identity_below_mu():
    form = greedy_semicanonicalize(parse("a^300"), 1, P)
    assert form.word == parse("a^300")
    assert form.trace == ()


def test_greedy_empty():
    form = greedy_semicanonicalize(EMPTY, 1, P)
    assert form.word == EMPTY


def test_greedy_result_is_semicanonical():
    for text in ("a^1200", "ba^700ba^500b", "a^300"):
        form = greedy_semicanonicalize(parse(text), 1, P)
        assert is_semicanonical(form.word, 1, P.mu, P)


def test_staged_descent_turns_in_window():
    form = staged_descent(parse("a^460"), 1, P.mu, Fraction(691, 2), P)
    assert form.word == parse("a^-133")


def test_staged_descent_leaves_short():
    form = staged_descent(parse("a^300"), 1, P.mu, Fraction(691, 2), P)
    assert form.word == parse("a^300")


def test_staged_descent_identity_trace():
    form = staged_descent(parse("a^100"), 1, P.mu, Fraction(691, 2), P)
    assert form.trace == ()


def test_staged_descent_regime_checks():
    with pytest.raises(BadRegime):
        staged_descent(parse("a^10"), 1, P.mu, Fraction(10), P)
    with pytest.raises(BadRegime):
        # input not mu1-semicanonical
        staged_descent(parse("a^500"), 1, P.mu, Fraction(691, 2), P)


def test_seam_product_turns_seam():
    w = seam_product(parse("a^296"), parse("a^296"), 1, Fraction(691, 2), P)
    assert w == parse("a^-1")


def test_seam_product_no_seam():
    w = seam_product(parse("a^10"), parse("b^10"), 1, Fraction(691, 2), P)
    assert w == parse("a^10b^10")


def test_seam_product_full_cancellation():
    w = seam_product(parse("a^10"), parse("a^-10"), 1, Fraction(691, 2), P)
    assert w == EMPTY


def test_seam_product_kappa_range():
    with pytest.raises(BadRegime):
        seam_product(parse("a^10"), parse("b^10"), 1, Fraction(5), P)
