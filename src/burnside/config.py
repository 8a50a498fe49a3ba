"""The constant system: exponent n, nesting constant tau, and derived thresholds.

All threshold values are exact (int or Fraction); floats are never used because
several comparisons are sharp at half-integers.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BadRegime,
    EvenExponent,
    ExponentTooSmall,
    InvariantViolation,
    TooFewGenerators,
)

STRICT = "strict"
LAB = "lab"

DEFAULT_TAU = 16


@dataclass(frozen=True)
class Params:
    """Immutable parameter bundle; freely shareable."""

    n: int
    m: int
    mode: str
    tau: int
    epsilon: int
    lam: Fraction
    lambda1: Fraction
    lambda2: Fraction
    mu: int
    alpha: int
    cert_floor: int
    window_lo: Fraction
    window_hi: Fraction

    @property
    def guarantees_unique(self) -> bool:
        """Uniqueness of canonical forms is only claimed in strict mode."""
        return self.mode == STRICT

    @property
    def half_n(self) -> Fraction:
        return Fraction(self.n, 2)


def make_params(n: int, m: int = 2, mode: str = STRICT, tau: int | None = None) -> Params:
    """Build and validate a parameter bundle.

    Strict mode requires odd n >= 593 and fixes tau = 16.  Lab mode accepts any
    odd n >= 3 (for exhaustive oracles) and allows a tau override; uniqueness
    guarantees are disabled there.
    """
    if mode not in (STRICT, LAB):
        raise BadRegime(f"unknown mode {mode!r}")
    if n % 2 == 0:
        raise EvenExponent(f"exponent must be odd, got {n}")
    if m < 2:
        raise TooFewGenerators(f"need at least 2 generators, got {m}")
    if mode == STRICT:
        if n < 593:
            raise ExponentTooSmall(f"strict mode needs n >= 593, got {n}")
        if tau is not None and tau != DEFAULT_TAU:
            raise BadRegime("tau is fixed at 16 in strict mode")
        tau = DEFAULT_TAU
    else:
        if n < 3:
            raise ExponentTooSmall(f"lab mode needs n >= 3, got {n}")
        if tau is None:
            tau = DEFAULT_TAU

    epsilon = 2 * tau + 1
    lam = Fraction(n, 2) + 3 * tau + 1
    mu = n - 8 * tau - 3
    alpha = 3 * tau + 2
    cert_floor = 5 * tau + 3
    window_lo = Fraction(n, 2) - 5 * tau - 2
    window_hi = Fraction(n, 2) + 5 * tau + 2
    lambda2 = window_hi
    lambda1 = lambda2 + epsilon

    p = Params(
        n=n,
        m=m,
        mode=mode,
        tau=tau,
        epsilon=epsilon,
        lam=lam,
        lambda1=lambda1,
        lambda2=lambda2,
        mu=mu,
        alpha=alpha,
        cert_floor=cert_floor,
        window_lo=window_lo,
        window_hi=window_hi,
    )
    if mode == STRICT and not (
        p.window_hi <= p.lambda2 <= p.lambda1 <= n - (11 * tau + 5)
        and p.mu >= Fraction(n, 2) + 9 * tau
        and p.window_lo < p.window_hi
    ):
        raise InvariantViolation(f"strict thresholds out of order for n={n}")
    return p


@lru_cache(maxsize=None)
def default_params() -> Params:
    """The reference system: n = 593, m = 2, strict."""
    return make_params(593, 2, STRICT)
