"""Exception types raised across the library."""


class BurnsideError(Exception):
    """Base class for all library errors."""


class EvenExponent(BurnsideError):
    pass


class ExponentTooSmall(BurnsideError):
    pass


class TooFewGenerators(BurnsideError):
    pass


class EmptyWord(BurnsideError):
    pass


class NotAFractionalPower(BurnsideError):
    pass


class CommutingPeriods(BurnsideError):
    pass


class NotAPrefixOfPower(BurnsideError):
    pass


class PeriodNotPrimitive(BurnsideError):
    pass


class SpanOutOfRange(BurnsideError):
    pass


class NotPrimitive(BurnsideError):
    pass


class OverlappingSpansOrderedWrong(BurnsideError):
    pass


class NotMaximal(BurnsideError):
    pass


class RankMismatch(BurnsideError):
    pass


class NoInverse(BurnsideError):
    pass


class NotStable(BurnsideError):
    pass


class BadRegime(BurnsideError):
    pass


class StabilizationWatchdog(BurnsideError):
    pass


class NotStabilized(BurnsideError):
    pass


class SidesNotFree(BurnsideError):
    """A turn left a smoothing side that is not (3*tau+1)-free."""


class InvariantViolation(BurnsideError):
    """A property the theory guarantees failed to hold: a bug, not bad input."""
