"""Canonical-form machinery for free Burnside groups B(m, n), odd n >= 593."""

from .config import LAB, STRICT, Params, default_params, make_params
from .words import (
    EMPTY,
    Word,
    concat,
    cyclic_reduce,
    cyclic_shifts,
    deglex_compare,
    format_word,
    inverse,
    parse,
    power,
    primitive_root,
    reduce_word,
)
from .periodicity import (
    FractionalPower,
    common_power_prefix,
    decompose,
    find_runs,
    lambda_measure,
    periodic_shifts,
    runs_of_period,
)
from .relators import classify_rank, is_alpha_free_modulo, is_tau_free
from .occurrences import (
    Occurrence,
    are_essentially_non_isolated,
    classify_isolation,
    complement,
    maximal_occurrences,
)
from .turns import StableSequence, TurnResult, inverse_turn, multi_turn, potential_d, turn
from .semican import greedy_semicanonicalize, seam_product, staged_descent
from .canonical import (
    CanonicalForm,
    CertificationOutcome,
    WinnerDecision,
    can,
    can_1,
    can_r,
    can_word,
    certify,
    mult_r,
    power_form,
    winner_side,
)
from .support import (
    balanced_residue_oracle,
    bfs_equivalent,
    control_m,
    cube_free_stream,
    cube_free_words,
)

__version__ = "0.1.0"
