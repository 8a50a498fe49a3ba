"""Command-line interface with deterministic text/JSON output."""

import argparse
import json
import sys
from fractions import Fraction

from .canonical import can, can_r, can_word, certify, mult_r
from .config import LAB, STRICT, make_params
from .errors import BurnsideError, InvariantViolation
from .occurrences import maximal_occurrences
from .periodicity import common_power_prefix, periodic_shifts
from .relators import classify_rank, rank_witness
from .semican import greedy_semicanonicalize, staged_descent
from .support import (
    control_m,
    cube_free_stream,
    has_overlap_factor,
)
from .turns import turn
from .words import format_word, parse, reduce_word

SCHEMA = 1


def _params(args):
    return make_params(args.n, args.m, args.mode, tau=args.tau)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _fmt(w, args) -> str:
    return format_word(w, compress_powers=args.compress_powers)


def cmd_reduce(args) -> int:
    w = reduce_word(parse(args.word))
    _emit(args, {"word": format_word(w)}, _fmt(w, args))
    return 0


def cmd_rank(args) -> int:
    params = _params(args)
    x = parse(args.word)
    r = classify_rank(x, params)
    chain = [format_word(c) for c in rank_witness(x, params)]
    _emit(args, {"rank": r, "witness": chain},
          f"{r}" + (f"  nested: {' '.join(chain)}" if chain else ""))
    return 0


def cmd_occurrences(args) -> int:
    params = _params(args)
    w = reduce_word(parse(args.word))
    occs = maximal_occurrences(w, args.rank, Fraction(args.min_measure), params)
    items = [
        {
            "offset": o.start,
            "length": o.length,
            "period": format_word(o.period),
            "k": o.k,
            "a1": format_word(o.a1) if o.a1 else "",
            "measure": str(o.measure),
        }
        for o in occs
    ]
    _emit(args, {"occurrences": items},
          "\n".join(f"@{it['offset']} len={it['length']} period={it['period']} "
                    f"measure={it['measure']}" for it in items) or "(none)")
    return 0


def cmd_turn(args) -> int:
    params = _params(args)
    w = reduce_word(parse(args.word))
    occs = [o for o in maximal_occurrences(w, args.rank, 1, params)
            if o.start == args.at]
    if not occs:
        print(f"no rank-{args.rank} occurrence at offset {args.at}", file=sys.stderr)
        return 1
    tr = turn(w, occs[0], args.rank, params)
    payload = {
        "result": format_word(tr.result),
        "type": tr.type_tag,
        "remainder": format_word(tr.remainder) if tr.remainder else "",
        "triangle_left": [format_word(x) for x in tr.triangle_left],
        "triangle_right": [format_word(x) for x in tr.triangle_right],
    }
    _emit(args, payload,
          f"{_fmt(tr.result, args)}  [{tr.type_tag}]"
          + (f" remainder={_fmt(tr.remainder, args)}" if tr.remainder else ""))
    return 0


def cmd_semican(args) -> int:
    params = _params(args)
    w = reduce_word(parse(args.word))
    form = greedy_semicanonicalize(w, args.rank, params)
    if args.kappa is not None:
        form = staged_descent(form.word, args.rank, params.mu,
                              Fraction(args.kappa), params)
    payload = {"result": format_word(form.word), "kappa": str(form.kappa)}
    if args.trace:
        payload["trace"] = [
            {"offset": s, "length": l, "period": format_word(p), "type": t}
            for s, l, p, t in form.trace
        ]
    _emit(args, payload, _fmt(form.word, args))
    return 0


def cmd_can(args) -> int:
    params = _params(args)
    w = parse(args.word)
    if args.rank is not None and args.rank < 1:
        raise ValueError(f"rank must be at least 1, got {args.rank}")
    form = can(w, params) if args.rank is None else can_r(w, args.rank, params)
    payload = {"result": format_word(form.word), "rank": form.rank}
    _emit(args, payload, _fmt(form.word, args))
    return 0


def cmd_mult(args) -> int:
    params = _params(args)
    form = mult_r(parse(args.w1), parse(args.w2), args.rank or 1, params)
    tri = form.provenance[0]
    payload = {
        "result": format_word(form.word),
        "triangle": [format_word(x) for x in tri],
    }
    _emit(args, payload, _fmt(form.word, args))
    return 0


def cmd_certify(args) -> int:
    params = _params(args)
    w = reduce_word(parse(args.word))
    occs = [o for o in maximal_occurrences(w, args.rank, 1, params)
            if o.start == args.at]
    if not occs:
        print(f"no rank-{args.rank} occurrence at offset {args.at}", file=sys.stderr)
        return 1
    outcomes = certify(w, occs[0], args.dir, params)
    items = [
        {
            "kind": oc.kind,
            "side": oc.certified_side,
            "members": len(oc.sequence),
            "choices": list(oc.choices),
            "witness": format_word(oc.witness),
        }
        for oc in outcomes
    ]
    _emit(args, {"outcomes": items},
          "\n".join(f"{it['kind']} side={it['side']} members={it['members']}"
                    for it in items))
    return 0


def cmd_witness_infinity(args) -> int:
    params = _params(args)
    bound = params.window_lo
    words = []
    for w in cube_free_stream(args.count):
        if args.max_len and len(w) > args.max_len:
            print("max length exceeded before reaching the count", file=sys.stderr)
            return 2
        words.append(w)
    seen = set(words)
    ok = len(seen) == len(words)
    checked = 0
    for w in words:
        if can_word(w, 2, params) != w:
            ok = False
            break
        checked += 1
    payload = {
        "count": len(words),
        "distinct": len(seen),
        "verified_canonical": checked,
        "max_measure_bound": str(bound),
        "ok": ok,
        "words": [format_word(w, compress_powers=False) for w in words],
    }
    text = "\n".join(format_word(w, compress_powers=False) for w in words)
    text += f"\n# {len(words)} words, {len(seen)} distinct, {checked} verified, ok={ok}"
    _emit(args, payload, text)
    return 0 if ok else 2


def _suite_finewilf() -> int:
    from .words import is_cyclically_reduced, is_primitive
    from itertools import product as iproduct

    words = []
    for L in range(1, 6):
        for tup in iproduct((1, -1, 2, -2), repeat=L):
            if is_cyclically_reduced(tup) and is_primitive(tup):
                words.append(tup)
    violations = 0
    for x in words:
        for y in words:
            try:
                prefix, bound = common_power_prefix(x, y)
            except BurnsideError:
                continue
            if len(prefix) >= bound:
                violations += 1
    print(f"finewilf: {len(words) ** 2} pairs, {violations} violations")
    return violations


def _suite_control() -> int:
    seq = [control_m(i) for i in range(1, 4097)]
    bad = 1 if has_overlap_factor(seq) else 0
    print(f"control: 4096 values, {bad} violations")
    return bad


def _suite_shifts() -> int:
    """Occurrences inside X^K with a period other than X recur >= K-2 times."""
    from itertools import product as iproduct
    from fractions import Fraction as Fr
    from .periodicity import find_runs
    from .words import is_cyclically_reduced, is_primitive

    violations = 0
    checked = 0
    for L in range(1, 5):
        for X in iproduct((1, -1, 2, -2), repeat=L):
            if not (is_cyclically_reduced(X) and is_primitive(X)):
                continue
            x_cls = min(X[i:] + X[:i] for i in range(L))
            for K in range(3, 7):
                container = X * K
                for s, ln, period in find_runs(container, min_measure=2):
                    p = len(period)
                    if p == L and min(
                        period[i:] + period[:i] for i in range(p)
                    ) == x_cls:
                        continue
                    if Fr(ln, p) < 2:
                        continue
                    offs = periodic_shifts(X, K, (s, ln))
                    checked += 1
                    if len(offs) < K - 2:
                        violations += 1
    print(f"shifts: {checked} occurrences, {violations} violations")
    return violations


def cmd_verify_lemmas(args) -> int:
    suites = {
        "finewilf": _suite_finewilf,
        "control": _suite_control,
        "shifts": _suite_shifts,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    total = sum(suites[name]() for name in names)
    print(f"total violations: {total}")
    return 0 if total == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="burnside")
    ap.add_argument("--n", type=int, default=593)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--mode", choices=[STRICT, LAB], default=STRICT)
    ap.add_argument("--tau", type=int, default=None,
                    help="override tau (lab mode only)")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--compress-powers", action=argparse.BooleanOptionalAction,
                    default=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce")
    p.add_argument("word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("rank")
    p.add_argument("word")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("occurrences")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--min-measure", default="1")
    p.set_defaults(func=cmd_occurrences)

    p = sub.add_parser("turn")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--at", type=int, required=True)
    p.set_defaults(func=cmd_turn)

    p = sub.add_parser("semican")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--kappa", default=None)
    p.set_defaults(func=cmd_semican)

    p = sub.add_parser("can")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(func=cmd_can)

    p = sub.add_parser("mult")
    p.add_argument("w1")
    p.add_argument("w2")
    p.add_argument("--rank", type=int, default=1)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("certify")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--dir", choices=["left", "right"], default="right")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("witness-infinity")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=0)
    p.set_defaults(func=cmd_witness_infinity)

    p = sub.add_parser("verify-lemmas")
    p.add_argument("--suite", choices=["finewilf", "control", "shifts", "all"],
                   default="all")
    p.set_defaults(func=cmd_verify_lemmas)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvariantViolation as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 2
    except (BurnsideError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
