"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is `setup` (build the inputs and stop), `plain` (timed pass) or
`traced` (timed pass with every layer boundary wrapped).  The worker prints
`ready` when set-up is done and the first item is about to start, and one
JSON object as its last line when the pass ends.  Each pass runs every item
of the workload, so `_can_memo` and `_depth_memo` start empty as they do for
a command-line user.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

PATHOLOGICAL_PERIOD = (2, 1, 1)  # baa
PATHOLOGICAL_POWER = 500


def make_runner(bs, workload: str, seed: int, params, tracer=None):
    """(items, run) for the workload; `run(item)` is one timed item.

    Library functions are looked up on the package at call time, so a
    traced pass reaches the wrappers; the tracer also wraps the witness's
    word stream.
    """
    if workload == "roundtrip":
        def run(host):
            occ = next(o for o in bs.maximal_occurrences(host, 2, 16, params)
                       if len(o.period) == 3)
            tr = bs.turn(host, occ, 2, params)
            back = bs.inverse_turn(tr, 2, params)
            return tr.type_tag, tr.remainder, tr.result, back.result

        return workloads.inputs(workload, seed), run
    if workload == "canon":
        def run(word):
            form = bs.can(word, params)
            return form.word, form.rank

        return workloads.inputs(workload, seed), run
    if workload == "witness":
        count = workloads.WITNESS_ITEMS
        offset = workloads.inputs(workload, seed)
        words = bs.cube_free_stream(offset + count)
        for _ in range(offset):
            next(words)
        if tracer:
            words = tracer.wrap_iterator(tracing.STREAM_NEXT, words)

        def run(_index):
            w = next(words)
            return w, bs.can_word(w, 2, params)

        return list(range(count)), run
    raise ValueError(f"unknown workload {workload!r}")


def timed_pass(items, run, tracer=None):
    """Run every item back to back, timing the calibration kernel between them.

    Returns latencies, outputs, errors by index, calibration samples, and
    for each item the index of the sample taken just before it.
    """
    latencies, outs, errors, before = [], [], {}, []
    samples = [calibration.calibrate()]
    clock = time.perf_counter
    item_id = tracer.name_id(tracing.ITEM) if tracer else None
    since = 0.0
    for i, item in enumerate(items):
        if tracer:
            tracer.item = i
            span = tracer.begin(item_id)
        t = clock()
        try:
            out = run(item)
        except Exception as exc:  # a failing item is counted, the pass goes on
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        dt = clock() - t
        if tracer:
            tracer.end(span)
        latencies.append(dt)
        outs.append(out)
        before.append(len(samples) - 1)
        since += dt
        if since >= calibration.CALIBRATE_EVERY_S or i == len(items) - 1:
            samples.append(calibration.calibrate())
            since = 0.0
    return latencies, outs, errors, samples, before


def word_lengths(workload: str, items, outs) -> list[int]:
    if workload == "witness":
        words = [o[0] for o in outs if o is not None]
    else:
        words = items
    lengths = sorted(len(w) for w in words)
    return [lengths[0], statistics.median_low(lengths), lengths[-1]] if lengths else [0, 0, 0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--spans", help="write the traced pass's spans to this file")
    ap.add_argument("--pathological", action="store_true",
                    help="also count find_runs((baa)^500, 1) once, untimed")
    args = ap.parse_args(argv)

    import burnside as bs

    params = bs.default_params()
    tracer = tracing.Tracer() if args.mode == "traced" else None
    items, run = make_runner(bs, args.workload, args.seed, params, tracer)
    if tracer:
        tracer.install()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    start = time.perf_counter()
    latencies, outs, errors, samples, before = timed_pass(items, run, tracer)
    timed_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "items": len(items),
        "timed_s": timed_s,
        "latencies_s": latencies,
        "calibration_s": samples,
        "before": before,
        "maxrss_kb": maxrss_kb,
        "errors": errors,
    }
    if tracer:
        tracer.restore()
        report["layers"] = tracer.table()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans)
    if args.pathological:
        word = PATHOLOGICAL_PERIOD * PATHOLOGICAL_POWER
        report["pathological_runs_out"] = len(bs.find_runs(word, 1))

    failed = set(errors) | set(workloads.failed_items(args.workload, items, outs))
    digests = [workloads.item_digest(o) for o in outs]
    report["failed"] = sorted(failed)
    report["group"] = workloads.DIGEST_GROUP[args.workload]
    report["groups"] = workloads.group_digests(digests, report["group"])
    report["lengths"] = word_lengths(args.workload, items, outs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
