"""Benchmark for burnside: one seeded workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload {roundtrip,canon,witness} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout that holds `src/burnside`.  Each pass is
a fresh interpreter (`perfbench/worker.py`) that runs every item of the
workload back to back: one client, closed loop, no threads.  Passes repeat
until `--seconds` of timed work is done.  Times are rescaled to reference
speed with the calibration kernel (`calibration.py`) and each item's
latency is its median over the passes; set-up time (wall clock, not
rescaled) and memory are medians over launches.  See WORKLOADS.md.

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` untraced and traced passes alternate and the last
line holds the per-layer metrics.  The line before it carries details: pass
count, tail percentile, word lengths, set-up samples and raw pass rates.  Outputs are checked
independently, compared across passes, and for the default seed against the
digests in `perfbench/expected/`.  The exit code is 1 when the benchmark
cannot run; item failures are reported in the result instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10  # the tail is the highest percentile with this many items beyond
SETUP_LAUNCHES = 5  # extra set-up-only interpreters per untraced run
DEADLINE_S = 170  # stop launching work this long after start
PATHOLOGICAL_METRIC = "periodicity.find_runs.pathological_runs_out"
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    units = tracing.metric_units()
    units["trace.items_per_s"] = "1/s"
    units["trace.untraced_items_per_s"] = "1/s"
    units["trace.overhead"] = "ratio"
    units[PATHOLOGICAL_METRIC] = "count"
    return units


def launch(workload: str, seed: int, mode: str, deadline: float, extra=()) -> tuple[float, dict]:
    """Run one worker; (seconds from launch to its first item, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} pass of {workload} failed "
                         f"(exit {proc.returncode}, first line {first.strip()!r})")
    if mode == "setup":
        return setup_s, {}
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def load_expected(workload: str, seed: int) -> list[str] | None:
    path = HERE / "expected" / f"{workload}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data["groups"] if data["seed"] == seed else None


def bad_items(report: dict, reference: list[str], expected: list[str] | None) -> set[int]:
    """Items that failed a check, or whose digest group differs from the
    first pass or from the expected-output file."""
    bad = set(report["failed"])
    group, n = report["group"], report["items"]
    for j in range(-(-n // group)):
        got = report["groups"][j] if j < len(report["groups"]) else None
        want = [reference[j] if j < len(reference) else None]
        if expected is not None:
            want.append(expected[j] if j < len(expected) else None)
        if any(got != w for w in want):
            bad.update(range(j * group, min((j + 1) * group, n)))
    return bad


def item_latencies(reports: list[dict]) -> list[float]:
    """Each item's median latency over the passes, at reference speed."""
    per_pass = [calibration.to_reference(r["latencies_s"], r["calibration_s"], r["before"])
                for r in reports]
    return [statistics.median(times) for times in zip(*per_pass)]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it."""
    if len(values) <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {len(values)}")
    rank = len(values) - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / len(values)


def latency_metrics(latencies: list[float], bad: int) -> dict:
    tail_s, pct = tail(latencies)
    return {
        "items_per_s": (len(latencies) - bad) / sum(latencies),
        "p50_ms": 1000 * statistics.median(latencies),
        "tail_ms": 1000 * tail_s,
        "tail_percentile": pct,
    }


def run_passes(workload: str, seed: int, seconds: float, traced: bool, deadline: float):
    """Launch passes until `seconds` of timed work; (setup samples, reports)."""
    setups, reports = [], []
    spans = HERE / "out" / f"spans-{workload}.tsv.gz"
    timed = 0.0
    while not reports or timed < seconds:
        modes = ("plain", "traced") if traced else ("plain",)
        for mode in modes:
            extra = ()
            if mode == "traced" and not any(r["mode"] == "traced" for r in reports):
                extra = ("--pathological", "--spans", str(spans))
            setup_s, report = launch(workload, seed, mode, deadline, extra)
            setups.append(setup_s)
            reports.append(report)
            timed += report["timed_s"]
        if time.monotonic() + max(r["timed_s"] for r in reports) * len(modes) > deadline:
            break
    return setups, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (SRC / "burnside" / "__init__.py").is_file():
            raise BenchError(f"no burnside sources under {SRC}")
        launch(args.workload, args.seed, "setup", deadline)  # warm-up: byte-compiles
        setups = []
        if not args.trace:
            setups = [launch(args.workload, args.seed, "setup", deadline)[0]
                      for _ in range(SETUP_LAUNCHES)]
        pass_setups, reports = run_passes(args.workload, args.seed, args.seconds,
                                          bool(args.trace), deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    setups += pass_setups

    expected = load_expected(args.workload, args.seed)
    reference = reports[0]["groups"]
    attempted = failed = 0
    ever_bad: set[int] = set()
    for report in reports:
        bad = bad_items(report, reference, expected)
        attempted += report["items"]
        failed += len(bad)
        ever_bad |= bad
    plain = [r for r in reports if r["mode"] == "plain"]
    row = latency_metrics(item_latencies(plain), len(ever_bad))

    if args.trace:
        traced = [r for r in reports if r["mode"] == "traced"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in tracing.metric_units()}
        traced_ips = latency_metrics(item_latencies(traced), len(ever_bad))["items_per_s"]
        values["trace.items_per_s"] = traced_ips
        values["trace.untraced_items_per_s"] = row["items_per_s"]
        values["trace.overhead"] = row["items_per_s"] / traced_ips - 1
        values[PATHOLOGICAL_METRIC] = traced[0]["pathological_runs_out"]
        units = per_layer_units()
    else:
        values = dict(row)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = statistics.median(r["maxrss_kb"] for r in plain) / 1024
        units = END_TO_END_UNITS

    errors = [e for r in reports for e in r["errors"].values()]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(reports),
        "items_per_pass": reports[0]["items"],
        "tail_percentile": row["tail_percentile"],
        "raw_pass_items_per_s": [r["items"] / sum(r["latencies_s"]) for r in plain],
        "calibration_median_s": statistics.median(
            c for r in reports for c in r["calibration_s"]),
        "word_length_min_median_max": reports[0]["lengths"],
        "setup_samples_s": setups,
        "fail_ratio": failed / attempted,
        "checked_against_expected": expected is not None,
        "first_errors": errors[:3],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
