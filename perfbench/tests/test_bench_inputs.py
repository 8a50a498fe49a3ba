import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import workloads
from conftest import BENCH

DUMP = "import sys, workloads; sys.stdout.write(repr([workloads.inputs(w, 7) for w in workloads.WORKLOADS]))"


def test_same_seed_gives_byte_identical_inputs_across_interpreters():
    outs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(BENCH))
        outs.add(subprocess.run([sys.executable, "-c", DUMP], env=env, check=True,
                                capture_output=True).stdout)
    assert len(outs) == 1
    here = repr([workloads.inputs(w, 7) for w in workloads.WORKLOADS]).encode()
    assert outs == {here}


def test_other_seed_gives_other_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.inputs(w, 1) != workloads.inputs(w, 2)


def test_inputs_are_reduced_and_sized():
    hosts = workloads.roundtrip_inputs(3)
    assert len(hosts) == workloads.ROUNDTRIP_ITEMS
    assert all(workloads.is_reduced(h) and 340 <= len(h) <= 2000 for h in hosts)
    words = workloads.canon_inputs(3)
    assert len(words) == 75
    assert sum(len(w) > 8000 for w in words) == 15
    assert all(workloads.is_reduced(w) for w in words)
    assert 0 <= workloads.witness_offset(3) < workloads.WITNESS_MAX_OFFSET


def _brute_max_measure(w):
    best = Fraction(0)
    for i in range(len(w)):
        for j in range(i + 2, len(w) + 1):
            u = w[i:j]
            p = next(p for p in range(1, len(u) + 1)
                     if all(u[k] == u[k + p] for k in range(len(u) - p)))
            best = max(best, Fraction(len(u), p))
    return best


def test_measure_check_matches_brute_force():
    for n in range(2, 9):
        for w in product((1, -1, 2), repeat=n):
            top = _brute_max_measure(w)
            for bound in (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)):
                assert workloads.max_measure_bound_ok(w, bound) == (top <= bound), (w, bound)


def test_slots_cover_each_interval_without_straddling_an_edge():
    import random

    edges = (Fraction(429, 2), Fraction(593, 2), Fraction(691, 2), Fraction(757, 2))
    for seed in range(20):
        vals = workloads._slotted(random.Random(seed), edges, (5, 3, 2))
        assert vals == sorted(vals) and len(set(vals)) == 10
        assert all(edges[0] < v < edges[1] for v in vals[:5])
        assert all(edges[1] < v < edges[2] for v in vals[5:8])
        assert all(edges[2] < v < edges[3] for v in vals[8:])
