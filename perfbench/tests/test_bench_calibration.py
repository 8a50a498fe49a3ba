import gc

import pytest

import calibration


def test_to_reference_uses_the_bracketing_samples():
    ref = calibration.REFERENCE_S
    samples = [ref, 3 * ref, 2 * ref]
    got = calibration.to_reference([0.4, 0.4, 0.4], samples, [0, 1, 1])
    assert got == pytest.approx([0.2, 0.16, 0.16])


def test_kernel_leaves_no_garbage_collector_work():
    gc.collect()
    before = gc.get_count()
    for _ in range(20):
        assert calibration.calibrate() > 0
    # a kernel allocating tracked objects would add hundreds per run
    assert gc.get_count()[1:] == before[1:]
    assert gc.get_count()[0] - before[0] < 10
