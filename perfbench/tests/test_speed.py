"""The probe-free clock and the scaling of intervals to reference speed."""
import pytest

import speed


class FakeTimer:
    """A timer that a fake probe kernel advances by a set amount."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(probe_s):
    timer = FakeTimer()
    durations = iter(probe_s)

    def kernel():
        timer.now += next(durations)

    return timer, speed.Speed(timer=timer, kernel=kernel)


def test_clock_leaves_out_probe_time():
    ref = speed.REFERENCE_PROBE_S
    timer, s = make([ref, 2 * ref])
    timer.now = 1.0
    s.probe()
    assert s.clock() == pytest.approx(1.0)
    timer.now += 0.5
    s.probe()
    assert s.clock() == pytest.approx(1.5)
    assert s.times == pytest.approx([1.0, 1.5])
    assert s.slowdowns == pytest.approx([1.0, 2.0])


def test_interval_uses_probes_inside_and_nearest_outside():
    ref = speed.REFERENCE_PROBE_S
    timer, s = make([ref, 3 * ref, 2 * ref, 9 * ref])
    for t in (0.0, 1.0, 2.0, 3.0):
        timer.now = t + timer.now - s.clock()
        s.probe()
    # [0.5, 1.5]: probes at 0.0 and 2.0 bracket it, the one at 1.0 is inside.
    assert s.at_reference(0.5, 1.5) == pytest.approx(1.0 / 2.0)
    # Only the nearest probe on each side counts, not the ones beyond.
    assert s.at_reference(1.2, 1.8) == pytest.approx(0.6 / 2.5)


def test_interval_before_or_after_every_probe():
    ref = speed.REFERENCE_PROBE_S
    timer, s = make([2 * ref, 4 * ref])
    timer.now = 1.0
    s.probe()
    timer.now += 1.0
    s.probe()
    assert s.at_reference(0.0, 0.5) == pytest.approx(0.5 / 2.0)
    assert s.at_reference(3.0, 4.0) == pytest.approx(1.0 / 4.0)
