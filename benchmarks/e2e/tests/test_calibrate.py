"""Reference-speed arithmetic, and that the timed rounds' hooks change no result."""

import numpy as np
import pytest

import calibrate
import child
from workloads import BY_NAME


class ScriptedMachine:
    """A clock the test moves, and a kernel that takes what the test says."""

    def __init__(self):
        self.t = 0.0
        self.kernel_s = 1.0

    def clock(self):
        return self.t

    def kernel(self):
        self.t += self.kernel_s

    def work(self, seconds):
        self.t += seconds


def test_time_between_marks_counts_at_the_speed_the_marks_show(monkeypatch):
    monkeypatch.setattr(calibrate, "MARKS_EACH_SIDE", 1)
    m = ScriptedMachine()
    cal = calibrate.Calibrator(1.0, m.kernel, m.clock)
    cal.mark()          # [0, 1] at reference speed
    m.work(10.0)        # 1..11
    m.kernel_s = 2.0    # the machine now runs at half speed
    cal.mark()          # [11, 13]
    m.work(10.0)        # 13..23
    cal.mark()          # [23, 25]
    assert cal.marks == [(0.0, 1.0), (11.0, 13.0), (23.0, 25.0)]
    # First stretch: kernel took 1 then 2 -> median 1.5; second: 2 and 2.
    assert cal.seconds(1.0, 11.0) == (10.0, pytest.approx(10.0 / 1.5))
    assert cal.seconds(13.0, 23.0) == (10.0, 5.0)
    # Kernel time inside the window is not counted at all.
    busy, reference = cal.seconds(1.0, 23.0)
    assert (busy, reference) == (20.0, pytest.approx(10.0 / 1.5 + 5.0))
    # A window that starts or ends inside a stretch takes its share of it,
    # and one that starts inside a kernel run starts when that run ends.
    assert cal.seconds(6.0, 12.0) == (5.0, pytest.approx(5.0 / 1.5))
    assert cal.seconds(12.0, 18.0) == (5.0, 2.5)
    # Before the first mark and after the last, the nearest mark holds.
    assert cal.seconds(-4.0, 0.0) == (4.0, 4.0)
    assert cal.seconds(25.0, 29.0) == (4.0, 2.0)


def test_one_disturbed_mark_does_not_count():
    m = ScriptedMachine()
    cal = calibrate.Calibrator(1.0, m.kernel, m.clock)
    for kernel_s in (1.0, 1.0, 5.0, 1.0, 1.0):  # an interrupt hit the third
        m.kernel_s = kernel_s
        cal.mark()
        m.work(10.0)
    for gap in range(1, 5):
        start = cal.marks[gap - 1][1]
        assert cal.seconds(start, start + 10.0) == (10.0, 10.0)


def test_tick_marks_once_a_period():
    m = ScriptedMachine()
    cal = calibrate.Calibrator(1.0, m.kernel, m.clock)
    cal.tick()  # nothing yet: mark
    for _ in range(3 * calibrate.PERIOD_IN_KERNELS - 1):
        m.work(1.0)
        cal.tick()
    assert len(cal.marks) == 3
    with pytest.raises(RuntimeError):
        calibrate.Calibrator(1.0, m.kernel, m.clock).seconds(0.0, 1.0)


def test_patch_calls_before_and_undoes():
    import repro.place.optimizer as optimizer

    orig = optimizer.NesterovOptimizer.step
    calls = []
    undo = calibrate.patch(*calibrate.ITERATION, lambda: calls.append(1))
    assert optimizer.NesterovOptimizer.step is not orig
    undo()
    assert optimizer.NesterovOptimizer.step is orig and calls == []


def test_the_kernels_are_deterministic_and_sized_like_the_designs():
    for workload in BY_NAME.values():  # one for the flows, one for the cold start
        assert not calibrate.KERNELS[workload.kernel].n_objects
        assert calibrate.KERNELS[workload.kernel + "-cold"].n_objects
    small = calibrate.KERNELS["small"]
    assert calibrate.make_kernel(small)() == calibrate.make_kernel(small)()


def test_hooks_change_no_result(tmp_path):
    """The timed rounds run with two hooks on; the flow must not notice."""
    workload = BY_NAME["ours_mini18"]
    bundle, _ = child.load_bundle(
        child.spec_for(workload, 0, 0), directory=str(tmp_path)
    )
    options = child.placer_options(workload, 0, 0, smoke=True)

    def flow():
        return child.run_mode(
            bundle.design, workload.mode, options, sta_graph=bundle.graph
        )

    plain = flow()
    cal = calibrate.Calibrator.for_kernel(workload.kernel)
    sign_off = []
    undo = [
        calibrate.patch(*calibrate.ITERATION, cal.tick),
        calibrate.patch(*calibrate.SIGN_OFF, lambda: sign_off.append(cal.now())),
    ]
    try:
        t0 = cal.now()
        hooked = flow()
        t1 = cal.now()
    finally:
        for u in undo:
            u()
    assert np.array_equal(plain.x, hooked.x) and np.array_equal(plain.y, hooked.y)
    assert child.quality(plain) == child.quality(hooked)
    assert len(sign_off) == 1 and t0 < sign_off[0] < t1
    assert len(cal.marks) >= 2
    # The solve as the program timed it is the solve as the marks see it,
    # kernel runs included.
    in_solve = sum(b - a for a, b in cal.marks if t0 <= a and b <= sign_off[0])
    busy, _ = cal.seconds(t0, sign_off[0])
    assert busy + in_solve == pytest.approx(hooked.runtime, rel=0.02)
