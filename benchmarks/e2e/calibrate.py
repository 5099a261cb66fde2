"""In-line speed reference: how fast is this core right now?

The benchmark box is a small shared VM.  Identical single-threaded work
takes 1.1-2.3 ms per iteration from one ten-second window to the next
with no steal time booked and CPU time equal to wall time: the core
itself runs slower while a neighbour is busy, and no run of the length
the driver allows averages that out.  A kernel on the *other* core does
not help (it has other neighbours, and when it wakes from a sleep it is
the hypervisor's wake-up that gets timed).

So the measured process calibrates itself: about every 20 kernel-times
it stops between two placer iterations, runs a fixed kernel on the same
thread and notes how long that took (a *mark*).  The time between two
marks is then counted at the speed the four marks around it show, which
turns wall seconds into seconds at a fixed reference machine speed.
Time spent in the kernel itself is not counted at all.  Over minutes of
back-to-back flows this cut the spread of single identical flows from
13-16% to 2-5% (miniblue18) and from 12% to 4-6% (midiblue50).

The kernel is a miniature of what the program under test does per
iteration - weighted-average wirelength over a random netlist (gather,
``exp``, ``reduceat``, ``bincount`` scatter) and a spectral density
solve - at the size of the design being placed, because a kernel that
fits the cache does not slow down with the 50x larger arrays of
midiblue50 (it left 10% of their 14% spread).  It is the benchmark's
own code: no change to the program can move it.
"""

from __future__ import annotations

import bisect
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class KernelSpec:
    n_cells: int
    n_pins: int
    n_nets: int
    n_bins: int
    iterations: int
    #: Entries of the object-churn part (dict inserts, tuple and list
    #: building, string hashing); 0 for none.
    n_objects: int
    #: Kernel time that counts as machine speed 1.0 (its usual time on
    #: this box when quiet).  A constant, or runs could not be compared.
    reference_s: float


# A cold start is half imports and netlist building, i.e. interpreter
# work on many small objects, which a busy neighbour slows down more
# than it slows NumPy (1.1-1.5x as much, in log terms); with an
# object-churn part of about equal length the kernel slows down as much
# as the cold start does (slope 0.9-1.0) and three cold starts of
# miniblue18 spread 7% instead of 10%.
KERNELS: Dict[str, KernelSpec] = {
    "small": KernelSpec(1200, 3200, 1100, 32, 20, 0, 0.0052),  # miniblue18
    "large": KernelSpec(55000, 155000, 50000, 256, 1, 0, 0.0144),  # midiblue50
    "small-cold": KernelSpec(1200, 3200, 1100, 32, 20, 10000, 0.0080),
    "large-cold": KernelSpec(55000, 155000, 50000, 256, 1, 30000, 0.0233),
}

SPAN = "bench.calibration"

WARM_UP_CALLS = 8
#: Marks are taken this many kernel-times apart (~5% of the run).
PERIOD_IN_KERNELS = 20
#: The speed between two marks is the median of this many marks on
#: either side: one mark hit by an interrupt does not count.
MARKS_EACH_SIDE = 2


def make_kernel(spec: KernelSpec) -> Callable[[], float]:
    rng = np.random.default_rng(0)
    pin2cell = np.sort(rng.integers(0, spec.n_cells, spec.n_pins))
    starts = np.sort(rng.choice(spec.n_pins, spec.n_nets, replace=False))
    starts[0] = 0
    x0 = rng.random(spec.n_cells) * 100.0
    y0 = rng.random(spec.n_cells) * 100.0
    n_bins = spec.n_bins
    names = [f"cell{i}" for i in range(spec.n_objects)]

    def churn() -> float:
        table: Dict[str, int] = {}
        rows = []
        for i, name in enumerate(names):
            table[name] = i
            rows.append((name, i & 7))
        return float(sum(table[name] + k for name, k in rows))

    def kernel() -> float:
        acc = churn()
        x, y = x0.copy(), y0.copy()
        for _ in range(spec.iterations):
            for coord in (x, y):
                pins = coord[pin2cell]
                hi = np.exp((pins - pins.max()) / 4.0)
                lo = np.exp(-(pins - pins.min()) / 4.0)
                length = (
                    np.add.reduceat(pins * hi, starts) / np.add.reduceat(hi, starts)
                    - np.add.reduceat(pins * lo, starts) / np.add.reduceat(lo, starts)
                )
                acc += float(length.sum())
                coord -= 1e-3 * np.bincount(pin2cell, weights=hi - lo, minlength=spec.n_cells)
            bx = np.clip((x / 100.0 * n_bins).astype(np.int64), 0, n_bins - 1)
            by = np.clip((y / 100.0 * n_bins).astype(np.int64), 0, n_bins - 1)
            rho = np.bincount(bx * n_bins + by, minlength=n_bins * n_bins)
            rho = rho.reshape(n_bins, n_bins).astype(np.float64)
            phi = scipy.fft.idctn(scipy.fft.dctn(rho, norm="ortho") * 0.5, norm="ortho")
            acc += float(phi[bx, by].sum())
        return acc

    return kernel


class Calibrator:
    """Marks ``(start, end)`` of kernel runs, and the arithmetic on them."""

    def __init__(
        self, reference_s: float, kernel: Callable[[], object],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.reference_s = reference_s
        self.period_s = PERIOD_IN_KERNELS * reference_s
        self.marks: List[Tuple[float, float]] = []
        #: A ``trace.Recorder``: the traced round books every kernel run
        #: as a ``bench.calibration`` span, so no layer is charged for it.
        self.recorder = None
        #: What building the kernel took (``for_kernel``); not a mark.
        self.build_s = 0.0
        self._kernel = kernel
        self._clock = clock

    @classmethod
    def for_kernel(
        cls, name: str, clock: Callable[[], float] = time.perf_counter
    ) -> "Calibrator":
        start = clock()
        spec = KERNELS[name]
        kernel = make_kernel(spec)
        # The first call pays the page faults and FFT plans, and the
        # small kernel runs at half speed for five more calls.
        for _ in range(WARM_UP_CALLS):
            kernel()
        cal = cls(spec.reference_s, kernel, clock)
        cal.build_s = clock() - start
        return cal

    def now(self) -> float:
        return self._clock()

    def mark(self) -> None:
        span = self.recorder.begin(SPAN) if self.recorder is not None else None
        start = self._clock()
        self._kernel()
        self.marks.append((start, self._clock()))
        if span is not None:
            self.recorder.end(span)

    def tick(self) -> None:
        """Take a mark if the last one is a period old."""
        if not self.marks or self._clock() - self.marks[-1][1] >= self.period_s:
            self.mark()

    def _kernel_s(self, gap: int) -> float:
        """Kernel time that holds between mark ``gap - 1`` and mark ``gap``."""
        lo = max(0, gap - MARKS_EACH_SIDE)
        hi = min(len(self.marks), gap + MARKS_EACH_SIDE)
        return statistics.median(end - start for start, end in self.marks[lo:hi])

    def seconds(self, t0: float, t1: float) -> Tuple[float, float]:
        """``(busy, reference)`` seconds of ``[t0, t1]``.

        *busy* is the wall clock outside the kernel runs; *reference* is
        the same time with every stretch between two marks counted at
        the machine speed the marks around it show.
        """
        if not self.marks:
            raise RuntimeError("no mark was taken")
        ends = [end for _, end in self.marks]
        busy = reference = 0.0
        # Gap g lies between mark g-1 and mark g; gap 0 is before the
        # first mark and gap len(marks) after the last.
        for gap in range(bisect.bisect_right(ends, t0), len(self.marks) + 1):
            lo = t0 if gap == 0 else max(t0, self.marks[gap - 1][1])
            hi = t1 if gap == len(self.marks) else min(t1, self.marks[gap][0])
            if lo >= t1:
                break
            if hi > lo:
                busy += hi - lo
                reference += (hi - lo) * self.reference_s / self._kernel_s(gap)
        return busy, reference


#: (module, attribute path): called once per placer iteration, and once
#: when the solve is over and sign-off starts.
ITERATION = ("repro.place.optimizer", "NesterovOptimizer.step")
SIGN_OFF = ("repro.harness.runners", "run_sta")


def patch(module_name: str, path: str, before: Callable[[], None]) -> Callable[[], None]:
    """Call ``before()`` ahead of every call of the target; returns the undo."""
    owner = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    orig = getattr(owner, attr)

    def hooked(*args, **kwargs):
        before()
        return orig(*args, **kwargs)

    setattr(owner, attr, hooked)
    return lambda: setattr(owner, attr, orig)
