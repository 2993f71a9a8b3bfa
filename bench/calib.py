"""Host-speed calibration: a fixed stdlib-only kernel and the slice timer.

On a small shared VM the same pure-Python code drifts by tens of percent
within seconds, so a raw wall-clock timing mostly measures the host.  The
benchmark therefore interleaves a fixed kernel with the timed work and
reports timings in units of that kernel: a *normalised* time is the raw
time multiplied by ``NOMINAL_S / sample``, where ``sample`` is how long
the kernel took next to the work.  A host twice as slow doubles both, and
the normalised time stays put.

The kernel is memory-bound like the program it stands in for (dict
lookups over a table far larger than cache, a bounded heap, a sort of
tuples) and imports nothing but the standard library: it must not change
when the program does.
"""

from __future__ import annotations

import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "NOMINAL_S",
    "MAX_SLICE_S",
    "Calibrator",
    "Slice",
    "TimedPhase",
    "factor",
    "run_sliced",
    "tail",
]

#: What one kernel run costs on the reference host; the unit of
#: normalised time.  A run whose ``bench.host_calib_ms`` is far from
#: ``1000 * NOMINAL_S`` ran on a faster or slower host.
NOMINAL_S = 0.050

#: Upper bound on the timed work between two calibration samples.
MAX_SLICE_S = 0.5

_TABLE_KEYS = 400_000
_LOOKUPS = 150_000
_HEAP_ITEMS = 24_000
_HEAP_BOUND = 512
_SORT_ITEMS = 20_000
_MASK = (1 << 32) - 1


def _lcg_stream(count: int, seed: int) -> List[int]:
    """``count`` 32-bit values from a fixed linear congruential stream."""
    out = []
    x = seed
    for _ in range(count):
        x = (x * 1664525 + 1013904223) & _MASK
        out.append(x)
    return out


class Calibrator:
    """Owns the kernel's tables and records every sample it takes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._table = dict.fromkeys(range(_TABLE_KEYS), 1)
        self._keys = [x % _TABLE_KEYS for x in _lcg_stream(_LOOKUPS, 12345)]
        self._heap_values = _lcg_stream(_HEAP_ITEMS, 777)
        self._sort_values = [
            (x & 0xFFFF, x >> 16) for x in _lcg_stream(_SORT_ITEMS, 4242)
        ]
        self.samples: List[float] = []

    def kernel(self) -> int:
        """The fixed unit of work; returns a checksum so nothing is elided."""
        table = self._table
        total = 0
        for key in self._keys:
            total += table[key]
        heap: List[int] = []
        push, pushpop = heapq.heappush, heapq.heappushpop
        for value in self._heap_values:
            if len(heap) < _HEAP_BOUND:
                push(heap, value)
            else:
                total += pushpop(heap, value) & 1
        ordered = sorted(self._sort_values)
        return total + ordered[0][0] + ordered[-1][1]

    def sample(self) -> float:
        """Run the kernel once; returns (and records) its duration in seconds."""
        clock = self._clock
        start = clock()
        self.kernel()
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    def median_ms(self) -> float:
        """Median of every sample taken so far, in milliseconds."""
        return 1000.0 * statistics.median(self.samples)


def factor(before: float, after: float) -> float:
    """Normalisation factor of work bracketed by two calibration samples."""
    return NOMINAL_S / ((before + after) / 2.0)


@dataclass
class Slice:
    """A run of consecutive timed ops between two calibration samples."""

    raw: List[float] = field(default_factory=list)
    factor: float = 1.0

    @property
    def wall(self) -> float:
        return sum(self.raw)


@dataclass
class TimedPhase:
    """Every slice of one timed phase, with the derived statistics."""

    slices: List[Slice] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(len(s.raw) for s in self.slices)

    def raw_latencies(self) -> List[float]:
        return [x for s in self.slices for x in s.raw]

    def normalised_latencies(self) -> List[float]:
        return [x * s.factor for s in self.slices for x in s.raw]

    def op_factors(self) -> List[float]:
        """The slice factor of every op, in op order."""
        return [s.factor for s in self.slices for _ in s.raw]

    @property
    def raw_elapsed(self) -> float:
        return sum(s.wall for s in self.slices)

    @property
    def normalised_elapsed(self) -> float:
        return sum(s.wall * s.factor for s in self.slices)


def run_sliced(
    ops: Iterable[Callable[[], None]],
    calibrator: Calibrator,
    clock: Callable[[], float] = time.perf_counter,
    max_slice: float = MAX_SLICE_S,
    between: Optional[Callable[[int], None]] = None,
    normalise: bool = True,
) -> TimedPhase:
    """Time ``ops`` one by one, cut into calibrated slices.

    Each op is timed on its own, so nothing that happens between two ops
    (``between(i)`` after op ``i``: output checks, input preparation, and
    the calibration kernel itself) is ever inside a timed interval.  A
    slice closes before the op that would take it past ``max_slice``,
    judging that op by the one before it: steady ops fill slices of at
    most ``max_slice``, and ops longer than that get a slice each (only
    the first long op after short ones shares theirs).  Adjacent slices
    share the
    sample taken between them.  With ``normalise=False`` the samples are
    still taken (the calibrator records them) but every slice keeps
    factor 1, so normalised equals raw.
    """
    phase = TimedPhase()
    current = Slice()
    before = calibrator.sample()
    last = 0.0
    for index, op in enumerate(ops):
        if current.raw and current.wall + last > max_slice:
            after = calibrator.sample()
            if normalise:
                current.factor = factor(before, after)
            phase.slices.append(current)
            current, before = Slice(), after
        start = clock()
        op()
        last = clock() - start
        current.raw.append(last)
        if between is not None:
            between(index)
    if current.raw:
        after = calibrator.sample()
        if normalise:
            current.factor = factor(before, after)
        phase.slices.append(current)
    return phase


def tail(latencies: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``; with fewer than ``2 * beyond``
    samples no tail above the median is supported and the median is
    returned as the 50th percentile.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 2 * beyond:
        return 50.0, statistics.median(ordered)
    index = count - beyond - 1
    return 100.0 * (index + 1) / count, ordered[index]
