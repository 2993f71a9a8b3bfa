"""The calibration kernel and the slice timer."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from bench import calib
from bench.calib import Calibrator, NOMINAL_S, run_sliced, tail

CALIB = Path(calib.__file__)


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class FakeCalibrator(Calibrator):
    """The real sampling code around a kernel that costs scripted time."""

    def __init__(self, clock: FakeClock, costs) -> None:
        self._clock = clock
        self.samples = []
        self._costs = iter(costs)
        self.running = False

    def kernel(self) -> int:
        self.running = True
        self._clock.now += next(self._costs)
        self.running = False
        return 0


def _ops(clock, durations, calibrator=None):
    def make(duration):
        def op():
            assert calibrator is None or not calibrator.running
            clock.now += duration
        return op
    return [make(d) for d in durations]


def test_kernel_imports_only_the_standard_library():
    tree = ast.parse(CALIB.read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in calib.py"
            modules.add(node.module.split(".")[0])
    assert modules <= set(sys.stdlib_module_names), modules
    assert "repro" not in modules and "bench" not in modules


def test_importing_and_running_the_kernel_loads_no_repro_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calib; "
        "calib.Calibrator().sample(); "
        "bad = [m for m in sys.modules if m.split('.')[0] in ('repro', 'numpy')]; "
        "assert not bad, bad"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(CALIB.parent)], check=True
    )


def test_kernel_is_deterministic():
    calibrator = Calibrator()
    assert calibrator.kernel() == calibrator.kernel()


def test_normalised_equals_raw_when_every_sample_is_nominal():
    clock = FakeClock()
    calibrator = FakeCalibrator(clock, [NOMINAL_S] * 100)
    durations = [0.2, 0.01, 0.3, 0.7, 0.05, 0.05, 0.45]
    phase = run_sliced(_ops(clock, durations), calibrator, clock=clock)
    assert all(s.factor == pytest.approx(1.0) for s in phase.slices)
    assert phase.normalised_latencies() == pytest.approx(phase.raw_latencies())
    assert phase.normalised_elapsed == pytest.approx(phase.raw_elapsed)


def test_calibration_time_is_excluded_from_every_timed_op():
    clock = FakeClock()
    # Wildly varying kernel cost: none of it may leak into an op.
    calibrator = FakeCalibrator(clock, [0.05, 3.0, 0.5, 0.01, 7.0] * 20)
    durations = [0.3, 0.3, 0.3, 0.6, 0.1, 0.2, 0.2, 0.2]
    checks = []
    phase = run_sliced(
        _ops(clock, durations, calibrator), calibrator, clock=clock,
        between=lambda i: checks.append((i, clock.now)),
    )
    assert phase.raw_latencies() == pytest.approx(durations)
    assert phase.raw_elapsed == pytest.approx(sum(durations))
    assert [i for i, _ in checks] == list(range(len(durations)))
    # One sample before the first slice, one after every slice.
    assert len(calibrator.samples) == len(phase.slices) + 1


def test_a_slow_host_scales_timings_down_by_the_sample_ratio():
    clock = FakeClock()
    calibrator = FakeCalibrator(clock, [2 * NOMINAL_S] * 50)
    phase = run_sliced(_ops(clock, [0.4, 0.4]), calibrator, clock=clock)
    assert phase.normalised_latencies() == pytest.approx([0.2, 0.2])
    assert phase.ops / phase.normalised_elapsed == pytest.approx(5.0)


def test_unnormalised_phase_still_samples_but_keeps_factor_one():
    clock = FakeClock()
    calibrator = FakeCalibrator(clock, [3 * NOMINAL_S] * 50)
    phase = run_sliced(
        _ops(clock, [0.4, 0.4]), calibrator, clock=clock, normalise=False
    )
    assert phase.normalised_latencies() == pytest.approx([0.4, 0.4])
    assert len(calibrator.samples) == len(phase.slices) + 1


def test_slices_hold_at_most_half_a_second_and_long_ops_get_their_own():
    clock = FakeClock()
    calibrator = FakeCalibrator(clock, [NOMINAL_S] * 100)
    durations = [0.1] * 12 + [0.9, 0.9] + [0.1] * 3
    phase = run_sliced(_ops(clock, durations), calibrator, clock=clock)
    for piece in phase.slices:
        # Only an op longer than the one before it can overshoot: the
        # timer judges the next op by the last.
        steady = piece.raw[:-1] if piece.raw[-1] > 0.5 else piece.raw
        assert sum(steady) <= calib.MAX_SLICE_S + 1e-9
    assert [0.9] in [[round(x, 6) for x in p.raw] for p in phase.slices]
    assert phase.ops == len(durations)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    percentile, value = tail([float(i) for i in range(1, 1001)])
    assert (percentile, value) == (99.0, 990.0)
    percentile, value = tail([float(i) for i in range(1, 13)])
    assert (percentile, value) == (50.0, 6.5)
