"""Overhead of the observability layer on the local-search hot path.

The ``repro.obs`` registry is disabled by default and every
instrumentation site in ``balance_rack_aware`` batches counts in
``SearchStats``, flushing once per run behind a single ``enabled``
check — so a disabled registry adds one attribute read per run to the
algorithm.  There is no uninstrumented build to diff against, so the
measurable contract is relative: a disabled run must not be slower
than an enabled run (which pays the full flush), and even the enabled
flush must stay far below the 5% acceptance budget.  The interleaved
medians are recorded in ``results/obs_overhead.txt`` so history shows
the absolute gap.
"""

import statistics
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.initial_placement import place_all_blocks
from repro.core.local_search import balance_rack_aware
from repro.core.placement import PlacementState
from repro.experiments.ablation import make_instance

pytestmark = pytest.mark.bench


def _converge(instance):
    state = PlacementState(instance.problem())
    place_all_blocks(state)
    return balance_rack_aware(state)


@pytest.fixture
def instance():
    return make_instance(num_blocks=300, seed=13)


@pytest.fixture
def obs_clean():
    """Leave the process-global registry/tracer as the suite found it."""
    yield
    obs.get_registry().reset()
    obs.get_tracer().clear()
    obs.disable()


def test_local_search_registry_disabled(instance, obs_clean):
    obs.disable()
    assert _converge(instance).converged


def test_local_search_registry_enabled(instance, obs_clean):
    obs.enable()
    obs.get_registry().reset()
    assert _converge(instance).converged


def test_disabled_mode_overhead_within_budget(instance, obs_clean):
    """Interleaved medians: disabled must not exceed enabled + noise."""
    rounds = 5
    disabled, enabled = [], []
    _converge(instance)  # warm-up outside the measured rounds
    for _ in range(rounds):
        obs.disable()
        start = time.perf_counter()
        _converge(instance)
        disabled.append(time.perf_counter() - start)

        obs.enable()
        start = time.perf_counter()
        _converge(instance)
        enabled.append(time.perf_counter() - start)

    med_off = statistics.median(disabled)
    med_on = statistics.median(enabled)
    (Path(__file__).parent / "results" / "obs_overhead.txt").write_text(
        f"balance_rack_aware median seconds over {rounds} rounds\n"
        f"registry disabled: {med_off:.6f}\n"
        f"registry enabled:  {med_on:.6f}\n"
        f"enabled/disabled:  {med_on / med_off:.3f}\n",
        encoding="utf-8",
    )
    # The disabled path does strictly less work than the enabled one;
    # allow generous slack for scheduler noise on shared CI boxes.
    assert med_off <= med_on * 1.25
    # The once-per-run flush keeps even the enabled mode cheap.
    assert med_on <= med_off * 1.5
