"""The benchmark's output contract, checked on ``--smoke`` sizes.

Every workload runs once per mode in a subprocess, exactly as the
acceptance driver runs it (plus ``--smoke``).
"""

import json
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS, contract
from bench.workloads import WORKLOADS as classes

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
IN_PROCESS = ("period_paper", "solve_10k", "sweep_fig3")
TIMING_UNITS = {"ms", "us", "s", "1/s", "op/s"}


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int, seed: int = 3, repeat: int = 0):
    """Last-line JSON of one smoke run (``repeat`` defeats the cache)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "15", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec == contract()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert set(WORKLOADS) == set(classes)
    assert 1 <= len(PER_LAYER) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    # 4 + 22 runs per workload of at most 30 s each must fit in 3420 s.
    assert 4 + 22 * len(WORKLOADS) <= 3420 // 30


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *bound in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("lower", "higher")
        assert not bound or 0 < bound[0] <= 0.25
    setup = {m[0]: m for m in END_TO_END}["setup_s"]
    assert setup[1:3] == ("s", "lower")
    assert setup[3] == max(m[3] for m in END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, stdout = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in END_TO_END]
    for name, unit, *_ in END_TO_END:
        entry = result["metrics"][name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == unit
        assert entry["value"] > 0, name
        # ... and by name with its unit in the human-readable part too.
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         stdout, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, _ = smoke(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m[0] for m in PER_LAYER]
    for name, unit, _better in PER_LAYER:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], float) and entry["value"] >= 0.0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["bench.trace_overhead_ratio"] > 0
    assert values["bench.host_calib_ms"] > 0
    # The layers' self times must account for the op span.
    assert values["bench.layer_coverage_ratio"] >= 0.9
    spans = ROOT / ".bench_out" / f"spans-{workload}-3.json"
    document = json.loads(spans.read_text(encoding="utf-8"))
    assert document["fields"] == ["name", "start_s", "end_s", "parent", "op"]
    assert any(span[0] == "bench.op" for span in document["spans"])


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_counts_and_load_imbalance_repeat_exactly_for_a_seed(workload):
    first, _ = smoke(workload, 1)
    second, _ = smoke(workload, 1, repeat=1)
    exact = [
        name for name, unit, _ in PER_LAYER
        if unit not in TIMING_UNITS and not name.startswith(("bench.", "serve."))
    ]
    assert len(exact) >= 10
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    a, _ = smoke(workload, 0)
    b, _ = smoke(workload, 0, repeat=1)
    assert a["metrics"]["load_imbalance"] == b["metrics"]["load_imbalance"]
    other, _ = smoke(workload, 0, seed=4)
    assert other["correct"] is True


def test_it_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "period_paper",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_an_untraced_run_installs_no_wrapper(monkeypatch):
    from bench import run
    from bench.spans import Tracer
    def refuse(*_args, **_kwargs):
        raise AssertionError("untraced run touched the tracer")

    monkeypatch.setattr(Tracer, "__init__", refuse)
    monkeypatch.setattr(Tracer, "patch", refuse)
    metrics, attempted, failed, correct = run.run_untraced(
        classes["period_paper"], seed=3, seconds=15.0, smoke=True
    )
    assert correct and failed == 0 and attempted >= 1
    assert metrics["op_p50_ms"] > 0
