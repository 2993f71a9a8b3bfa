#!/usr/bin/env python3
"""Run-to-run steadiness check of the benchmark itself.

Runs every workload once per seed, in two interleaved sets (set A and
set B alternate run by run, so a slow minute on the host hits both), and
reports for each end-to-end metric the two sets' medians and quartiles,
the quartile spread as a share of the median, and how far the second
median is from the first — the same arithmetic the acceptance driver
applies.  ``bench/evidence/`` holds the committed output.

    python3 bench/stability.py --seeds 10 --out bench/evidence
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.metrics import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402

DETAIL_KEYS = ("raw_op_p50_ms", "raw_ops_per_s", "raw_setup_s",
               "host_calib_ms")


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced run; end-to-end metrics plus the raw detail values."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("# detail "):
            values.update(json.loads(line[len("# detail "):]))
    values["wall_s"] = wall
    values["failed"] = result["failed"]
    return values


def summarise(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--render", type=Path, default=None,
                        help="re-apply the bounds to the runs recorded in "
                             "this stability.json instead of running")
    args = parser.parse_args()
    seconds = RUN_SECONDS if args.seconds is None else args.seconds

    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        w: {"A": [], "B": []} for w in args.workloads
    }
    if args.render is not None:
        recorded = json.loads(args.render.read_text(encoding="utf-8"))
        seconds = recorded["seconds"]
        runs = {w: e["runs"] for w, e in recorded["workloads"].items()}
        args.workloads = list(runs)
        args.seeds = len(next(iter(runs.values()))["A"])
    for offset in range(0 if args.render else args.seeds):
        for workload in args.workloads:
            for label in ("A", "B"):
                # Every run of both sets gets a seed of its own.
                seed = args.first_seed + 2 * offset + (label == "B")
                values = run_once(workload, seed, seconds)
                values["seed"] = seed
                runs[workload][label].append(values)
                print(f"{workload:13s} set {label} seed {seed:3d} "
                      f"wall {values['wall_s']:5.1f}s "
                      f"calib {values.get('host_calib_ms', 0):5.1f}ms "
                      + " ".join(f"{name}={values[name]:.4g}"
                                 for name, *_ in END_TO_END), flush=True)

    bounds = {name: bound for name, _u, _b, bound in END_TO_END}
    better = {name: b for name, _u, b, _bound in END_TO_END}
    better["raw_ops_per_s"] = "higher"
    report = {"seconds": seconds, "workloads": {}}
    lines = [
        "# Benchmark steadiness evidence", "",
        f"`python3 bench/stability.py --seeds {args.seeds}` at "
        f"`--seconds {seconds:g}`: {args.seeds} runs per workload per set, "
        "sets A and B interleaved, every run with a seed of its own.",
        "`spread` = (q3 - q1) / median over a set's runs "
        "(`statistics.quantiles(values, n=4)`); `B vs A` = how much worse "
        "set B's median is than set A's (negative = better).  A spread "
        "or a worsening above the metric's bound would fail the benchmark.",
        "",
    ]
    ok = True
    for workload in args.workloads:
        entry = report["workloads"][workload] = {"metrics": {}, "runs": runs[workload]}
        lines += [f"## {workload}", "",
                  "| metric | bound | A q1 / median / q3 | A spread | "
                  "B q1 / median / q3 | B spread | B vs A |",
                  "|---|---|---|---|---|---|---|"]
        names = [name for name, *_ in END_TO_END] + list(DETAIL_KEYS)
        for name in names:
            a = summarise([r[name] for r in runs[workload]["A"]])
            b = summarise([r[name] for r in runs[workload]["B"]])
            worse = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            if better.get(name, "lower") == "higher":
                worse = -worse
            entry["metrics"][name] = {"A": a, "B": b, "b_vs_a": worse}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                spread_ok = name == "setup_s" or max(
                    a["spread"], b["spread"]) <= bound
                if not (spread_ok and worse <= bound):
                    ok = False
                    flag = " **FAIL**"
            lines.append(
                f"| `{name}` | {bound if bound is not None else '—'} | "
                f"{a['q1']:.4g} / {a['median']:.4g} / {a['q3']:.4g} | "
                f"{100 * a['spread']:.2f}% | "
                f"{b['q1']:.4g} / {b['median']:.4g} / {b['q3']:.4g} | "
                f"{100 * b['spread']:.2f}% | {100 * worse:+.2f}%{flag} |"
            )
        lines += ["", "Per run (seed: host_calib_ms, wall s): " + "; ".join(
            f"{r['seed']}: {r.get('host_calib_ms', 0):.1f}, {r['wall_s']:.1f}"
            for label in ("A", "B") for r in runs[workload][label]
        ), ""]
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "stability.md").write_text(text + "\n", encoding="utf-8")
        (args.out / "stability.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
