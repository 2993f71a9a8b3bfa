"""Command-line interface: regenerate figures, traces and ablations.

Usage (installed as ``python -m repro``):

.. code-block:: text

    python -m repro figures --out results/ --figures 3 6
    python -m repro figures --quick            # small-scale smoke run
    python -m repro trace yahoo --out trace.jsonl --files 120 --hours 3
    python -m repro trace swim --out swim.jsonl --scale-to 10
    python -m repro ablation --out results/
    python -m repro scale --solver             # solver speedup benchmark
    python -m repro chaos --profiles crash partition flaky --hours 2
    python -m repro chaos --bit-rot --quick   # silent-corruption chaos
    python -m repro scrub --scrub-mbps 64     # background-scrubber demo
    python -m repro overload --load 1.5 --minutes 10
    python -m repro fsck --profiles crash --hours 1 --json fsck.json
    python -m repro metrics --demo             # observability smoke run
    python -m repro metrics --from snap.json   # re-render a saved snapshot
    python -m repro chaos --quick --telemetry-out tel/
    python -m repro report tel/ --out report/  # HTML + markdown dashboard
    python -m repro traces tel/ --top 5        # slowest causal traces
    python -m repro -v figures --quick         # INFO-level run logging

``ha``, ``scrub`` and ``fsck`` are presets of the chaos scenarios:
``ha`` is ``chaos --kill-leader --quick`` with a ``--kill-at``, ``scrub``
is ``chaos --bit-rot`` with scrubber knobs, and ``fsck`` is ``chaos``
reporting only its closing fsck.  A scenario command exits 0 when the
storm ended healthy; 1 when it lost data or metadata, left corruption
unrepaired or ended with an unhealthy fsck; 2 on a bad argument.

All commands are deterministic for a given ``--seed``.  ``-v``/``-q``
(repeatable) raise or lower the log level; ``figures --metrics-out DIR``
dumps one observability snapshot per figure.  ``--telemetry-out DIR``
(on ``figures``/``chaos``/``overload``) instead captures the full
telemetry pipeline — sim-clock time series, causal traces, SLO verdicts
— which ``report`` and ``traces`` then render offline.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError
from repro.experiments.ablation import (
    make_instance,
    render_ablations,
    run_epsilon_ablation,
    run_factor_ablation,
    run_initial_placement_ablation,
)
from repro.experiments.fig3 import default_trace, render_fig3, run_fig3
from repro.experiments.fig4 import render_fig4, run_fig4
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.fig6 import render_fig6, run_fig6
from repro.experiments.harness import (
    ClusterConfig,
    ExperimentConfig,
    SystemKind,
    run_experiment,
)
from repro.obs.telemetry import TelemetrySession
from repro.workload.stats import describe_trace
from repro.workload.swim import SwimTraceConfig, generate_swim_trace, scale_down
from repro.workload.yahoo import YahooTraceConfig, generate_yahoo_trace

__all__ = ["main"]

_QUICK_CLUSTER = ClusterConfig(
    num_racks=3, machines_per_rack=3, capacity_blocks=150,
    slots_per_machine=2,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aurora (ICDCS 2015) reproduction toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise the log level (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="lower the log level (-q ERROR, -qq CRITICAL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    figures.add_argument(
        "--figures", nargs="+", type=int, default=[3, 4, 5, 6],
        choices=[3, 4, 5, 6], help="which figures to run",
    )
    figures.add_argument("--out", type=Path, default=Path("results"))
    figures.add_argument("--seed", type=int, default=0)
    figures.add_argument(
        "--epsilons", nargs="+", type=float, default=[0.1, 0.6, 0.8],
    )
    figures.add_argument(
        "--quick", action="store_true",
        help="tiny cluster and trace for a fast smoke run",
    )
    figures.add_argument(
        "--metrics-out", type=Path, default=None,
        help="directory for per-figure observability snapshots "
             "(figN.metrics.json); enables metric collection",
    )
    figures.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the independent cases of each figure "
             "(results are identical to --jobs 1)",
    )
    figures.add_argument(
        "--telemetry-out", type=Path, default=None,
        help="also run one instrumented Aurora replay of the figure "
             "workload and write its telemetry directory here (for "
             "'repro report' / 'repro traces')",
    )

    trace = sub.add_parser("trace", help="generate a workload trace")
    trace.add_argument("kind", choices=["yahoo", "swim"])
    trace.add_argument("--out", type=Path, required=True)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--files", type=int, default=120)
    trace.add_argument("--jobs-per-hour", type=float, default=550.0)
    trace.add_argument("--hours", type=float, default=3.0)
    trace.add_argument(
        "--scale-to", type=int, default=None,
        help="SWIM only: scale the 600-node workload down to N nodes",
    )

    ablation = sub.add_parser("ablation", help="run the design ablations")
    ablation.add_argument("--out", type=Path, default=Path("results"))
    ablation.add_argument("--seed", type=int, default=0)
    ablation.add_argument("--blocks", type=int, default=300)

    scale = sub.add_parser(
        "scale", help="run the cluster-size study (E14)"
    )
    scale.add_argument("--out", type=Path, default=Path("results"))
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument(
        "--machines-per-rack", nargs="+", type=int, default=[3, 5, 8],
    )
    scale.add_argument("--hours", type=float, default=2.0)
    scale.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the (size, system) cases",
    )
    scale.add_argument(
        "--solver", action="store_true",
        help="instead run the solver scale study: incremental local-search "
             "engine timed against the naive reference solver",
    )

    sensitivity = sub.add_parser(
        "sensitivity", help="sweep the W and K operator knobs (E16)"
    )
    sensitivity.add_argument("--out", type=Path, default=Path("results"))
    sensitivity.add_argument("--seed", type=int, default=0)
    sensitivity.add_argument("--hours", type=float, default=2.0)
    sensitivity.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep's independent settings",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection storm and report resilience",
    )
    chaos.add_argument("--out", type=Path, default=Path("results"))
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--hours", type=float, default=2.0)
    chaos.add_argument(
        "--profiles", nargs="+", default=None,
        choices=["crash", "gray", "partition", "flaky", "msgloss"],
        help="fault profiles to arm (default: crash partition flaky; "
             "not with --kill-leader or --bit-rot)",
    )
    chaos.add_argument(
        "--throttle", type=_non_negative_int, default=None,
        help="max concurrent re-replication transfers (0 = unlimited; "
             "default 8; not with --kill-leader)",
    )
    chaos.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write an observability snapshot of the run here",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="small cluster, short dense storm: a fast smoke run that "
             "still yields traces and SLO verdicts",
    )
    chaos.add_argument(
        "--telemetry-out", type=Path, default=None,
        help="capture the full telemetry pipeline (time series, causal "
             "traces, SLOs) into this directory",
    )
    chaos.add_argument(
        "--trace-sample-rate", type=float, default=0.1,
        help="fraction of client reads that get a causal trace "
             "(with --telemetry-out)",
    )
    variant = chaos.add_mutually_exclusive_group()
    variant.add_argument(
        "--kill-leader", action="store_true",
        help="run the HA leader-kill scenario (replicated metadata "
             "plane) instead of the datanode fault storm",
    )
    chaos.add_argument(
        "--replicas", type=int, default=3,
        help="namenode replicas for --kill-leader",
    )
    variant.add_argument(
        "--bit-rot", action="store_true",
        help="run the silent-corruption scenario (bit-rot + torn "
             "writes vs the scrubber) instead of the outage storm",
    )

    scrub = sub.add_parser(
        "scrub",
        help="demo the background block scrubber: silent corruption "
             "detected and repaired before clients notice",
    )
    scrub.add_argument("--out", type=Path, default=Path("results"))
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument("--hours", type=float, default=2.0)
    scrub.add_argument(
        "--scrub-interval", type=float, default=30.0,
        help="seconds between scrubber ticks",
    )
    scrub.add_argument(
        "--scrub-mbps", type=float, default=256.0,
        help="scrubber read-back bandwidth budget (MB/s)",
    )
    scrub.add_argument(
        "--bitrot-mtbf", type=float, default=3600.0,
        help="per-machine mean seconds between bit-rot strikes",
    )
    scrub.add_argument(
        "--json", type=Path, default=None,
        help="write the machine-readable result summary here",
    )

    ha = sub.add_parser(
        "ha",
        help="demo the replicated metadata plane: kill the leader "
             "mid-optimization and watch the failover timeline",
    )
    ha.add_argument("--out", type=Path, default=Path("results"))
    ha.add_argument("--seed", type=int, default=0)
    ha.add_argument("--replicas", type=int, default=3)
    ha.add_argument(
        "--kill-at", type=float, default=950.0,
        help="sim seconds at which the leader replica dies",
    )

    overload = sub.add_parser(
        "overload",
        help="run an overload storm, protected vs unprotected",
    )
    overload.add_argument("--out", type=Path, default=Path("results"))
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument(
        "--minutes", type=float, default=10.0,
        help="storm duration before the drain phase",
    )
    overload.add_argument(
        "--load", type=float, default=1.5,
        help="offered read load as a multiple of cluster capacity",
    )
    overload.add_argument(
        "--policy", default="priority",
        choices=["reject", "drop_oldest", "priority"],
        help="shed policy for the bounded service queues",
    )
    overload.add_argument(
        "--protected-only", action="store_true",
        help="skip the unprotected baseline run",
    )
    overload.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write an observability snapshot of the run here",
    )
    overload.add_argument(
        "--telemetry-out", type=Path, default=None,
        help="capture telemetry here (paired runs write protected/ and "
             "unprotected/ subdirectories)",
    )
    overload.add_argument(
        "--trace-sample-rate", type=float, default=0.1,
        help="fraction of client reads that get a causal trace "
             "(with --telemetry-out)",
    )

    fsck = sub.add_parser(
        "fsck",
        help="run the cluster invariant checker after a seeded storm",
    )
    fsck.add_argument("--seed", type=int, default=0)
    fsck.add_argument("--hours", type=float, default=1.0)
    fsck.add_argument(
        "--profiles", nargs="+",
        default=["crash", "partition", "flaky"],
        choices=["crash", "gray", "partition", "flaky", "msgloss"],
        help="fault profiles to arm before checking",
    )
    fsck.add_argument(
        "--json", type=Path, default=None,
        help="write the machine-readable fsck report here",
    )

    metrics = sub.add_parser(
        "metrics",
        help="expose the observability registry (Prometheus text / JSON)",
    )
    metrics.add_argument(
        "--demo", action="store_true",
        help="run a small instrumented Aurora workload first, so the "
             "registry has something to show",
    )
    metrics.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON snapshot (metrics plus spans) here",
    )
    metrics.add_argument(
        "--from", dest="from_file", type=Path, default=None, metavar="FILE",
        help="render a previously written JSON snapshot instead of the "
             "live registry",
    )
    metrics.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report",
        help="render a telemetry directory as an HTML + markdown dashboard",
    )
    report.add_argument(
        "telemetry", type=Path,
        help="telemetry directory written by --telemetry-out",
    )
    report.add_argument(
        "--out", type=Path, default=None,
        help="directory for report.html / report.md "
             "(default: the telemetry directory itself)",
    )
    report.add_argument(
        "--top", type=int, default=5,
        help="slowest traces to include in the dashboard",
    )

    traces = sub.add_parser(
        "traces",
        help="dump causal request traces from a telemetry directory",
    )
    traces.add_argument(
        "telemetry", type=Path,
        help="telemetry directory written by --telemetry-out",
    )
    traces.add_argument(
        "--top", type=int, default=5,
        help="how many of the slowest traces to print",
    )
    traces.add_argument(
        "--trace-id", type=int, default=None,
        help="print one specific trace instead of the top-N",
    )
    traces.add_argument(
        "--json", type=Path, default=None,
        help="also write the selected traces as JSON here",
    )

    serve = sub.add_parser(
        "serve",
        help="run the cluster as real namenode/datanode processes",
    )
    serve.add_argument(
        "--racks", type=int, default=2, help="number of racks",
    )
    serve.add_argument(
        "--datanodes-per-rack", type=int, default=2,
        help="datanode processes per rack",
    )
    serve.add_argument(
        "--capacity", type=int, default=128,
        help="per-datanode capacity in blocks",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="namenode port (0 = ephemeral)",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        help="datanode heartbeat period in seconds",
    )
    serve.add_argument(
        "--heartbeat-expiry", type=float, default=4.0,
        help="seconds without a beat before a datanode is declared dead",
    )
    serve.add_argument(
        "--replication", type=int, default=2,
        help="default replication factor",
    )
    serve.add_argument(
        "--aurora-period", type=float, default=30.0,
        help="Aurora optimizer period in seconds (0 disables)",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="boot on ephemeral ports, verify health, exit 0/1",
    )
    serve.add_argument(
        "--demo", action="store_true",
        help="write/read through the SDK, kill a datanode, verify repair",
    )
    serve.add_argument(
        "--json", type=Path, default=None,
        help="also write the --check/--demo result as JSON here",
    )
    serve.add_argument("--seed", type=int, default=0)
    # Internal: how the supervisor launches its child processes.
    serve.add_argument(
        "--role", choices=["namenode", "datanode"], default=None,
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--node-id", type=int, default=0, help=argparse.SUPPRESS,
    )
    serve.add_argument("--namenode", default=None, help=argparse.SUPPRESS)
    serve.add_argument("--announce", default=None, help=argparse.SUPPRESS)
    serve.add_argument("--leader", default=None, help=argparse.SUPPRESS)

    for command, handler in (
        (figures, _cmd_figures), (trace, _cmd_trace),
        (ablation, _cmd_ablation), (scale, _cmd_scale),
        (sensitivity, _cmd_sensitivity), (metrics, _cmd_metrics),
        (report, _cmd_report), (traces, _cmd_traces), (serve, _cmd_serve),
        (chaos, _cmd_chaos),
        (scrub, lambda args: _run_scenario(args, _SCRUB)),
        (ha, lambda args: _run_scenario(args, _HA)),
        (overload, lambda args: _run_scenario(
            args, _OVERLOAD if args.protected_only else _OVERLOAD_PAIR,
        )),
        (fsck, lambda args: _run_scenario(args, _FSCK)),
    ):
        command.set_defaults(handler=handler, parser=command)
    return parser


def _write(path: Path, text: str) -> Path:
    """Write ``text`` and a newline to ``path``, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _print_report(path: Path, text: str) -> None:
    """Write a report file, print it and say where it went."""
    _write(path, text)
    print(text)
    print(f"[written {path}]")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_figures(args: argparse.Namespace) -> int:
    epsilons = tuple(args.epsilons)
    if args.quick:
        cluster: Optional[ClusterConfig] = _QUICK_CLUSTER
        trace = generate_yahoo_trace(YahooTraceConfig(
            num_files=25, jobs_per_hour=150.0, duration_hours=1.5,
            mean_task_duration=60.0, seed=args.seed,
        ))
    else:
        cluster = None
        trace = default_trace(seed=args.seed)
    runners = {
        3: lambda: render_fig3(run_fig3(
            trace=trace, cluster=cluster, epsilons=epsilons, seed=args.seed,
            jobs=args.jobs)),
        4: lambda: render_fig4(run_fig4(
            trace=trace, cluster=cluster, epsilons=epsilons, seed=args.seed,
            jobs=args.jobs)),
        5: lambda: render_fig5(run_fig5(
            trace=trace, cluster=cluster, epsilons=epsilons, seed=args.seed,
            jobs=args.jobs)),
        6: lambda: render_fig6(run_fig6(seed=args.seed)),
    }
    if args.metrics_out is not None:
        obs.enable()
        args.metrics_out.mkdir(parents=True, exist_ok=True)
    for number in args.figures:
        if args.metrics_out is not None:
            obs.get_registry().reset()
            obs.get_tracer().clear()
        text = runners[number]()
        _print_report(args.out / f"fig{number}.txt", text)
        if args.metrics_out is not None:
            snapshot = obs.write_snapshot(
                args.metrics_out / f"fig{number}.metrics.json"
            )
            print(f"[written {snapshot}]")
        print()
    if args.telemetry_out is not None:
        # The figure sweeps share one workload; a single instrumented
        # Aurora replay of it is what the dashboard reports on.
        session = TelemetrySession(
            label="figures-reference", seed=args.seed, interval=60.0,
        )
        session.meta.update({
            "command": "figures",
            "quick": args.quick,
            "epsilon": epsilons[0],
        })
        run_experiment(
            trace,
            ExperimentConfig(
                system=SystemKind.AURORA,
                cluster=cluster or ClusterConfig(),
                epsilon=epsilons[0],
                seed=args.seed,
            ),
            telemetry=session,
        )
        print(f"[written {session.write(args.telemetry_out)}]")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.kind == "yahoo":
        trace = generate_yahoo_trace(YahooTraceConfig(
            num_files=args.files,
            jobs_per_hour=args.jobs_per_hour,
            duration_hours=args.hours,
            seed=args.seed,
        ))
    else:
        trace = generate_swim_trace(SwimTraceConfig(
            num_files=args.files,
            jobs_per_hour=args.jobs_per_hour,
            duration_hours=args.hours,
            seed=args.seed,
        ))
        if args.scale_to is not None:
            trace = scale_down(trace, source_nodes=600,
                               target_nodes=args.scale_to)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    trace.dump(args.out)
    print(f"wrote {args.out}")
    print(describe_trace(trace))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    instance = make_instance(num_blocks=args.blocks, seed=args.seed)
    text = render_ablations(
        run_initial_placement_ablation(instance),
        run_factor_ablation(instance),
        run_epsilon_ablation(instance),
    )
    _print_report(args.out / "ablations.txt", text)
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.experiments.scale import (
        render_scale_study,
        render_solver_scale_study,
        run_scale_study,
        run_solver_scale_study,
    )

    if args.solver:
        solver_points = run_solver_scale_study(seed=args.seed)
        text = render_solver_scale_study(solver_points)
        _print_report(args.out / "solver_scale.txt", text)
        return 0 if all(p.results_match for p in solver_points) else 1
    points = run_scale_study(
        machines_per_rack_options=tuple(args.machines_per_rack),
        duration_hours=args.hours,
        seed=args.seed,
        jobs=args.jobs,
    )
    text = render_scale_study(points)
    _print_report(args.out / "scale_study.txt", text)
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import (
        render_sensitivity,
        run_cap_sensitivity,
        run_window_sensitivity,
    )

    trace = default_trace(seed=args.seed, duration_hours=args.hours)
    window = render_sensitivity(
        run_window_sensitivity(trace, seed=args.seed, jobs=args.jobs),
        "usage window W (hours)",
    )
    cap = render_sensitivity(
        run_cap_sensitivity(trace, seed=args.seed, jobs=args.jobs),
        "replication cap K",
    )
    text = window + "\n\n" + cap
    _print_report(args.out / "sensitivity.txt", text)
    return 0


# ---------------------------------------------------------------------------
# Scenario commands share one driver: config from the flags, run the
# storm, write and print its report, exit 0 only if every result is
# healthy.  Storm modules are imported, and their functions looked up,
# at call time: tests patch the functions, and a storm module registers
# its metrics only in the runs that use it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scenario:
    """One scenario command: flags -> config -> storm -> report."""

    #: The storm's config from the flags; a ReproError is a usage error.
    config: Callable[[argparse.Namespace], Any]
    #: ``(results, report text, telemetry directories written)``.
    run: Callable[[argparse.Namespace, Any], Tuple[List, str, List[Path]]]
    #: Whether one result is healthy.
    healthy: Callable[[Any], bool]
    #: Report file under --out (None: stdout only).
    report: Optional[str] = None
    #: What --json holds, from the first result.
    summary: Optional[Callable[[Any], Any]] = None


def _run_scenario(args: argparse.Namespace, scenario: _Scenario) -> int:
    try:
        config = scenario.config(args)
    except ReproError as exc:
        args.parser.error(str(exc))
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        obs.enable()
        obs.get_registry().reset()
        obs.get_tracer().clear()
    results, text, written = scenario.run(args, config)
    if scenario.report is not None:
        written.insert(0, _write(args.out / scenario.report, text))
    print(text)
    if scenario.summary is not None and args.json is not None:
        summary = scenario.summary(results[0])
        written.append(_write(args.json, json.dumps(summary, indent=2)))
    if metrics_out is not None:
        written.append(obs.write_snapshot(metrics_out))
    for path in written:
        print(f"[written {path}]")
    return 0 if all(scenario.healthy(result) for result in results) else 1


def _experiment(name: str) -> Any:
    return importlib.import_module(f"repro.experiments.{name}")


def _storm(
    module: str, run: str, render: str, telemetry: Optional[Callable] = None
) -> Callable:
    """One run of ``<module>.<run>``, reported by ``<module>.<render>``."""

    def execute(args: argparse.Namespace, config: Any):
        storm = _experiment(module)
        traced = telemetry and getattr(args, "telemetry_out", None)
        session = telemetry(args, config) if traced else None
        result = getattr(storm, run)(config, telemetry=session)
        written = [session.write(args.telemetry_out)] if session else []
        return [result], getattr(storm, render)(result), written

    return execute


def _telemetry(
    args: argparse.Namespace, label: str, interval: float, **meta: Any
) -> TelemetrySession:
    """The session that one run records for --telemetry-out."""
    session = TelemetrySession(
        label=label, seed=args.seed,
        trace_sample_rate=args.trace_sample_rate, interval=interval,
    )
    session.meta.update(meta)
    return session


def _chaos_telemetry(
    args: argparse.Namespace, config: Any, label: str, **meta: Any
) -> TelemetrySession:
    """A chaos-family session, sampled every third read tick."""
    return _telemetry(
        args, label, min(60.0, config.read_interval * 3),
        horizon=config.horizon, quick=args.quick, **meta,
    )


def _overload_telemetry(
    args: argparse.Namespace, config: Any, leg: str = "protected"
) -> TelemetrySession:
    return _telemetry(
        args, f"overload-{leg}", config.tick * 2, command="overload",
        load_multiplier=config.load_multiplier,
        shed_policy=config.shed_policy, horizon=config.horizon,
    )


def _overload_pair(args: argparse.Namespace, config: Any):
    """Protected then unprotected storm, each leg's telemetry apart."""
    legs = ("protected", "unprotected")
    sessions = [
        _overload_telemetry(args, config, leg) if args.telemetry_out else None
        for leg in legs
    ]
    overload = _experiment("overload")
    results = overload.run_overload_pair(
        config, telemetry=sessions[0], unprotected_telemetry=sessions[1],
    )
    written = [
        session.write(args.telemetry_out / leg)
        for leg, session in zip(legs, sessions) if session is not None
    ]
    text = "\n\n".join(
        [overload.render_overload_pair(*results)]
        + [overload.render_overload(result) for result in results]
    )
    return list(results), text, written


def _fsck_run(args: argparse.Namespace, config: Any):
    from repro.dfs import fsck

    result = _experiment("chaos").run_chaos(config)
    return [result], fsck.render_fsck(result.fsck), []


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Pick the chaos variant; a flag it would ignore is a usage error."""
    variant = ("--kill-leader" if args.kill_leader
               else "--bit-rot" if args.bit_rot else None)
    ignored = []
    if variant is not None and args.profiles is not None:
        ignored.append("--profiles")
    if args.kill_leader and args.throttle is not None:
        ignored.append("--throttle")
    if ignored:
        verb = "does" if len(ignored) == 1 else "do"
        args.parser.error(
            f"{' and '.join(ignored)} {verb} not apply to {variant}"
        )
    if args.profiles is None:
        args.profiles = ["crash", "partition", "flaky"]
    if args.throttle is None:
        args.throttle = 8
    return _run_scenario(
        args, _KILL_LEADER if args.kill_leader
        else _BIT_ROT if args.bit_rot else _CHAOS,
    )


def _chaos_config(args: argparse.Namespace) -> Any:
    chaos = _experiment("chaos")
    common = dict(
        profiles=tuple(args.profiles),
        replication_throttle=args.throttle or None, seed=args.seed,
    )
    if args.quick:
        # Small cluster, short storm, dense reads and faster faults:
        # enough failovers and recovery episodes in ~30 simulated
        # minutes to exercise every telemetry stage.
        return chaos.ChaosConfig(
            num_racks=3, machines_per_rack=3, capacity_blocks=100,
            num_files=8, horizon=1800.0, read_interval=5.0,
            crash_mtbf=600.0, partition_mtbf=900.0, drain=600.0, **common,
        )
    return chaos.ChaosConfig(horizon=args.hours * 3600.0, **common)


def _kill_leader_config(args: argparse.Namespace) -> Any:
    chaos = _experiment("chaos")
    if args.quick:
        return chaos.LeaderKillConfig(
            num_replicas=args.replicas, seed=args.seed,
        )
    horizon = args.hours * 3600.0
    # Kill the leader just before the mid-run Aurora period tick, so
    # the outage interrupts one period and aborts the next.
    period = chaos.LeaderKillConfig.aurora_period
    return chaos.LeaderKillConfig(
        num_racks=4, machines_per_rack=4, capacity_blocks=300,
        horizon=horizon,
        kill_at=max(1.0, (horizon / 2) // period * period - 10.0),
        num_replicas=args.replicas, seed=args.seed,
    )


def _bit_rot_config(args: argparse.Namespace) -> Any:
    config = _experiment("bitrot").BitRotConfig
    common = dict(replication_throttle=args.throttle or None, seed=args.seed)
    if args.quick:
        # Short horizon, dense rot: every integrity path (quarantine,
        # verified-source repair, purge) fires within ~30 sim minutes.
        return config(
            num_files=8, horizon=1800.0, bitrot_mtbf=600.0,
            tornwrite_mtbf=1200.0, drain=900.0, **common,
        )
    return config(horizon=args.hours * 3600.0, **common)


def _fsck_ok(result: Any) -> bool:
    return result.fsck is None or result.fsck.healthy


def _leader_kill_ok(result: Any) -> bool:
    # Losing metadata across a failover is what the HA plane prevents.
    return result.metadata_lost == 0 and _fsck_ok(result)


def _bit_rot_ok(result: Any) -> bool:
    return (
        result.blocks_permanently_lost == 0
        and result.episodes_unrepaired == 0
        and _fsck_ok(result)
    )


_CHAOS = _Scenario(
    config=_chaos_config,
    run=_storm(
        "chaos", "run_chaos", "render_chaos",
        lambda args, config: _chaos_telemetry(
            args, config, f"chaos-{'-'.join(args.profiles)}",
            command="chaos", profiles=list(args.profiles),
        ),
    ),
    healthy=lambda result: result.blocks_lost == 0 and _fsck_ok(result),
    report="chaos.txt",
)
_KILL_LEADER = _Scenario(
    config=_kill_leader_config,
    run=_storm(
        "chaos", "run_leader_kill", "render_leader_kill",
        lambda args, config: _chaos_telemetry(
            args, config, "chaos-kill-leader", command="chaos --kill-leader",
            replicas=args.replicas, kill_at=config.kill_at,
        ),
    ),
    healthy=_leader_kill_ok,
    report="chaos_kill_leader.txt",
)
_BIT_ROT = _Scenario(
    config=_bit_rot_config,
    run=_storm(
        "bitrot", "run_bit_rot", "render_bit_rot",
        lambda args, config: _chaos_telemetry(
            args, config, "chaos-bit-rot", command="chaos --bit-rot",
        ),
    ),
    healthy=_bit_rot_ok,
    report="chaos_bit_rot.txt",
)
# ``ha``, ``scrub`` and ``fsck`` are presets of the three chaos storms.
_HA = dataclasses.replace(
    _KILL_LEADER,
    config=lambda args: _experiment("chaos").LeaderKillConfig(
        num_replicas=args.replicas, kill_at=args.kill_at, seed=args.seed,
    ),
    report="ha.txt",
)
_SCRUB = dataclasses.replace(
    _BIT_ROT,
    config=lambda args: _experiment("bitrot").BitRotConfig(
        horizon=args.hours * 3600.0,
        scrub_interval=args.scrub_interval,
        scrub_bytes_per_second=args.scrub_mbps * 1024 * 1024,
        bitrot_mtbf=args.bitrot_mtbf,
        seed=args.seed,
    ),
    report="scrub.txt",
    summary=lambda result: result.summary(),
)
_FSCK = _Scenario(
    config=lambda args: _experiment("chaos").ChaosConfig(
        horizon=args.hours * 3600.0, profiles=tuple(args.profiles),
        seed=args.seed,
    ),
    run=_fsck_run,
    healthy=lambda result: result.fsck.healthy,
    summary=lambda result: result.fsck.to_dict(),
)
# Overload sheds reads by design, but it must never corrupt the
# namespace: an unhealthy closing fsck in either leg fails the run.
_OVERLOAD = _Scenario(
    config=lambda args: _experiment("overload").OverloadStormConfig(
        horizon=args.minutes * 60.0, load_multiplier=args.load,
        shed_policy=args.policy, seed=args.seed,
    ),
    run=_storm(
        "overload", "run_overload", "render_overload", _overload_telemetry,
    ),
    healthy=_fsck_ok,
    report="overload.txt",
)
_OVERLOAD_PAIR = dataclasses.replace(_OVERLOAD, run=_overload_pair)


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.from_file is not None:
        # Offline mode: rehydrate a saved snapshot into a fresh registry
        # and render it, without touching the process-global state.
        data = json.loads(args.from_file.read_text(encoding="utf-8"))
        metrics = data.get("metrics", data) if isinstance(data, dict) else {}
        registry = obs.MetricsRegistry(enabled=True)
        registry.merge(metrics)
        text = obs.to_prometheus_text(registry)
        print(text, end="")
        series = sum(
            len(metric.get("series", {})) for metric in metrics.values()
        )
        spans = data.get("spans", []) if isinstance(data, dict) else []
        print(
            f"# snapshot {args.from_file}: {len(metrics)} metric(s), "
            f"{series} series, {len(spans)} span(s)"
        )
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text, encoding="utf-8")
            print(f"[written {args.out}]")
        return 0
    obs.enable()
    registry = obs.get_registry()
    tracer = obs.get_tracer()
    if args.demo:
        registry.reset()
        tracer.clear()
        # Two hours so the hourly reconfiguration period fires at least
        # once inside the horizon (exercising the core + aurora layers).
        trace = generate_yahoo_trace(YahooTraceConfig(
            num_files=15, jobs_per_hour=80.0, duration_hours=2.0,
            mean_task_duration=60.0, seed=args.seed,
        ))
        run_experiment(
            trace,
            ExperimentConfig(
                system=SystemKind.AURORA, cluster=_QUICK_CLUSTER,
                drain_hours=1.0, seed=args.seed,
            ),
        )
    print(obs.to_prometheus_text(registry), end="")
    if args.out is not None:
        obs.write_snapshot(args.out, registry, tracer)
        print(f"[written {args.out}]")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_html, render_markdown
    from repro.obs.telemetry import TelemetryBundle

    bundle = TelemetryBundle.load(args.telemetry)
    out = args.out if args.out is not None else args.telemetry
    out.mkdir(parents=True, exist_ok=True)
    markdown = render_markdown(bundle, top_traces=args.top)
    html_target = out / "report.html"
    md_target = out / "report.md"
    html_target.write_text(
        render_html(bundle, top_traces=args.top), encoding="utf-8"
    )
    md_target.write_text(markdown + "\n", encoding="utf-8")
    print(markdown)
    print(f"[written {html_target}]")
    print(f"[written {md_target}]")
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import TelemetryBundle
    from repro.obs.tracing import format_trace

    bundle = TelemetryBundle.load(args.telemetry)
    traces = bundle.traces()
    total = len(traces)
    if args.trace_id is not None:
        traces = [t for t in traces if t.trace_id == args.trace_id]
        if not traces:
            print(
                f"no trace {args.trace_id} among the {total} in "
                f"{args.telemetry}", file=sys.stderr,
            )
            return 1
    else:
        traces = traces[:args.top]
    for trace in traces:
        print(format_trace(trace))
        chain = " -> ".join(node.name for node in trace.critical_path())
        print(f"  critical path: {chain}")
        print()
    print(f"[{len(traces)} trace(s) shown of {total} recorded]")
    if args.json is not None:
        _write(args.json, json.dumps([t.to_dict() for t in traces], indent=2))
        print(f"[written {args.json}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the cluster as real processes over sockets."""
    import time

    from repro.serve.supervisor import (
        ClusterSupervisor,
        ServeConfig,
        run_datanode,
        run_namenode,
        serve_check,
        serve_demo,
    )

    # Child-process entrypoints (spawned by the supervisor).
    if args.role == "namenode":
        return run_namenode(args)
    if args.role == "datanode":
        return run_datanode(args)

    config = ServeConfig(
        num_racks=args.racks,
        datanodes_per_rack=args.datanodes_per_rack,
        capacity_blocks=args.capacity,
        host=args.host,
        port=args.port,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_expiry=args.heartbeat_expiry,
        default_replication=args.replication,
        aurora_period=args.aurora_period,
    )
    if args.check or args.demo:
        result = (
            serve_check(config) if args.check
            else serve_demo(config, seed=args.seed)
        )
        if args.json is not None:
            _write(args.json, json.dumps(result, indent=2, default=str))
            print(f"[written {args.json}]")
        for key, value in result.items():
            print(f"  {key:<28} {value}")
        return 0 if result.get("ok") else 1

    # Foreground mode: boot and serve until interrupted.
    supervisor = ClusterSupervisor(config)
    try:
        address = supervisor.start()
        supervisor.wait_ready()
        print(f"namenode listening on http://{address}")
        for node, dn_address in sorted(
            supervisor.datanode_addresses.items()
        ):
            print(f"  datanode {node} on http://{dn_address}")
        print("press Ctrl-C to stop")
        while supervisor.namenode_proc.poll() is None:
            time.sleep(0.5)
        print("namenode exited; shutting down")
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        supervisor.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    obs.configure(level=obs.verbosity_to_level(args.verbose, args.quiet))
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
