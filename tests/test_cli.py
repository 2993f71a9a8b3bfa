"""Tests for the command-line interface."""

import hashlib
import json
import logging
from types import SimpleNamespace

import pytest

from repro import obs
from repro.cli import main
from repro.workload.trace import WorkloadTrace


def _drop_repro_handlers():
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)


@pytest.fixture
def clean_observability():
    """Fresh log handler for the test; restore global obs state after.

    The CLI's ``configure()`` binds its handler to the ``sys.stderr``
    current at creation time, so a handler left over from an earlier
    test would write past this test's capture.
    """
    _drop_repro_handlers()
    yield
    _drop_repro_handlers()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    obs.disable()
    logging.getLogger("repro").setLevel(logging.WARNING)


class TestTraceCommand:
    def test_generate_yahoo_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "yahoo", "--out", str(out),
            "--files", "10", "--jobs-per-hour", "30", "--hours", "1",
        ])
        assert code == 0
        trace = WorkloadTrace.load(out)
        assert trace.num_files == 10
        assert "wrote" in capsys.readouterr().out

    def test_generate_swim_trace_scaled(self, tmp_path):
        out = tmp_path / "swim.jsonl"
        code = main([
            "trace", "swim", "--out", str(out),
            "--files", "12", "--jobs-per-hour", "30", "--hours", "1",
            "--scale-to", "10",
        ])
        assert code == 0
        trace = WorkloadTrace.load(out)
        assert trace.num_files == 12
        # Scaling to 10 of 600 nodes makes every file tiny.
        assert all(f.num_blocks <= 8 for f in trace.files)

    def test_deterministic_for_seed(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            main(["trace", "yahoo", "--out", str(out), "--files", "5",
                  "--hours", "1", "--seed", "9"])
        assert out_a.read_text() == out_b.read_text()


class TestFiguresCommand:
    def test_quick_single_figure(self, tmp_path, capsys):
        code = main([
            "figures", "--quick", "--figures", "3",
            "--out", str(tmp_path), "--epsilons", "0.1",
        ])
        assert code == 0
        text = (tmp_path / "fig3.txt").read_text()
        assert "Figure 3(a,c)" in text
        assert "HDFS" in text
        assert "fig3.txt" in capsys.readouterr().out

    def test_quick_fig6(self, tmp_path):
        code = main([
            "figures", "--quick", "--figures", "6", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "Figure 6(a)" in (tmp_path / "fig6.txt").read_text()


class TestAblationCommand:
    def test_writes_report(self, tmp_path, capsys):
        code = main([
            "ablation", "--out", str(tmp_path), "--blocks", "60",
        ])
        assert code == 0
        text = (tmp_path / "ablations.txt").read_text()
        assert "E11" in text and "E12" in text
        assert "E10" in capsys.readouterr().out


class TestScaleCommand:
    def test_tiny_scale_study(self, tmp_path, capsys):
        code = main([
            "scale", "--machines-per-rack", "2", "--hours", "0.5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "scale_study.txt").read_text()
        assert "Scale study" in text
        assert "machines" in text
        assert "conjecture" in capsys.readouterr().out


class TestChaosCommand:
    def test_short_storm_writes_report_and_metrics(
        self, tmp_path, capsys, clean_observability
    ):
        code = main([
            "chaos", "--out", str(tmp_path), "--hours", "0.25",
            "--seed", "3", "--throttle", "4",
            "--profiles", "crash", "flaky",
            "--metrics-out", str(tmp_path / "chaos.metrics.json"),
        ])
        assert code == 0
        text = (tmp_path / "chaos.txt").read_text()
        assert "blocks permanently lost   0" in text
        assert "read availability" in text
        assert "chaos.txt" in capsys.readouterr().out
        doc = json.loads((tmp_path / "chaos.metrics.json").read_text())
        assert "repro_faults_injected_total" in doc["metrics"]

    def test_zero_throttle_means_unlimited(self, tmp_path):
        code = main([
            "chaos", "--out", str(tmp_path), "--hours", "0.1",
            "--throttle", "0", "--profiles", "crash",
        ])
        assert code == 0
        assert "throttle=None" in (tmp_path / "chaos.txt").read_text()

    def test_kill_leader_and_bit_rot_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "chaos", "--kill-leader", "--bit-rot", "--quick",
                "--out", str(tmp_path),
            ])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "chaos_kill_leader.txt").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kill-leader", "--throttle", "1"],
         "--throttle does not apply to --kill-leader"),
        (["--kill-leader", "--profiles", "gray"],
         "--profiles does not apply to --kill-leader"),
        (["--kill-leader", "--throttle", "1", "--profiles", "gray"],
         "--profiles and --throttle do not apply to --kill-leader"),
        (["--bit-rot", "--profiles", "gray", "msgloss"],
         "--profiles does not apply to --bit-rot"),
    ])
    def test_variant_rejects_flags_it_ignores(
        self, tmp_path, capsys, flags, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--quick", "--out", str(tmp_path)] + flags)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro chaos")
        assert message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("throttle, expected", [
        ("3", 3), ("0", None),
    ])
    def test_bit_rot_honours_throttle(
        self, tmp_path, monkeypatch, throttle, expected
    ):
        import repro.experiments.bitrot as bitrot

        seen = []

        def fake_run(config, telemetry=None):
            seen.append(config)
            return SimpleNamespace(
                blocks_permanently_lost=0, episodes_unrepaired=0, fsck=None,
            )

        monkeypatch.setattr(bitrot, "run_bit_rot", fake_run)
        monkeypatch.setattr(bitrot, "render_bit_rot", lambda result: "")
        code = main([
            "chaos", "--bit-rot", "--quick", "--throttle", throttle,
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert [config.replication_throttle for config in seen] == [expected]


class TestMetricsCommand:
    def test_without_demo_prints_registered_metrics(
        self, capsys, clean_observability
    ):
        code = main(["metrics"])
        assert code == 0
        out = capsys.readouterr().out
        # Module-level registrations are visible even with no samples.
        assert "# TYPE repro_dfs_reads_total counter" in out
        assert "# TYPE repro_aurora_period_seconds histogram" in out

    def test_demo_populates_every_layer(
        self, tmp_path, capsys, clean_observability
    ):
        out = tmp_path / "snap.json"
        code = main(["metrics", "--demo", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert 'repro_dfs_reads_total{locality="node_local"}' in text
        doc = json.loads(out.read_text())
        populated = set()
        for name, data in doc["metrics"].items():
            for value in data["series"].values():
                nonzero = (
                    value["count"] if isinstance(value, dict) else value
                )
                if nonzero:
                    populated.add(name.split("_")[1])
        assert {"core", "aurora", "dfs", "monitor"} <= populated
        assert any(
            span["name"] == "aurora.period" for span in doc["spans"]
        )


class TestVerbosityFlags:
    def test_verbose_flag_emits_run_logs(
        self, tmp_path, capsys, clean_observability
    ):
        code = main([
            "-v", "figures", "--quick", "--figures", "6",
            "--out", str(tmp_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "level=INFO" in captured.err
        assert "msg=" in captured.err

    def test_quiet_by_default(self, tmp_path, capsys, clean_observability):
        code = main([
            "figures", "--quick", "--figures", "6", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "level=INFO" not in capsys.readouterr().err

    def test_figures_metrics_out_writes_per_figure_snapshot(
        self, tmp_path, clean_observability
    ):
        code = main([
            "figures", "--quick", "--figures", "6",
            "--out", str(tmp_path / "figs"),
            "--metrics-out", str(tmp_path / "metrics"),
        ])
        assert code == 0
        doc = json.loads(
            (tmp_path / "metrics" / "fig6.metrics.json").read_text()
        )
        assert "repro_dfs_reads_total" in doc["metrics"]


class TestTelemetryPipeline:
    def run_quick_chaos(self, tmp_path, seed=0):
        code = main([
            "chaos", "--quick", "--seed", str(seed),
            "--out", str(tmp_path / "out"),
            "--telemetry-out", str(tmp_path / "tel"),
        ])
        assert code == 0
        return tmp_path / "tel"

    def test_chaos_quick_writes_telemetry_directory(
        self, tmp_path, capsys, clean_observability
    ):
        tel = self.run_quick_chaos(tmp_path)
        for name in ("meta.json", "timeseries.json", "slo.json",
                     "spans.json", "snapshot.json"):
            assert (tel / name).exists(), name
        out = capsys.readouterr().out
        assert "SLOs:" in out
        assert "read-availability" in out

    def test_report_renders_dashboard(
        self, tmp_path, capsys, clean_observability
    ):
        tel = self.run_quick_chaos(tmp_path)
        code = main(["report", str(tel), "--out", str(tmp_path / "rpt")])
        assert code == 0
        html = (tmp_path / "rpt" / "report.html").read_text()
        assert html.count("<svg") >= 3
        assert 'id="slo"' in html
        assert "critical path:" in html
        assert "<script" not in html
        md = (tmp_path / "rpt" / "report.md").read_text()
        assert "## SLO burn" in md
        assert "read-availability" in md
        assert "critical path:" in capsys.readouterr().out

    def test_report_defaults_into_telemetry_directory(
        self, tmp_path, capsys, clean_observability
    ):
        tel = self.run_quick_chaos(tmp_path)
        assert main(["report", str(tel)]) == 0
        assert (tel / "report.html").exists()

    def test_traces_prints_slowest_with_critical_path(
        self, tmp_path, capsys, clean_observability
    ):
        tel = self.run_quick_chaos(tmp_path)
        code = main([
            "traces", str(tel), "--top", "2",
            "--json", str(tmp_path / "traces.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("critical path:") == 2
        assert "2 trace(s) shown of" in out
        doc = json.loads((tmp_path / "traces.json").read_text())
        assert len(doc) == 2
        assert doc[0]["duration_seconds"] >= doc[1]["duration_seconds"]

    def test_traces_unknown_id_fails(
        self, tmp_path, capsys, clean_observability
    ):
        tel = self.run_quick_chaos(tmp_path)
        assert main(["traces", str(tel), "--trace-id", "999999"]) == 1

    def test_report_rejects_non_telemetry_directory(self, tmp_path):
        from repro.errors import MetricsError

        with pytest.raises(MetricsError):
            main(["report", str(tmp_path)])

    def test_metrics_from_snapshot_file(
        self, tmp_path, capsys, clean_observability
    ):
        tel = self.run_quick_chaos(tmp_path)
        capsys.readouterr()
        code = main(["metrics", "--from", str(tel / "snapshot.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_dfs_reads_total counter" in out
        assert "span(s)" in out

    def test_overload_pair_writes_both_legs(
        self, tmp_path, clean_observability
    ):
        code = main([
            "overload", "--minutes", "1", "--seed", "0",
            "--out", str(tmp_path / "out"),
            "--telemetry-out", str(tmp_path / "tel"),
        ])
        assert code == 0
        for leg in ("protected", "unprotected"):
            assert (tmp_path / "tel" / leg / "slo.json").exists(), leg
        meta = json.loads(
            (tmp_path / "tel" / "unprotected" / "meta.json").read_text()
        )
        assert meta["label"] == "overload-unprotected"
        text = (tmp_path / "out" / "overload.txt").read_text()
        assert "SLO violation minutes" in text

    def test_figures_telemetry_out(
        self, tmp_path, clean_observability
    ):
        code = main([
            "figures", "--quick", "--figures", "3",
            "--out", str(tmp_path / "figs"),
            "--telemetry-out", str(tmp_path / "tel"),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "tel" / "meta.json").read_text())
        assert meta["label"] == "figures-reference"
        assert meta["samples_taken"] > 0


class TestScenarioReports:
    """Every scenario command, run for real at seed 0, pinned by digest.

    The digests are sha256 of the report file each command writes; they
    were recorded before the scenario commands moved onto one shared
    cluster builder and CLI driver, which had to leave every byte alone.
    A change that declares a decision change (the storms behave
    differently on purpose) re-records them, as it re-records the
    metrics baselines in ``benchmarks/baselines``.
    """

    # ``repro ha`` at its defaults and ``repro chaos --kill-leader
    # --quick`` build the same config, so they must write the same bytes.
    LEADER_KILL = (
        "4cff1dbf848bf9d23c539a8aafa923c871e7135c7740f2d97a9241ccc30cfb62"
    )
    CASES = {
        "chaos": (
            ["chaos", "--quick"], "chaos.txt",
            "f495fad708909c8b476d21847c6cc45e14ae703eeead77c9cb18b3f1241bec6d",
        ),
        "chaos-bit-rot": (
            ["chaos", "--bit-rot", "--quick"], "chaos_bit_rot.txt",
            "4ed91703293a32e030a0a930463e327f2aadce92807e598014588ffbddc58e2f",
        ),
        "chaos-kill-leader": (
            ["chaos", "--kill-leader", "--quick"], "chaos_kill_leader.txt",
            LEADER_KILL,
        ),
        "ha": (["ha"], "ha.txt", LEADER_KILL),
        "scrub": (
            ["scrub", "--hours", "0.5"], "scrub.txt",
            "1f9ea23ca54197a516299b2648707d93efb7d84ca2bb259cd874a42b03bb6281",
        ),
        "overload": (
            ["overload", "--minutes", "2", "--protected-only"],
            "overload.txt",
            "ff157343a793b94e1bb893553c91539b67f3c7ede6025db034ae91817f4acf66",
        ),
    }

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("name", sorted(CASES), ids=str)
    def test_report_digest(self, name, tmp_path, capsys, clean_observability):
        argv, report, expected = self.CASES[name]
        code = main(argv + ["--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert self.digest(tmp_path / report) == expected
        capsys.readouterr()

    def test_fsck_json_digest(self, tmp_path, capsys, clean_observability):
        target = tmp_path / "fsck.json"
        code = main([
            "fsck", "--hours", "0.25", "--seed", "0", "--json", str(target),
        ])
        assert code == 0
        assert self.digest(target) == (
            "47021ffc418f0076daa8577eb54e0403e9abb8bb5108b4427216f27a997a648b"
        )
        capsys.readouterr()


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_missing_required_out_exits(self):
        with pytest.raises(SystemExit):
            main(["trace", "yahoo"])
