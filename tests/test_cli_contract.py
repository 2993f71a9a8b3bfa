"""Exit-code contract for every report-writing subcommand.

The contract: a run whose result is healthy exits 0; a run that lost
data, left corruption unrepaired, lost metadata, or ended with an
unhealthy fsck exits 1 — and the human-readable report is written either
way.  The storms themselves are monkeypatched so the matrix stays fast;
what is under test is the CLI plumbing from result object to exit code.
"""

from types import SimpleNamespace

import pytest

from repro.cli import main


def fake_fsck(healthy):
    return SimpleNamespace(
        healthy=healthy, to_dict=lambda: {"healthy": healthy}
    )


def chaos_result(*, blocks_lost=0, fsck_healthy=True):
    return SimpleNamespace(
        blocks_lost=blocks_lost, fsck=fake_fsck(fsck_healthy)
    )


def leader_kill_result(*, metadata_lost=0, fsck_healthy=True):
    return SimpleNamespace(
        metadata_lost=metadata_lost, fsck=fake_fsck(fsck_healthy)
    )


def bit_rot_result(*, lost=0, unrepaired=0, fsck_healthy=True):
    return SimpleNamespace(
        blocks_permanently_lost=lost,
        episodes_unrepaired=unrepaired,
        fsck=fake_fsck(fsck_healthy),
        summary=lambda: {"ok": fsck_healthy},
    )


def overload_result(*, fsck_healthy=True):
    return SimpleNamespace(fsck=fake_fsck(fsck_healthy))


def _patch_chaos(monkeypatch, result):
    import repro.experiments.chaos as chaos

    monkeypatch.setattr(chaos, "run_chaos", lambda *a, **k: result)
    monkeypatch.setattr(chaos, "render_chaos", lambda r: "chaos report")


def _patch_leader_kill(monkeypatch, result):
    import repro.experiments.chaos as chaos

    monkeypatch.setattr(chaos, "run_leader_kill", lambda *a, **k: result)
    monkeypatch.setattr(
        chaos, "render_leader_kill", lambda r: "leader-kill report"
    )


def _patch_bit_rot(monkeypatch, result):
    import repro.experiments.bitrot as bitrot

    monkeypatch.setattr(bitrot, "run_bit_rot", lambda *a, **k: result)
    monkeypatch.setattr(bitrot, "render_bit_rot", lambda r: "bit-rot report")


def _patch_overload_pair(monkeypatch, protected, unprotected):
    import repro.experiments.overload as overload

    monkeypatch.setattr(
        overload, "run_overload_pair",
        lambda *a, **k: (protected, unprotected),
    )
    monkeypatch.setattr(
        overload, "render_overload", lambda r: "overload report"
    )
    monkeypatch.setattr(
        overload, "render_overload_pair", lambda a, b: "overload pair"
    )


def _patch_overload_single(monkeypatch, result):
    import repro.experiments.overload as overload

    monkeypatch.setattr(overload, "run_overload", lambda *a, **k: result)
    monkeypatch.setattr(
        overload, "render_overload", lambda r: "overload report"
    )


def _patch_fsck(monkeypatch, result):
    import repro.dfs.fsck as fsck
    import repro.experiments.chaos as chaos

    monkeypatch.setattr(chaos, "run_chaos", lambda *a, **k: result)
    monkeypatch.setattr(fsck, "render_fsck", lambda r: "fsck report")


# Each case: (argv-suffix factory, patcher for the healthy run, patcher
# for the unhealthy run, report file the command must write).
CASES = {
    "chaos": dict(
        argv=lambda out: ["chaos", "--quick", "--out", str(out)],
        healthy=lambda mp: _patch_chaos(mp, chaos_result()),
        unhealthy=lambda mp: _patch_chaos(
            mp, chaos_result(blocks_lost=2)
        ),
        report="chaos.txt",
    ),
    "chaos-unhealthy-fsck": dict(
        argv=lambda out: ["chaos", "--quick", "--out", str(out)],
        healthy=lambda mp: _patch_chaos(mp, chaos_result()),
        unhealthy=lambda mp: _patch_chaos(
            mp, chaos_result(fsck_healthy=False)
        ),
        report="chaos.txt",
    ),
    "chaos-bit-rot": dict(
        argv=lambda out: [
            "chaos", "--bit-rot", "--quick", "--out", str(out)
        ],
        healthy=lambda mp: _patch_bit_rot(mp, bit_rot_result()),
        unhealthy=lambda mp: _patch_bit_rot(
            mp, bit_rot_result(unrepaired=1)
        ),
        report="chaos_bit_rot.txt",
    ),
    "chaos-kill-leader": dict(
        argv=lambda out: [
            "chaos", "--kill-leader", "--quick", "--out", str(out)
        ],
        healthy=lambda mp: _patch_leader_kill(mp, leader_kill_result()),
        unhealthy=lambda mp: _patch_leader_kill(
            mp, leader_kill_result(metadata_lost=3)
        ),
        report="chaos_kill_leader.txt",
    ),
    "scrub": dict(
        argv=lambda out: ["scrub", "--out", str(out)],
        healthy=lambda mp: _patch_bit_rot(mp, bit_rot_result()),
        unhealthy=lambda mp: _patch_bit_rot(mp, bit_rot_result(lost=1)),
        report="scrub.txt",
    ),
    "ha": dict(
        argv=lambda out: ["ha", "--out", str(out)],
        healthy=lambda mp: _patch_leader_kill(mp, leader_kill_result()),
        unhealthy=lambda mp: _patch_leader_kill(
            mp, leader_kill_result(fsck_healthy=False)
        ),
        report="ha.txt",
    ),
    "overload": dict(
        argv=lambda out: ["overload", "--out", str(out)],
        healthy=lambda mp: _patch_overload_pair(
            mp, overload_result(), overload_result()
        ),
        # The regression that motivated this file: an unhealthy
        # *unprotected* leg must fail the run too.
        unhealthy=lambda mp: _patch_overload_pair(
            mp, overload_result(), overload_result(fsck_healthy=False)
        ),
        report="overload.txt",
    ),
    "overload-protected-only": dict(
        argv=lambda out: [
            "overload", "--protected-only", "--out", str(out)
        ],
        healthy=lambda mp: _patch_overload_single(mp, overload_result()),
        unhealthy=lambda mp: _patch_overload_single(
            mp, overload_result(fsck_healthy=False)
        ),
        report="overload.txt",
    ),
    "fsck": dict(
        argv=lambda out: [
            "fsck", "--json", str(out / "fsck.json")
        ],
        healthy=lambda mp: _patch_fsck(
            mp, SimpleNamespace(fsck=fake_fsck(True))
        ),
        unhealthy=lambda mp: _patch_fsck(
            mp, SimpleNamespace(fsck=fake_fsck(False))
        ),
        report="fsck.json",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES), ids=str)
def test_healthy_run_exits_zero_and_writes_report(
    name, tmp_path, monkeypatch, capsys
):
    case = CASES[name]
    case["healthy"](monkeypatch)
    out = tmp_path / "nested" / "reports"
    assert main(case["argv"](out)) == 0
    assert (out / case["report"]).exists()
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(CASES), ids=str)
def test_unhealthy_run_exits_one_but_still_writes_report(
    name, tmp_path, monkeypatch, capsys
):
    case = CASES[name]
    case["unhealthy"](monkeypatch)
    out = tmp_path / "nested" / "reports"
    assert main(case["argv"](out)) == 1
    assert (out / case["report"]).exists()
    capsys.readouterr()


def test_serve_check_exit_contract(tmp_path, monkeypatch, capsys):
    """`repro serve --check/--demo` obey the same 0/1 contract."""
    import repro.serve.supervisor as supervisor

    monkeypatch.setattr(
        supervisor, "serve_check", lambda config: {"ok": True}
    )
    assert main(["serve", "--check"]) == 0
    monkeypatch.setattr(
        supervisor, "serve_check", lambda config: {"ok": False}
    )
    out = tmp_path / "nested" / "serve.json"
    assert main(["serve", "--check", "--json", str(out)]) == 1
    assert out.exists()
    monkeypatch.setattr(
        supervisor, "serve_demo", lambda config, seed: {"ok": False}
    )
    assert main(["serve", "--demo"]) == 1
    capsys.readouterr()


# Each case: a scenario command with one flag its config rejects.  A bad
# flag is a usage error (exit 2), never a storm verdict (exit 0/1), and
# the storm must not start.
BAD_ARGUMENTS = {
    "chaos": ["chaos", "--hours", "0"],
    "chaos-throttle": ["chaos", "--quick", "--throttle", "-1"],
    "chaos-kill-leader": ["chaos", "--kill-leader", "--replicas", "1"],
    "chaos-bit-rot": ["chaos", "--bit-rot", "--hours", "-1"],
    "ha": ["ha", "--replicas", "0"],
    "scrub": ["scrub", "--scrub-interval", "0"],
    "overload": ["overload", "--minutes", "-1"],
    "fsck": ["fsck", "--hours", "0"],
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS), ids=str)
def test_bad_scenario_argument_is_a_usage_error(
    name, tmp_path, monkeypatch, capsys
):
    import repro.experiments.bitrot as bitrot
    import repro.experiments.chaos as chaos
    import repro.experiments.overload as overload

    def refuse(*args, **kwargs):
        raise AssertionError("the storm ran despite a bad argument")

    for module, run in ((chaos, "run_chaos"), (chaos, "run_leader_kill"),
                        (bitrot, "run_bit_rot"), (overload, "run_overload"),
                        (overload, "run_overload_pair")):
        monkeypatch.setattr(module, run, refuse)
    argv = BAD_ARGUMENTS[name]
    if name != "fsck":
        argv = argv + ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith(f"repro {argv[0]}: error: "), err
