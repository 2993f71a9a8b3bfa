"""The span recorder: wrapping, restoring, self-time arithmetic."""

import socket
import types

import pytest

from bench.spans import OP_SPAN, Tracer


class Base:
    def inherited(self):
        return "base"


class Thing(Base):
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x


def test_wrappers_record_and_uninstall_restores_every_kind_of_callable():
    module = types.SimpleNamespace(func=lambda x: x * 2)
    original_func = module.func
    original_method = Thing.__dict__["method"]
    original_build = Thing.__dict__["build"]
    tracer = Tracer()
    tracer.wrap(module, "func", "layer.func")
    tracer.wrap(Thing, "method", "layer.method")
    tracer.wrap(Thing, "build", "layer.build")
    tracer.wrap(Thing, "inherited", "layer.inherited")
    assert module.func(2) == 4
    assert Thing().method(1) == 2
    assert Thing.build(3) == (Thing, 3)
    assert Thing().inherited() == "base"
    assert [s[0] for s in tracer.spans] == [
        "layer.func", "layer.method", "layer.build", "layer.inherited",
    ]
    tracer.uninstall()
    assert module.func is original_func
    assert Thing.__dict__["method"] is original_method
    assert Thing.__dict__["build"] is original_build
    assert "inherited" not in Thing.__dict__
    assert Thing().inherited() == "base"


def test_self_time_is_duration_minus_direct_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr("bench.spans._clock", lambda: float(next(ticks)))
    tracer = Tracer()
    holder = types.SimpleNamespace()
    holder.leaf = lambda: None
    tracer.wrap(holder, "leaf", "leaf")
    holder.parent = lambda: (holder.leaf(), holder.leaf())
    tracer.wrap(holder, "parent", "parent")
    tracer.run_op(0, holder.parent)
    totals = tracer.totals()
    # Clock reads: op 0, parent 1, leaf 2-3, leaf 4-5, parent 6, op 7.
    assert totals["leaf"].total_s[0] == 2.0
    assert totals["parent"].total_s[0] == 5.0
    assert totals["parent"].self_s[0] == 3.0
    assert totals[OP_SPAN].total_s[0] == 7.0
    assert totals[OP_SPAN].self_s[0] == 2.0
    layers = sum(t.self_s[0] for name, t in totals.items() if name != OP_SPAN)
    assert layers + totals[OP_SPAN].self_s[0] == totals[OP_SPAN].total_s[0]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {0}


def test_spans_outside_an_op_carry_op_minus_one_and_counters_ignore_them():
    tracer = Tracer()
    holder = types.SimpleNamespace(work=lambda: None)
    tracer.wrap(holder, "work", "work",
                after=lambda tr, *_a, **_k: tr.count("calls"))
    holder.work()
    tracer.run_op(0, holder.work)
    assert [s[4] for s in tracer.spans if s[0] == "work"] == [-1, 0]
    assert tracer.counters["calls"] == 1


def test_a_raising_callable_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    holder = types.SimpleNamespace(boom=boom)
    tracer.wrap(holder, "boom", "boom")
    with pytest.raises(ValueError):
        holder.boom()
    assert tracer.spans[0][0] == "boom" and tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer._stack == []


def test_socket_counters_come_off_again():
    from bench.workloads.serve import _install_socket_counters

    tracer = Tracer()
    _install_socket_counters(tracer)
    assert "connect" in vars(socket.socket)
    tracer.uninstall()
    for name in ("connect", "sendall", "send", "recv", "recv_into"):
        assert name not in vars(socket.socket)


def test_dump_writes_every_span(tmp_path):
    import json

    tracer = Tracer()
    holder = types.SimpleNamespace(work=lambda: None)
    tracer.wrap(holder, "work", "work")
    tracer.run_op(0, holder.work)
    out = tmp_path / "sub" / "spans.json"
    tracer.dump(out, {"workload": "x"})
    document = json.loads(out.read_text())
    assert document["fields"] == ["name", "start_s", "end_s", "parent", "op"]
    assert [s[0] for s in document["spans"]] == [OP_SPAN, "work"]
    assert document["spans"][1][3] == 0
