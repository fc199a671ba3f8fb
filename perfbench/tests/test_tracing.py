import sys

import pytest

import involutive as inv
from perfbench import tracing
from perfbench.tracing import Tracer, layer_summary, self_times


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0
    summary = layer_summary(spans)
    assert summary["a"] == {"calls": 2, "self_s": 3.0}
    assert summary["root"]["self_s"] == 3.0


def test_self_times_clip_and_merge_overlapping_children():
    spans = [["p", 0.0, 6.0, -1], ["c", 1.0, 5.0, 0], ["c", 4.0, 8.0, 0]]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_parents_from_its_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.begin("root")
    tracer.begin("x")
    tracer.end()
    tracer.begin("y")
    tracer.begin("z")
    tracer.end()
    tracer.end()
    tracer.end()
    assert tracer.spans == [["root", 0, 7, -1], ["x", 1, 2, 0], ["y", 3, 6, 0], ["z", 4, 5, 2]]
    assert sum(self_times(tracer.spans)) == 7


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    t.uninstall()


def test_install_wraps_every_binding_and_uninstall_restores(tracer):
    engine = sys.modules["involutive.engine"]
    divisions = sys.modules["involutive.divisions"]
    table = divisions.multiplicative_table
    find = engine._Reducers.find
    tracer.install()
    assert engine.multiplicative_table is not table
    assert divisions.multiplicative_table is engine.multiplicative_table

    ctx = inv.VariableContext.of("x", "y")
    F = [inv.parse_polynomial(s, ctx, inv.Ordering.LEX) for s in ("x^2*y - 1", "x*y^2 - 1")]
    inv.minimal_involutive_basis(F, inv.Division.JANET, inv.Ordering.LEX)
    names = {s[0] for s in tracer.spans}
    assert {"parsing", "engine.select", "engine.nf", "divisions.table", "polynomials.autoreduce"} <= names
    assert tracer.counts["monomials.constructed"] > 0
    assert tracer.counts["coefficients.fraction_ops"] > 0
    assert 0 < tracer.counts["engine.nf.steps"] <= tracer.counts["engine.nf.lookups"]
    assert tracer.absent == []

    tracer.uninstall()
    assert engine.multiplicative_table is table and divisions.multiplicative_table is table
    assert engine._Reducers.find is find


def test_missing_boundary_is_reported_absent(tracer, monkeypatch):
    monkeypatch.setattr(tracing, "SPANNED", tracing.SPANNED + (("engine.gone", "involutive.engine", "_gone"),))
    tracer.install()
    assert tracer.absent == ["involutive.engine._gone"]
