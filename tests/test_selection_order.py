"""Pins the prolongation selection order of both completion algorithms.

The recorded outcome of every case (status, basis size, ``BasisStats``, the
text of every basis member and a SHA-256 digest of the run's ``log`` lines)
lives in ``selection_order.json``.  Any change to which prolongation is
taken next, or when the criterion fires, shows up as a changed counter,
member or log digest.  The cases cover the capped
Pommaret runs, where the basis grows at every step, and small complete
runs under all five divisions, where set-dependent partitions shrink as
members are inserted.

Run this file as a script to print the records of the installed package:
``PYTHONPATH=src python tests/test_selection_order.py > tests/selection_order.json``.
"""
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from involutive import Division, Ordering, VariableContext, engine, index, involutive_basis, minimal_involutive_basis, parse_polynomial
from involutive.engine import _Completion

from conftest import zero_dimensional_ideal

RECORDS = Path(__file__).with_name("selection_order.json")
ALGORITHMS = {"involutive": involutive_basis, "minimal": minimal_involutive_basis}
CAP = 200
CAPPED_INPUTS = {
    "xy-binomial": (("x", "y"), ("x*y - 1",)),
    "staircase": (("x", "y", "z"), ("x^2", "x*y", "z")),
}
EX9 = (("x", "y"), ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1"))
# seeds whose ideals are not the unit ideal, deglex and degrevlex alike
ZERO_DIM_SEEDS = (0, 2, 5, 6, 13, 19)


def _parse(names, lines, ordering):
    ctx = VariableContext(tuple(names))
    return [parse_polynomial(line, ctx, ordering) for line in lines]


def _zero_dim(seed):
    ordering = (Ordering.DEGLEX, Ordering.DEGREVLEX)[seed % 2]
    ctx = VariableContext(("x", "y", "z"))
    return zero_dimensional_ideal(random.Random(seed), ctx, ordering), ordering


def cases():
    """(name, polynomials, division, ordering, algorithm, cap) per case."""
    out = []
    for name, (names, lines) in CAPPED_INPUTS.items():
        F = _parse(names, lines, Ordering.DEGLEX)
        for algorithm in ALGORITHMS:
            out.append((f"{name}/{algorithm}", F, Division.POMMARET, Ordering.DEGLEX, algorithm, CAP))
    inputs = [("ex9", _parse(*EX9, Ordering.LEX), Ordering.LEX)]
    inputs += [(f"zero-dim-{seed}", *_zero_dim(seed)) for seed in ZERO_DIM_SEEDS]
    for name, F, ordering in inputs:
        for division in Division:
            for algorithm in ALGORITHMS:
                out.append((f"{name}/{division.value}/{algorithm}", F, division, ordering, algorithm, 20000))
    return out


def run(algorithm, F, division, ordering, cap) -> dict:
    """The record of one case: the outcome and a digest of its log."""
    log = []
    result = ALGORITHMS[algorithm](F, division, ordering, cap=cap, log=log)
    return {
        "status": result.status,
        "size": len(result.basis),
        "stats": dataclasses.asdict(result.stats),
        "basis": [str(p) for p in result.basis],
        "log_sha256": hashlib.sha256("\n".join(log).encode()).hexdigest(),
    }


CASES = cases()


@pytest.fixture(scope="module")
def records():
    return json.loads(RECORDS.read_text())


@pytest.mark.parametrize("name, F, division, ordering, algorithm, cap", CASES, ids=[c[0] for c in CASES])
def test_selection_order_pinned(records, name, F, division, ordering, algorithm, cap):
    assert run(algorithm, F, division, ordering, cap) == records[name]


@pytest.mark.parametrize("name, F, division, ordering, algorithm, cap", CASES[:4], ids=[c[0] for c in CASES[:4]])
def test_capped_runs_skip_soundly(name, F, division, ordering, algorithm, cap):
    result = ALGORITHMS[algorithm](F, division, ordering, cap=cap, check_criterion=True)
    assert result.status == "cap_exceeded"
    assert result.stats.criterion_checked == result.stats.criterion_hits
    assert result.stats.criterion_violations == 0


@pytest.mark.parametrize("name, F, division, ordering, algorithm, cap", CASES, ids=[c[0] for c in CASES])
def test_each_prolongation_leaves_the_heap_once(monkeypatch, name, F, division, ordering, algorithm, cap):
    """Every prolongation taken is the one heap entry that ``next`` removes,
    names a member for which its variable is non-multiplicative, and is not
    taken again before the bookkeeping is reset.  A queued candidate leaves
    the heap as it is.  Only entry[1:3], the (age, x) of an entry, is read.
    A prolongation comes back as the member's polynomial, the packed
    variable and the packed leading monomial of their product."""
    next_, reset = _Completion.next, _Completion.reset
    taken: dict[int, set] = {}
    count = 0

    def checked_reset(run, triples, *reducers):
        taken[id(run)] = set()
        reset(run, triples, *reducers)

    def checked_next(run):
        nonlocal count
        before, size = {e[1:3] for e in run.heap}, len(run.heap)
        candidate = next_(run)
        if candidate is None or candidate[4]:
            assert len(run.heap) == size
            return candidate
        assert len(run.heap) == size - 1
        (age, x), = before - {e[1:3] for e in run.heap}
        members = [t for t in run.triples if t.age == age]
        assert len(members) == 1
        assert x not in run.reducers.table[members[0].poly.lm]
        assert candidate[:3] == (members[0].poly, run.packing.units[x], run.packing.pack(members[0].poly.lm.mul_var(x).exps))
        assert (age, x) not in taken[id(run)]
        taken[id(run)].add((age, x))
        count += 1
        return candidate

    monkeypatch.setattr(_Completion, "reset", checked_reset)
    monkeypatch.setattr(_Completion, "next", checked_next)
    result = ALGORITHMS[algorithm](F, division, ordering, cap=cap)
    assert count == result.stats.prolongations_examined


def test_a_rebuild_computes_each_table_once(monkeypatch):
    """An autoreduction rebuild of the involutive algorithm computes the
    multiplicative table of each leading-monomial set it meets once, and
    builds one divisor index per table: every interreduction round meets a
    new set, and the rebuilt bookkeeping adopts the index of the last round,
    with its table, instead of building both again."""
    table_of, autoreduce_with_new = engine.multiplicative_table, engine._autoreduce_with_new
    init = index._Reducers.__init__
    rebuilds: list[list[tuple]] = []
    current: list[tuple] = []
    indexes = []

    def counted_table(division, lms):
        current.append(tuple(lms))
        return table_of(division, lms)

    def counted_init(reducers, *args):
        indexes.append(reducers)
        init(reducers, *args)

    def counted_autoreduce_with_new(run, pos):
        current.clear()
        indexes.clear()
        autoreduce_with_new(run, pos)
        if current:
            rebuilds.append(list(current))
            assert len(indexes) == len(current) and run.reducers is indexes[-1]

    monkeypatch.setattr(engine, "multiplicative_table", counted_table)
    monkeypatch.setattr(index._Reducers, "__init__", counted_init)
    monkeypatch.setattr(engine, "_autoreduce_with_new", counted_autoreduce_with_new)
    for name, F, division, ordering, algorithm, cap in CASES:
        if algorithm == "involutive":
            ALGORITHMS[algorithm](F, division, ordering, cap=cap)
    assert len(rebuilds) > 20
    for tables in rebuilds:
        assert len(set(tables)) == len(tables)


if __name__ == "__main__":
    out = {}
    for name, F, division, ordering, algorithm, cap in CASES:
        out[name] = run(algorithm, F, division, ordering, cap)
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
