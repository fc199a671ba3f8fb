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
from involutive.divisions import _inv_divides, multiplicative_table
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


def test_rebuilt_ancestors_keep_their_one_cover(monkeypatch):
    """A rebuild after an autoreduction never leaves the set empty, and
    each ancestor it keeps has at most one involutive cover among the
    rebuilt members, by a tuple scan over their multiplicative table; the
    rebuild records that cover, or the member's own leading monomial when
    there is none.  A member with a new leading monomial starts its own
    lineage.  On the corpus every kept ancestor is a member's leading
    monomial; two more inputs keep an ancestor that only another member
    covers."""
    rebuild = engine._rebuild
    counts = {"member": 0, "covered": 0, "uncovered": 0, "new": 0}
    runs = [(F, division, ordering, cap) for _, F, division, ordering, algorithm, cap in CASES if algorithm == "involutive"]
    lines = ("-5*x*y - 3*y^2*z - 5", "x*y - 2*z^2 + 5", "-x^2*z + 5*x^2 + 2*z", "5*x*z")
    runs.append((_parse(("x", "y", "z"), lines, Ordering.LEX), Division.DIVISION_2, Ordering.LEX, 20000))
    for division in (Division.POMMARET, Division.DIVISION_2):
        runs.append((_parse(("x", "y"), ("3*y^2", "-3*x^2*y - 4"), Ordering.DEGREVLEX), division, Ordering.DEGREVLEX, 20000))

    def checked_rebuild(reducers, old, counter):
        triples = rebuild(reducers, old, counter)
        assert triples
        lms = [t.poly.lm for t in triples]
        table = multiplicative_table(division, lms)
        by_age = {q.age: q for q in old}
        for t in triples:
            q = by_age.get(t.age)
            if q is None:
                assert t.ancestor == t.poly.lm and t.poly.lm not in {q.poly.lm for q in old}
                counts["new"] += 1
                continue
            assert q.poly.lm == t.poly.lm
            covers = [m for m in lms if _inv_divides(m.exps, q.ancestor.exps, table[m])]
            assert len(covers) <= 1
            assert t.ancestor == (covers[0] if covers else t.poly.lm)
            counts["member" if q.ancestor in lms else "covered" if covers else "uncovered"] += 1
        return triples

    monkeypatch.setattr(engine, "_rebuild", checked_rebuild)
    for F, division, ordering, cap in runs:
        involutive_basis(F, division, ordering, cap=cap)
    assert counts["member"] > 400 and counts["covered"] >= 3 and counts["new"] > 0, counts


if __name__ == "__main__":
    out = {}
    for name, F, division, ordering, algorithm, cap in CASES:
        out[name] = run(algorithm, F, division, ordering, cap)
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
