"""Pins the prolongation selection order of both completion algorithms.

The recorded outcome of every case (status, basis size, ``BasisStats``, the
text of every basis member and a SHA-256 digest of the run's ``log`` lines)
lives in ``selection_order.json``.  Any change to which prolongation is
taken next, or when the criterion fires, shows up as a changed counter,
member or log digest.  The cases cover the capped
Pommaret runs, where the basis grows at every step, and small complete
runs under all five divisions, where set-dependent partitions shrink as
members are inserted.  The tests after the pinned records check the
involutive algorithm's autoreduction after an insertion against the full
interreduction and rebuild it replaces.

Run this file as a script to print the records of the installed package:
``PYTHONPATH=src python tests/test_selection_order.py > tests/selection_order.json``.
"""
import copy
import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from involutive import Division, Ordering, VariableContext, engine, index, involutive_basis, minimal_involutive_basis, parse_polynomial, polynomials
from involutive.divisions import _inv_divides, multiplicative_table
from involutive.engine import _Completion
from involutive.polynomials import _interreduce, _packed, _reducible

from conftest import cyclic_ideal, katsura_ideal, zero_dimensional_ideal

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
# seeds outside the corpus whose involutive runs, under some division, meet
# a post-insertion interreduction that changes a leading monomial
REBUILD_SEEDS = (20, 21, 35, 38, 40, 48, 49, 50)


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


def involutive_runs(extra=()):
    """(polynomials, division, ordering, cap) of the corpus's involutive
    cases, then of each extra input under every division."""
    runs = [(F, division, ordering, cap) for _, F, division, ordering, algorithm, cap in CASES if algorithm == "involutive"]
    return runs + [(F, division, ordering, 20000) for F, ordering in extra for division in Division]


REBUILD_INPUTS = [_zero_dim(seed) for seed in REBUILD_SEEDS]


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
    with its table, instead of building both again.  A rebuild follows only
    a changed leading monomial, so the runs include ``REBUILD_SEEDS``."""
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
    for F, division, ordering, cap in involutive_runs(REBUILD_INPUTS):
        involutive_basis(F, division, ordering, cap=cap)
    assert len(rebuilds) > 20
    for tables in rebuilds:
        assert len(set(tables)) == len(tables)


def test_rebuilt_ancestors_keep_their_one_cover(monkeypatch):
    """An autoreduction after an insertion never leaves the set empty, and
    each ancestor it keeps has at most one involutive cover among the
    members, by a tuple scan over their multiplicative table; the member
    records that cover, or its own leading monomial when there is none.
    After a rebuild, a member with a new leading monomial starts its own
    lineage.  A rewrite in place keeps every member's leading monomial,
    age and ancestor, and its members are counted as a rebuild's would be.
    On the corpus every kept ancestor is a member's leading monomial; two
    more inputs keep an ancestor that only another member covers."""
    rebuild, autoreduce_with_new = engine._rebuild, engine._autoreduce_with_new
    counts = {"member": 0, "covered": 0, "uncovered": 0, "new": 0}
    runs = involutive_runs(REBUILD_INPUTS)
    lines = ("-5*x*y - 3*y^2*z - 5", "x*y - 2*z^2 + 5", "-x^2*z + 5*x^2 + 2*z", "5*x*z")
    runs.append((_parse(("x", "y", "z"), lines, Ordering.LEX), Division.DIVISION_2, Ordering.LEX, 20000))
    for division in (Division.POMMARET, Division.DIVISION_2):
        runs.append((_parse(("x", "y"), ("3*y^2", "-3*x^2*y - 4"), Ordering.DEGREVLEX), division, Ordering.DEGREVLEX, 20000))
    rebuilt = []

    def check(triples, old):
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

    def checked_rebuild(reducers, old, counter):
        triples = rebuild(reducers, old, counter)
        check(triples, old)
        rebuilt.append(triples)
        return triples

    def checked_autoreduce_with_new(run, pos):
        old = list(run.triples)
        rebuilt.clear()
        autoreduce_with_new(run, pos)
        if not rebuilt and any(t is not q for t, q in zip(run.triples, old)):
            assert [(t.poly.lm, t.ancestor, t.age) for t in run.triples] == [(q.poly.lm, q.ancestor, q.age) for q in old]
            check(run.triples, old)

    monkeypatch.setattr(engine, "_rebuild", checked_rebuild)
    monkeypatch.setattr(engine, "_autoreduce_with_new", checked_autoreduce_with_new)
    for F, division, ordering, cap in runs:
        involutive_basis(F, division, ordering, cap=cap)
    assert counts["member"] > 400 and counts["covered"] >= 3 and counts["new"] > 0, counts


def _reference_autoreduce_with_new(run, pos, counter):
    """A copy of run after the full post-insertion autoreduction: when a
    member reduces modulo the others, ``_interreduce`` with the division's
    table and ``_rebuild`` on its last index; ages come from counter."""
    ref = copy.copy(run)
    ref.triples, ref.heap = list(run.triples), list(run.heap)
    if any(_reducible(u.poly, run.reducers) for u in run.triples[pos + 1 :]):
        reducers = _interreduce([u.poly for u in run.triples], run.packing, lambda lms: multiplicative_table(run.division, lms))[1]
        ref.reset(engine._rebuild(reducers, run.triples, counter), reducers)
    return ref


def test_in_place_rewrites_match_a_rebuild(monkeypatch):
    """Each post-insertion autoreduction leaves the members, their (leading
    monomial, ancestor, age), the index and the heap keys as the full
    interreduction and rebuild would, every heap entry carrying the current
    triple of its age, in heap order.  A member above the new one reduces
    exactly when one of its terms is an involutive multiple of the new
    member's leading monomial.  The runs are the corpus's, those of
    ``REBUILD_SEEDS``, and cyclic-5 and katsura-5 under Janet."""
    autoreduce_with_new = engine._autoreduce_with_new
    seen = {"reducible": 0, "irreducible": 0}

    def checked(run, pos):
        k, mask, _ = run.reducers.items[pos]
        for u in run.triples[pos + 1 :]:
            _, lead, _, tail, _ = _packed(u.poly, run.packing)
            single = any(engine._divides(k, mask, run.reducers.guard, w) for w in (lead, *(lead + d for d, _ in tail)))
            assert single is _reducible(u.poly, run.reducers)
            seen["reducible" if single else "irreducible"] += 1
        run.counter, counter = itertools.tee(run.counter)
        ref = _reference_autoreduce_with_new(run, pos, counter)
        autoreduce_with_new(run, pos)
        assert [t.poly for t in run.triples] == [t.poly for t in ref.triples]
        assert [(t.poly.lm, t.ancestor, t.age) for t in run.triples] == [(t.poly.lm, t.ancestor, t.age) for t in ref.triples]
        assert [p for _, _, p in run.reducers.items] == [t.poly for t in run.triples]
        assert run.reducers.keys == ref.reducers.keys
        assert {e[:3] for e in run.heap} == {e[:3] for e in ref.heap}
        by_age = {t.age: t for t in run.triples}
        assert all(e[3] is by_age[e[1]] for e in run.heap)
        assert all(run.heap[(i - 1) // 2][:3] < run.heap[i][:3] for i in range(1, len(run.heap)))

    monkeypatch.setattr(engine, "_autoreduce_with_new", checked)
    runs = involutive_runs(REBUILD_INPUTS) + [(F, Division.JANET, Ordering.DEGREVLEX, 20000) for F in (cyclic_ideal(5), katsura_ideal(5))]
    for F, division, ordering, cap in runs:
        involutive_basis(F, division, ordering, cap=cap)
    assert seen["reducible"] > 100 and seen["irreducible"] > 100, seen


def test_a_rebuild_follows_only_a_changed_leading_monomial(monkeypatch):
    """``_autoreduce_with_new`` calls ``_interreduce`` and ``_rebuild``, once
    each, only when the autoreduction changes the leading monomials of the
    members, which a drop to zero or a new leading monomial does; the
    other autoreductions rewrite tails in place.  On cyclic-5 under Janet
    no autoreduction calls either."""
    autoreduce_with_new, interreduce, rebuild = engine._autoreduce_with_new, engine._interreduce, engine._rebuild
    calls = []
    outcomes = {"rebuilt": 0, "in place": 0}

    def checked(run, pos):
        calls.clear()
        old = list(run.triples)
        autoreduce_with_new(run, pos)
        changed = [t.poly.lm for t in run.triples] != [t.poly.lm for t in old]
        assert calls == (["_interreduce", "_rebuild"] if changed else [])
        if changed:
            outcomes["rebuilt"] += 1
        elif any(t is not q for t, q in zip(run.triples, old)):
            outcomes["in place"] += 1

    monkeypatch.setattr(engine, "_interreduce", lambda *args: calls.append("_interreduce") or interreduce(*args))
    monkeypatch.setattr(engine, "_rebuild", lambda *args: calls.append("_rebuild") or rebuild(*args))
    monkeypatch.setattr(engine, "_autoreduce_with_new", checked)
    for F, division, ordering, cap in involutive_runs(REBUILD_INPUTS):
        involutive_basis(F, division, ordering, cap=cap)
    assert outcomes["rebuilt"] > 20 and outcomes["in place"] > 100, outcomes
    outcomes.update({"rebuilt": 0, "in place": 0})
    involutive_basis(cyclic_ideal(5), Division.JANET, Ordering.DEGREVLEX)
    assert outcomes["rebuilt"] == 0 and outcomes["in place"] > 0, outcomes


# minimal runs under Janet and degrevlex: the kernel calls a run makes and
# its stats.  Without recalled zeros every reduction would enter the kernel,
# 862 and 178 times.
KERNEL_CALLS = [
    ("cyclic-5", cyclic_ideal(5), 435, {"prolongations_examined": 786, "criterion_hits": 37, "zero_reductions": 731, "nonzero_reductions": 131}),
    ("katsura-5", katsura_ideal(5), 149, {"prolongations_examined": 163, "criterion_hits": 8, "zero_reductions": 138, "nonzero_reductions": 40}),
]


@pytest.mark.parametrize("name, F, calls, stats", KERNEL_CALLS, ids=[c[0] for c in KERNEL_CALLS])
def test_recalled_zeros_save_kernel_calls(monkeypatch, name, F, calls, stats):
    entered = []
    nf = engine._nf
    monkeypatch.setattr(engine, "_nf", lambda *args, **kwargs: entered.append(args[0]) or nf(*args, **kwargs))
    result = minimal_involutive_basis(F, Division.JANET, Ordering.DEGREVLEX)
    assert dataclasses.asdict(result.stats) == {**stats, "criterion_checked": 0, "criterion_violations": 0}
    assert len(entered) == calls


def test_every_recalled_zero_reduces_to_zero(monkeypatch):
    """A prolongation counted as a zero reduction without a kernel call
    reduces to zero modulo the members it was examined against.  The
    corpus's minimal runs demote too rarely to recall a zero, so cyclic-4
    and katsura-4 under every division and the inputs of KERNEL_CALLS join
    them."""
    entered = []
    nf, examine = engine._nf, _Completion.examine
    recalled = 0

    def audited(run, g, shift, w, ancestor, queued):
        nonlocal recalled
        zeros, calls = run.stats.zero_reductions, len(entered)
        h = examine(run, g, shift, w, ancestor, queued)
        if run.stats.zero_reductions > zeros and len(entered) == calls:
            assert not queued
            assert polynomials._nf(g, run.reducers, shift=shift).is_zero
            recalled += 1
        return h

    monkeypatch.setattr(engine, "_nf", lambda *args, **kwargs: entered.append(args[0]) or nf(*args, **kwargs))
    monkeypatch.setattr(_Completion, "examine", audited)
    runs = [(F, division, ordering, cap) for _, F, division, ordering, algorithm, cap in CASES if algorithm == "minimal"]
    runs += [(F, division, Ordering.DEGREVLEX, 2000) for F in (cyclic_ideal(4), katsura_ideal(4)) for division in Division]
    runs += [(F, Division.JANET, Ordering.DEGREVLEX, 20000) for _, F, _, _ in KERNEL_CALLS]
    for F, division, ordering, cap in runs:
        minimal_involutive_basis(F, division, ordering, cap=cap)
    assert recalled > 400, recalled


if __name__ == "__main__":
    out = {}
    for name, F, division, ordering, algorithm, cap in CASES:
        out[name] = run(algorithm, F, division, ordering, cap)
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
