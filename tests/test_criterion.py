"""The ancestor criterion against a reference scan over every member.

The engine decides the criterion on the one member its divisor lookup
returns for a candidate's leading monomial.  That is sound because both
completion algorithms keep their members involutively autoreduced, so at
most one member's involutive cone holds that monomial.  For every candidate
of the selection-order corpus these tests check that invariant, and that
the engine skips exactly when the reference does: when some member
involutively divides the leading monomial and the lcm of the two ancestors
lies strictly below it.
"""
import pytest

from involutive import Division, Ordering, VariableContext, engine, parse_polynomial
from involutive.divisions import _inv_divides

from test_selection_order import ALGORITHMS, CASES


def covering_members(lm, triples, table):
    return [t for t in triples if _inv_divides(t.poly.lm.exps, lm.exps, table[t.poly.lm])]


def reference_criterion(lm, ancestor, triples, table, ordering) -> bool:
    """The member scan: does any involutive divisor of lm pass the lcm test?"""
    bound = ordering.key(lm)
    return any(ordering.key(ancestor.lcm(t.ancestor)) < bound for t in covering_members(lm, triples, table))


@pytest.mark.parametrize("name, F, division, ordering, algorithm, cap", CASES, ids=[c[0] for c in CASES])
def test_criterion_matches_member_scan(monkeypatch, name, F, division, ordering, algorithm, cap):
    examine = engine._Completion.examine
    decisions = []

    def checked(run, g, shift, w, ancestor, queued=False):
        lm = g.ctx.monomial(run.packing.unpack(w))
        table = run.reducers.table
        assert len(covering_members(lm, run.triples, table)) <= 1, lm
        expected = reference_criterion(lm, ancestor, run.triples, table, run.ordering)
        hits = run.stats.criterion_hits
        try:
            return examine(run, g, shift, w, ancestor, queued)
        finally:
            decisions.append(expected)
            assert (run.stats.criterion_hits > hits) == expected, lm

    monkeypatch.setattr(engine._Completion, "examine", checked)
    result = ALGORITHMS[algorithm](F, division, ordering, cap=cap)
    assert len(decisions) >= result.stats.prolongations_examined
    assert decisions.count(True) == result.stats.criterion_hits


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_check_criterion_counts_violations(monkeypatch, algorithm):
    # a criterion that always holds skips prolongations whose normal form is
    # not zero; the check reduces each skipped one and counts the violation
    ctx = VariableContext.of("x", "y")
    F = [parse_polynomial(text, ctx, Ordering.DEGLEX) for text in ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1")]
    monkeypatch.setattr(engine, "_criterion_holds", lambda *args: True)
    stats = ALGORITHMS[algorithm](F, Division.JANET, Ordering.DEGLEX, check_criterion=True).stats
    assert stats.criterion_checked == stats.criterion_violations == 2
