import dataclasses
import types
from fractions import Fraction

import involutive as inv

from perfbench import workloads
from perfbench.workloads import Tally, Timer, basis_record, certify, matches, random_pass

ORDER = inv.Ordering.LEX
DIVISION = inv.Division.JANET


def _binomial_case():
    ctx = inv.VariableContext.of("x", "y")
    F = [inv.parse_polynomial(s, ctx, ORDER) for s in ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1")]
    return F, inv.involutive_basis(F, DIVISION, ORDER)


def _perturbed(p):
    (m, c), *tail = p.terms[::-1]
    return inv.Polynomial.from_terms(p.ctx, p.ordering, [(m, c + Fraction(1, 3)), *tail])


def test_certify_accepts_the_basis_and_rejects_corruptions():
    F, r = _binomial_case()
    timer = Timer()
    assert certify(inv, r.basis, F, DIVISION, ORDER, timer)
    assert not certify(inv, r.basis[1:], F, DIVISION, ORDER, timer)
    perturbed = (_perturbed(r.basis[0]), *r.basis[1:])
    assert not certify(inv, perturbed, F, DIVISION, ORDER, timer)
    assert timer.times["verify_s"] > 0 and timer.reference == []


def test_golden_detects_corrupted_bases_and_stats():
    _, r = _binomial_case()
    golden = basis_record(r)
    assert matches(basis_record(r), golden)
    assert not matches(basis_record(dataclasses.replace(r, basis=r.basis[1:])), golden)
    assert not matches(basis_record(dataclasses.replace(r, basis=(_perturbed(r.basis[0]), *r.basis[1:]))), golden)
    stats = dataclasses.replace(r.stats, zero_reductions=r.stats.zero_reductions + 1)
    assert not matches(basis_record(dataclasses.replace(r, stats=stats)), golden)
    # a stats field the golden does not record is not compared
    grown = basis_record(r)
    grown["stats"]["phase_s"] = 0.5
    assert matches(grown, golden)


def test_corrupted_output_raises_failed_frac():
    ctx = inv.VariableContext.of("x", "y", "z")
    order = inv.Ordering.DEGLEX
    F = [inv.parse_polynomial(s, ctx, order) for s in ("x - 2", "y^2 + z - 1", "z^2 + 3*y")]

    tally = Tally()
    random_pass(inv, [(order, F)], Timer(), tally, {})
    assert tally.attempted == 15 and tally.failed == 0

    def dropping(F, division, ordering, **kwargs):
        r = inv.minimal_involutive_basis(F, division, ordering, **kwargs)
        return dataclasses.replace(r, basis=r.basis[1:])

    broken = types.SimpleNamespace(**{**vars(inv), "minimal_involutive_basis": dropping})
    tally = Tally()
    random_pass(broken, [(order, F)], Timer(), tally, {})
    assert tally.failed == 5
    assert tally.failed_frac == 5 / 15


def test_timer_scales_calls_by_the_adjacent_reference_slices(monkeypatch):
    slices = iter([0.02, 0.04])
    monkeypatch.setattr(workloads, "reference_slice", lambda: next(slices))
    timer = Timer(every=100.0)
    timer("verify_s", sum, [1, 2])
    timer.calibrate()
    assert timer.scaled["verify_s"] == timer.times["verify_s"] * 0.01 / 0.02
    timer("minimal_s", sum, [3])
    timer.calibrate()
    # one batch was taken before the call and one after: their mean is 0.03
    assert timer.scaled["minimal_s"] == timer.times["minimal_s"] * 0.01 / 0.03
    assert timer.reference == [0.02, 0.04]
