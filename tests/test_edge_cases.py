"""Degenerate inputs end in a clean status under every division and both
completion algorithms, and a complete result is an involutive basis of the
input ideal."""
import pytest

from involutive import (
    Division,
    Ordering,
    VariableContext,
    involutive_basis,
    minimal_involutive_basis,
    parse_polynomial,
    same_ideal,
    verify_involutive,
)

from conftest import starting_width, widths_used

CTX2 = VariableContext.of("x", "y")
CTX3 = VariableContext.of("x", "y", "z")

# name: (context, generators, cap)
CASES = {
    "unit-ideal": (CTX2, ["x*y - 1", "y"], 20000),
    "constant": (CTX2, ["3"], 20000),
    "duplicate-generators": (CTX2, ["x^2 - y", "x^2 - y", "2*x^2 - 2*y"], 20000),
    "absent-variable": (CTX3, ["x^2 - y", "y^2 - x"], 20000),
    "high-exponent": (CTX2, ["x^60 - y"], 20000),
    "cap-0": (CTX2, ["x^2*y - 1", "x*y^2 - 1"], 0),
}


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
@pytest.mark.parametrize("algorithm", [involutive_basis, minimal_involutive_basis], ids=["involutive", "minimal"])
def test_degenerate_input_ends_cleanly(algorithm, division, name):
    ctx, texts, cap = CASES[name]
    ordering = Ordering.DEGLEX
    F = [parse_polynomial(t, ctx, ordering) for t in texts]
    r = algorithm(F, division, ordering, cap=cap)
    assert r.status in ("complete", "cap_exceeded")
    assert r.stats.zero_reductions + r.stats.nonzero_reductions <= cap
    if r.status == "complete":
        assert verify_involutive(r.basis, division, ordering)
        assert same_ideal(F, r.basis, ordering)
    if name in ("unit-ideal", "constant"):
        assert [str(p) for p in r.basis] == ["1"]
    if name == "cap-0":
        assert r.status == "cap_exceeded"


# Prolongations one past the 16-bit fields a packing starts with; the run
# repeats on 32-bit fields and logs once.
PAST_THE_FIELDS = {
    # x is non-multiplicative for x^32766*y under Pommaret, so the first
    # prolongation has degree 2^15
    "leading-term": ("x^32766*y - 1", Division.POMMARET, Ordering.DEGLEX),
    # y is non-multiplicative for x under division2; y*(x - y^32767) keeps
    # its leading term inside the fields, and its tail leaves them
    "tail-term": ("x - y^32767", Division.DIVISION_2, Ordering.LEX),
}


@pytest.mark.parametrize("name", list(PAST_THE_FIELDS))
@pytest.mark.parametrize("algorithm", [involutive_basis, minimal_involutive_basis], ids=["involutive", "minimal"])
def test_prolongation_past_the_field_width_repeats_the_run(monkeypatch, algorithm, name):
    text, division, ordering = PAST_THE_FIELDS[name]
    F = [parse_polynomial(text, CTX2, ordering)]
    runs = []
    for bits in (16, 32):
        widths = widths_used(monkeypatch)
        with starting_width(bits):
            log = []
            r = algorithm(F, division, ordering, cap=3, log=log)
        assert widths == ({16, 32} if bits == 16 else {32})
        runs.append(([str(p) for p in r.basis], r.status, r.stats, log))
        monkeypatch.undo()
    assert runs[0] == runs[1]
    basis, status, stats, log = runs[0]
    assert stats.prolongations_examined > 0 and log
    # 2^15 - 1 is the largest value a 16-bit field with its guard bit holds
    assert max(m.degree for p in r.basis for m, _ in p.terms) >= 2**15
