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
