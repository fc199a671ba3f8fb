import random

import pytest

from involutive import (
    ContextMismatch,
    Division,
    Ordering,
    VariableContext,
    autoreduce_monomials,
    involutive_divisors,
    is_involutive_up_to,
    is_locally_involutive,
    minimal_monomial_completion,
    multiplicative_table,
)

from conftest import random_context, random_monomial_set

CTX3 = VariableContext.of("x", "y", "z")
STAIRCASE = [CTX3.monomial(e) for e in ((2, 0, 0), (1, 1, 0), (0, 0, 1))]


def _names(result):
    return set(str(m) for m in result.basis)


def test_autoreduce_monomials():
    ctx = VariableContext.of("x", "y")
    x = ctx.monomial((1, 0))
    x2 = ctx.monomial((2, 0))
    xy = ctx.monomial((1, 1))
    y = ctx.monomial((0, 1))
    assert set(autoreduce_monomials([x, x2, xy, y])) == {x, y}
    assert set(autoreduce_monomials([x2, x2])) == {x2}
    with pytest.raises(ValueError):
        autoreduce_monomials([])
    with pytest.raises(ContextMismatch):
        autoreduce_monomials([x, VariableContext.of("u", "v").monomial((1, 0))])


def _pairwise_autoreduce(U):
    # every ordered pair: drop each monomial that another member divides
    members = list(dict.fromkeys(U))
    return tuple(u for u in members if not any(v != u and v.divides(u) for v in members))


def test_autoreduce_monomials_matches_pairwise_rule():
    # duplicates, the monomial 1 and one-variable contexts included; the
    # kept monomials stay in first-seen order
    rng = random.Random(81)
    one = VariableContext.of("x")
    cases = [
        [one.one()],
        [one.monomial((2,)), one.one(), one.monomial((2,))],
        [one.monomial((3,)), one.monomial((1,)), one.monomial((1,))],
        [CTX3.one(), *STAIRCASE],
        STAIRCASE + STAIRCASE[::-1],
    ]
    for _ in range(300):
        ctx = random_context(rng, 5)
        members = random_monomial_set(rng, ctx, 16, 5)
        if rng.random() < 0.2:
            members.append(ctx.one())
        if rng.random() < 0.3:
            members += rng.choices(members, k=4)
        rng.shuffle(members)
        cases.append(members)
    for members in cases:
        assert autoreduce_monomials(members) == _pairwise_autoreduce(members), members


@pytest.mark.parametrize(
    "call",
    [
        lambda division, U: multiplicative_table(division, U),
        lambda division, U: is_locally_involutive(division, U, Ordering.DEGLEX),
        lambda division, U: is_involutive_up_to(division, U, 3),
        lambda division, U: minimal_monomial_completion(division, U),
    ],
    ids=["multiplicative_table", "is_locally_involutive", "is_involutive_up_to", "minimal_monomial_completion"],
)
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_empty_monomial_set_is_refused_with_one_message(division, call):
    with pytest.raises(ValueError, match="^the monomial set must be non-empty$") as refused:
        call(division, [])
    assert type(refused.value) is ValueError


def test_local_involutivity_witness():
    # z*x = x*z has no Janet involutive divisor in the staircase set.
    ok, witness = is_locally_involutive(Division.JANET, STAIRCASE, Ordering.DEGLEX)
    assert not ok
    assert witness == (CTX3.monomial((0, 0, 1)), 0)
    completed = STAIRCASE + [CTX3.monomial((1, 0, 1))]
    ok, witness = is_locally_involutive(Division.JANET, completed, Ordering.DEGLEX)
    assert ok and witness is None


def test_involutive_up_to_degree():
    thomas_basis = [
        CTX3.monomial(e)
        for e in (
            (2, 0, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (2, 1, 0),
            (1, 1, 1),
            (2, 0, 1),
            (2, 1, 1),
        )
    ]
    assert is_involutive_up_to(Division.THOMAS, thomas_basis, 8)
    # x^2, x*y, z, x*z, y*z is not Pommaret involutive: y^2*z is in the
    # ideal but has no Pommaret divisor there.
    partial = STAIRCASE + [CTX3.monomial((1, 0, 1)), CTX3.monomial((0, 1, 1))]
    assert not is_involutive_up_to(Division.POMMARET, partial, 4)
    with pytest.raises(ValueError):
        is_involutive_up_to(Division.JANET, STAIRCASE, 1)


def test_staircase_completion_thomas():
    result = minimal_monomial_completion(Division.THOMAS, STAIRCASE)
    assert result.status == "complete"
    assert _names(result) == {"x^2", "x*y", "z", "x*z", "y*z", "x^2*y", "x*y*z", "x^2*z", "x^2*y*z"}


def test_staircase_completion_janet():
    result = minimal_monomial_completion(Division.JANET, STAIRCASE)
    assert result.status == "complete"
    assert _names(result) == {"x^2", "x*y", "z", "x*z"}
    assert result.steps == 1


def test_staircase_completion_division1():
    result = minimal_monomial_completion(Division.DIVISION_1, STAIRCASE)
    assert result.status == "complete"
    assert _names(result) == {"x^2", "x*y", "z", "x*z", "x^2*y", "x*y*z", "x^2*z", "x^2*y*z"}


def test_staircase_completion_division2():
    result = minimal_monomial_completion(Division.DIVISION_2, STAIRCASE)
    assert result.status == "complete"
    assert _names(result) == {"x^2", "x*y", "z", "x*z", "y*z", "x*y*z"}


def test_staircase_pommaret_diverges():
    result = minimal_monomial_completion(Division.POMMARET, STAIRCASE, cap=50)
    assert result.status == "cap_exceeded"
    assert result.steps == 50
    # The divergent chain keeps appending y^k*z.
    added = [str(s.product) for s in result.log]
    assert "y*z" in added and "y^2*z" in added


def test_staircase_reordered_pommaret_is_already_involutive():
    ctx = VariableContext.of("z", "x", "y")
    members = [ctx.monomial(e) for e in ((0, 2, 0), (0, 1, 1), (1, 0, 0))]
    result = minimal_monomial_completion(Division.POMMARET, members)
    assert result.status == "complete"
    assert set(result.basis) == set(members)
    assert result.steps == 0


def test_corner_pommaret_completion():
    members = [CTX3.monomial(e) for e in ((2, 0, 0), (1, 0, 1), (0, 1, 0))]
    result = minimal_monomial_completion(Division.POMMARET, members)
    assert result.status == "complete"
    assert _names(result) == {"x^2", "x*y", "x*z", "y"}
    first = result.log[0]
    assert first.source == CTX3.monomial((0, 1, 0))
    assert first.variable == 0
    assert first.product == CTX3.monomial((1, 1, 0))


def test_completion_output_is_sorted_and_counts_match():
    result = minimal_monomial_completion(Division.THOMAS, STAIRCASE)
    keys = [Ordering.DEGLEX.key(m) for m in result.basis]
    assert keys == sorted(keys)
    assert result.steps == len(result.log) == len(result.basis) - 3


def test_completion_steps_follow_lowest_candidate_rule():
    # Replay the log: every inserted product must be the ordering-minimal
    # uncovered prolongation at its step.
    rng = random.Random(31)
    for _ in range(40):
        ctx = random_context(rng, 3)
        members = list(autoreduce_monomials(random_monomial_set(rng, ctx, max_size=4, max_degree=4)))
        for division in (Division.THOMAS, Division.JANET, Division.DIVISION_1, Division.DIVISION_2):
            result = minimal_monomial_completion(division, members, cap=300)
            if result.status != "complete":
                continue
            current = list(autoreduce_monomials(members))
            for step in result.log:
                uncovered = []
                for u in current:
                    for x in range(ctx.n):
                        prod = u.mul_var(x)
                        covered = involutive_divisors(division, current, prod)
                        if x not in _mult(division, u, current) and not covered:
                            uncovered.append(prod)
                assert uncovered, (division, members, step)
                lowest = min(uncovered, key=Ordering.DEGLEX.key)
                assert step.product == lowest
                current.append(step.product)


def _mult(division, u, members):
    from involutive import partition

    return partition(division, u, members).multiplicative


def test_completion_preserves_monomial_ideal():
    rng = random.Random(32)
    for _ in range(60):
        ctx = random_context(rng, 3)
        members = random_monomial_set(rng, ctx, max_size=4, max_degree=4)
        for division in (Division.THOMAS, Division.JANET, Division.DIVISION_1, Division.DIVISION_2):
            result = minimal_monomial_completion(division, members, cap=300)
            if result.status != "complete":
                continue
            reduced = autoreduce_monomials(members)
            # Every completed element lies in the original ideal and every
            # original generator is involutively covered.
            for m in result.basis:
                assert any(u.divides(m) for u in reduced)
            for u in reduced:
                assert involutive_divisors(division, result.basis, u)
            ok, witness = is_locally_involutive(division, result.basis, Ordering.DEGLEX)
            assert ok, (division, members, witness)


def test_completion_cap_respected():
    result = minimal_monomial_completion(Division.POMMARET, STAIRCASE, cap=7)
    assert result.status == "cap_exceeded"
    assert result.steps == 7
    assert result.cap == 7


def test_completion_rejects_negative_cap():
    with pytest.raises(ValueError, match="cap"):
        minimal_monomial_completion(Division.POMMARET, STAIRCASE, cap=-3)
    result = minimal_monomial_completion(Division.POMMARET, STAIRCASE, cap=0)
    assert (result.status, result.steps, result.cap) == ("cap_exceeded", 0, 0)
