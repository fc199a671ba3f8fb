import random

import pytest

from involutive import (
    Division,
    Partition,
    VariableContext,
    check_division_axioms,
    involutive_divisors,
    is_involutive_divisor,
    multiplicative_table,
    partition,
)
from involutive.divisions import grow_table

from conftest import random_context, random_monomial, random_monomial_set

CTX3 = VariableContext.of("x", "y", "z")
STAIRCASE = [CTX3.monomial(e) for e in ((2, 0, 0), (1, 1, 0), (0, 0, 1))]


def _mult_names(division, u, members):
    part = partition(division, u, members)
    return {CTX3.names[i] for i in part.multiplicative}


def test_partition_table_staircase():
    # 15-cell golden: multiplicative variables of x^2, x*y, z under all
    # five divisions with variables ordered x, y, z.
    x2, xy, z = STAIRCASE
    table = {
        Division.THOMAS: ({"x"}, {"y"}, {"z"}),
        Division.JANET: ({"x", "y", "z"}, {"y", "z"}, {"y", "z"}),
        Division.POMMARET: ({"x", "y", "z"}, {"y", "z"}, {"z"}),
        Division.DIVISION_1: ({"x"}, {"y"}, {"y", "z"}),
        Division.DIVISION_2: ({"x"}, {"x", "y"}, {"z"}),
    }
    for division, (m_x2, m_xy, m_z) in table.items():
        assert _mult_names(division, x2, STAIRCASE) == m_x2, division
        assert _mult_names(division, xy, STAIRCASE) == m_xy, division
        assert _mult_names(division, z, STAIRCASE) == m_z, division


def test_partition_is_exact_complement():
    rng = random.Random(21)
    for _ in range(100):
        ctx = random_context(rng)
        members = random_monomial_set(rng, ctx)
        for division in Division:
            for u in members:
                part = partition(division, u, members)
                assert part.multiplicative | part.nonmultiplicative == set(range(ctx.n))
                assert not part.multiplicative & part.nonmultiplicative


def test_partition_requires_membership():
    with pytest.raises(ValueError):
        partition(Division.JANET, CTX3.monomial((5, 5, 5)), STAIRCASE)


def test_partition_overlap_rejected():
    with pytest.raises(ValueError):
        Partition(frozenset({0}), frozenset({0, 1}))


def test_involutive_divisor_golden():
    x2, xy, z = STAIRCASE
    members = STAIRCASE + [CTX3.monomial((1, 0, 1))]
    # x^2*z = x^2 * z with z multiplicative for x^2 under Janet.
    target = CTX3.monomial((2, 0, 1))
    assert involutive_divisors(Division.JANET, members, target) == (x2,)
    assert is_involutive_divisor(Division.JANET, x2, members, target)
    # x*y*z needs z multiplicative for x*y: true under Janet.
    assert involutive_divisors(Division.JANET, members, CTX3.monomial((1, 1, 1))) == (xy,)


def test_involutive_implies_conventional_divisibility():
    rng = random.Random(22)
    for _ in range(200):
        ctx = random_context(rng)
        members = random_monomial_set(rng, ctx)
        w = random_monomial(rng, ctx, 7)
        for division in Division:
            for u in involutive_divisors(division, members, w):
                assert u.divides(w)
                quotient = w / u
                part = partition(division, u, members)
                assert set(quotient.variables()) <= part.multiplicative


def test_globally_defined_flags():
    assert Division.POMMARET.globally_defined
    assert Division.DIVISION_2.globally_defined
    assert not Division.THOMAS.globally_defined
    assert not Division.JANET.globally_defined
    assert not Division.DIVISION_1.globally_defined


def test_set_independence_of_globally_defined_divisions():
    rng = random.Random(23)
    for _ in range(150):
        ctx = random_context(rng)
        u = random_monomial(rng, ctx)
        set_a = random_monomial_set(rng, ctx) + [u]
        set_b = random_monomial_set(rng, ctx) + [u]
        for division in (Division.POMMARET, Division.DIVISION_2):
            part_a = partition(division, u, set_a)
            part_b = partition(division, u, set_b)
            assert part_a.multiplicative == part_b.multiplicative


def test_variable_permutation_equivariance():
    # Thomas and both numbered divisions ignore the variable order: permuting
    # the exponent axes permutes the partition the same way.
    rng = random.Random(24)
    for _ in range(150):
        ctx = random_context(rng)
        members = random_monomial_set(rng, ctx)
        perm = list(range(ctx.n))
        rng.shuffle(perm)
        permuted = [ctx.monomial(tuple(m.exps[perm[i]] for i in range(ctx.n))) for m in members]
        for division in (Division.THOMAS, Division.DIVISION_1, Division.DIVISION_2):
            table = multiplicative_table(division, members)
            table_p = multiplicative_table(division, permuted)
            for m, mp in zip(members, permuted):
                assert {perm[i] for i in table_p[mp]} == set(table[m])


def test_janet_depends_on_variable_order():
    # Same abstract set {x, y}; relabeling which axis comes first changes
    # the Janet multiplicative set of x from {x, y} to {x}.
    ctx = VariableContext.of("x", "y")
    table = multiplicative_table(Division.JANET, [ctx.monomial((1, 0)), ctx.monomial((0, 1))])
    assert table[ctx.monomial((1, 0))] == frozenset({0, 1})
    assert table[ctx.monomial((0, 1))] == frozenset({1})
    flipped = VariableContext.of("y", "x")
    table_f = multiplicative_table(Division.JANET, [flipped.monomial((0, 1)), flipped.monomial((1, 0))])
    assert table_f[flipped.monomial((0, 1))] == frozenset({1})


def test_thomas_multiplicative_subset_of_division1():
    rng = random.Random(25)
    for _ in range(300):
        ctx = random_context(rng)
        members = random_monomial_set(rng, ctx)
        table_t = multiplicative_table(Division.THOMAS, members)
        table_1 = multiplicative_table(Division.DIVISION_1, members)
        for u in members:
            assert table_t[u] <= table_1[u], (u, members)


def test_axiom_checker_accepts_all_divisions():
    rng = random.Random(26)
    for _ in range(60):
        ctx = random_context(rng)
        members = random_monomial_set(rng, ctx, max_size=5, max_degree=4)
        bound = max(m.degree for m in members) + 2
        for division in Division:
            report = check_division_axioms(division, members, probe_degree_bound=bound)
            assert report.ok, (division, members, report.violations)
            assert report.probes_checked > 0


def test_axiom_checker_rejects_negative_probe_bound():
    # a negative bound would probe nothing for axiom (b) and report ok
    for division in Division:
        with pytest.raises(ValueError, match="probe degree bound"):
            check_division_axioms(division, STAIRCASE, probe_degree_bound=-1)
    assert check_division_axioms(Division.JANET, STAIRCASE, probe_degree_bound=0).probes_checked == 1


def test_axiom_checker_rejects_everything_multiplicative():
    # Declaring every variable multiplicative for every member breaks
    # axiom (b) as soon as two members share a cone.
    def all_multiplicative(u, members):
        n = u.ctx.n
        return Partition(frozenset(range(n)), frozenset())

    ctx = VariableContext.of("x", "y")
    members = [ctx.monomial((1, 0)), ctx.monomial((0, 1))]
    report = check_division_axioms(all_multiplicative, members, probe_degree_bound=3)
    assert not report.ok
    assert report.violations


def test_axiom_checker_rejects_intransitive_rule():
    # 1 divides x here (x multiplicative for 1) but x carries a larger
    # multiplicative set than 1, breaking transitivity: 1 | x | x*y yet
    # 1 does not involutively divide x*y.
    def degree_parity(u, members):
        n = u.ctx.n
        mult = frozenset({0}) if u.degree % 2 == 0 else frozenset(range(n))
        return Partition(mult, frozenset(range(n)) - mult)

    ctx = VariableContext.of("x", "y")
    members = [ctx.monomial((0, 0)), ctx.monomial((1, 0))]
    report = check_division_axioms(degree_parity, members, probe_degree_bound=4)
    assert not report.ok


def test_continuity_random_walks():
    # Walks that step from u to an involutive divisor of a nonmultiplicative
    # prolongation of u must never revisit an element.
    rng = random.Random(27)
    for _ in range(150):
        ctx = random_context(rng)
        members = random_monomial_set(rng, ctx)
        for division in Division:
            table = multiplicative_table(division, members)
            u = rng.choice(members)
            seen = [u]
            for _ in range(len(members)):
                nonmult = [i for i in range(ctx.n) if i not in table[u]]
                if not nonmult:
                    break
                x = rng.choice(nonmult)
                divisors = involutive_divisors(division, members, u.mul_var(x))
                if not divisors:
                    break
                u = rng.choice(divisors)
                assert u not in seen, (division, seen, u)
                seen.append(u)


def test_division_parse():
    assert Division.parse("janet") is Division.JANET
    assert Division.parse("division1") is Division.DIVISION_1
    with pytest.raises(ValueError):
        Division.parse("nope")


def test_table_rejects_mixed_contexts():
    other = VariableContext.of("a", "b", "c")
    with pytest.raises(ValueError):
        multiplicative_table(Division.JANET, [STAIRCASE[0], other.monomial((1, 0, 0))])


@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_grow_table_matches_recomputed_table(division):
    # growing a table one member at a time gives the table of the grown set,
    # and the older members only lose variables (axiom (d))
    rng = random.Random(71 + list(Division).index(division))
    for _ in range(60):
        ctx = random_context(rng, 4)
        members = random_monomial_set(rng, ctx, 8, 4)
        table = multiplicative_table(division, members[:1])
        for k in range(1, len(members)):
            old = dict(table)
            lost = grow_table(division, table, members[k])
            assert table == multiplicative_table(division, members[: k + 1])
            assert all(table[v] <= old[v] for v in old)
            assert lost == {v: old[v] - table[v] for v in old if old[v] != table[v]}
            if division.globally_defined:
                assert lost == {}
