"""The ordered divisor index ``_Reducers`` and the integral forms it hands
to the kernel.

The index holds packed leading monomials and the multiplicative table of
its members.  An index grown member by member, with ``insert``, ``narrow``
of every loss that ``divisions.grow_table`` reports in that table, and
``pop`` of members that leave again, must equal the index built at once
from the final members and their table, and both must answer every lookup
like a plain scan in (ordering key, arrival) order over the exponent
tuples.  That holds too for probes with involutive divisors in several
groups of non-multiplicative fields, where the lowest-keyed hit across the
groups wins, no emptied bucket or group is left behind, and every group
records its lowest member, by which lookups visit the groups.  ``narrow``
names the position of the first member of each leading monomial it
re-files, and ``nonmultiplicative`` lists the variables the table leaves
out.  ``polynomials._reducible`` tests a member against the others as a
scan over its terms does.  Every polynomial object's integral form is computed once, however
many indexes it joins.
"""
import random

import pytest

from involutive import (
    Division,
    Ordering,
    Polynomial,
    VariableContext,
    buchberger,
    minimal_involutive_basis,
    multiplicative_table,
    parse_polynomial,
    polynomials,
    verify_groebner,
    verify_involutive,
)
from involutive.divisions import _inv_divides, grow_table
from involutive.index import _Reducers

from conftest import random_context, random_monomial, random_monomial_set


def _shape(index):
    """Keys and items, with each payload by identity."""
    return index.keys, [(k, mask, id(payload)) for k, mask, payload in index.items]


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_grown_index_equals_index_built_at_once(division, ordering):
    rng = random.Random(1700 + 10 * list(Division).index(division) + list(Ordering).index(ordering))
    for case in range(40):
        ctx = random_context(rng, max_vars=4)
        lms = random_monomial_set(rng, ctx, max_size=7, max_degree=4)
        # two or three members for some leading monomials, and members that
        # join and leave again
        members = [Polynomial.from_monomial(m, ordering, c) for m in lms for c in range(1, rng.randint(1, 3) + 1)]
        rng.shuffle(members)
        leaving = {id(p) for p in rng.sample(members, len(members) // 3)}
        packing = ordering.packing(ctx.n)
        pack = packing.pack
        table = {}
        index = _Reducers((), table, packing)
        arrived = []
        for p in members:
            if p.lm not in table:
                lost = grow_table(division, table, p.lm)
                first = index.narrow(lost)
                assert first.keys() == lost.keys(), case
                for v, pos in first.items():
                    # where its first member is, or would go when all left
                    assert all(k < pack(v.exps) for k in index.keys[:pos]) and all(k >= pack(v.exps) for k in index.keys[pos:]), case
            index.insert(pack(p.lm.exps), p.lm, p)
            arrived.append(p)
            if rng.random() < 0.3:
                # a member leaves as soon as it joined, or the earliest leaver
                gone = next((q for q in arrived if id(q) in leaving), None)
                if gone is not None:
                    pos = next(i for i, item in enumerate(index.items) if item[2] is gone)
                    assert index.pop(pos) is gone
                    arrived.remove(gone)
                    leaving.discard(id(gone))
        assert table == multiplicative_table(division, lms), case
        assert all(sorted(index.nonmultiplicative(m)) == [x for x in range(ctx.n) if x not in table[m]] for m in lms), case
        once = _Reducers(arrived, table, packing)
        assert _shape(index) == _shape(once), case
        assert _groups_hold_their_lowest(index) and _groups_hold_their_lowest(once), case
        ranked = sorted(arrived, key=lambda p: ordering.key(p.lm))
        for _ in range(30):
            probe = random_monomial(rng, ctx, max_degree=6)
            first = next((p for p in ranked if _inv_divides(p.lm.exps, probe.exps, table[p.lm])), None)
            assert index.find(pack(probe.exps)) is first, (case, probe)
            assert once.find(pack(probe.exps)) is first, (case, probe)


def _scan(members, table, ordering, exps):
    """The reference lookup: the first member, ascending by (ordering key of
    the leading monomial, arrival), that involutively divides exps."""
    ranked = sorted(members, key=lambda p: ordering.key(p.lm))
    return next((p for p in ranked if _inv_divides(p.lm.exps, exps, table[p.lm])), None)


def _no_empty_groups(index):
    return all(buckets and all(buckets.values()) for _, _, buckets in index.groups.values())


def _groups_hold_their_lowest(index):
    """Each group records its lowest key and lists its members by mask."""
    lowest = {}
    for k, mask, _ in index.items:
        lowest.setdefault(mask, k)
    return {mask: group[0] for mask, group in index.groups.items()} == lowest and all(
        mask == group[1] for mask, group in index.groups.items()
    )


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_lookup_across_groups_matches_scan(ordering):
    # Random multiplicative sets, not a division's: involutive cones overlap,
    # so many probes have divisors in several groups.  The sets are not
    # autoreduced, some leading monomials carry two or three members, every
    # fourth case has every variable multiplicative (every eighth as an
    # index without a table), and between rounds of probes a leading
    # monomial loses variables (its members move to another group) and
    # members leave.
    rng = random.Random(4100 + list(Ordering).index(ordering))
    spread = 0
    for case in range(60):
        ctx = random_context(rng, max_vars=4)
        lms = random_monomial_set(rng, ctx, max_size=7, max_degree=3)
        everything = frozenset(range(ctx.n))
        if case % 4 == 0:
            table = {m: everything for m in lms}
        else:
            table = {m: frozenset(i for i in everything if rng.random() < 0.7) for m in lms}
        members = [Polynomial.from_monomial(m, ordering, c) for m in lms for c in range(1, rng.randint(1, 3) + 1)]
        rng.shuffle(members)
        packing = ordering.packing(ctx.n)
        index = _Reducers(members, None if case % 8 == 0 else table, packing)
        for _ in range(3):
            for _ in range(20):
                # a probe in the cone of some member, or anywhere
                base = rng.choice(members).lm.exps if members and rng.random() < 0.8 else (0,) * ctx.n
                probe = tuple(a + rng.randint(0, 2) for a in base)
                fixed = {tuple(sorted(everything - table[p.lm])) for p in members if _inv_divides(p.lm.exps, probe, table[p.lm])}
                spread += len(fixed) > 1
                assert index.find(packing.pack(probe)) is _scan(members, table, ordering, probe), (case, probe)
            if case % 4:
                m = rng.choice(lms)
                kept = frozenset(rng.sample(sorted(table[m]), len(table[m]) // 2))
                lost = {m: table[m] - kept}
                table[m] = kept
                index.narrow(lost)
            for p in rng.sample(members, len(members) // 4):
                assert index.pop(next(i for i, item in enumerate(index.items) if item[2] is p)) is p
                members.remove(p)
            assert _no_empty_groups(index) and _groups_hold_their_lowest(index), case
            assert _shape(index) == _shape(_Reducers(members, table, packing)), case
    assert spread > 250, spread


def test_emptied_index_holds_no_group():
    ctx = VariableContext.of("x", "y", "z")
    pack = Ordering.DEGLEX.packing(ctx.n).pack
    table = {}
    index = _Reducers((), table, Ordering.DEGLEX.packing(ctx.n))
    grown = []
    for exps in [(2, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 0), (3, 1, 0), (0, 2, 1), (1, 0, 4)]:
        m = ctx.monomial(exps)
        index.narrow(grow_table(Division.JANET, table, m))
        index.insert(pack(exps), m, m)
        grown.append(m)
    assert len(index.groups) > 1 and _no_empty_groups(index) and _groups_hold_their_lowest(index)
    while index.items:
        index.pop(len(index.items) // 2)
        assert _no_empty_groups(index) and _groups_hold_their_lowest(index)
    assert index.groups == {} and index.keys == []
    assert all(index.find(pack(m.exps)) is None for m in grown)


@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_reducible_matches_scan(division):
    """``_reducible`` on each member of a set with distinct leading
    monomials, partitioned by the division, answers as a scan over every
    term of the member and every other member."""
    rng = random.Random(5300 + list(Division).index(division))
    answers = set()
    for case in range(60):
        ctx = random_context(rng, max_vars=4)
        ordering = rng.choice(list(Ordering))
        lms = random_monomial_set(rng, ctx, max_size=6, max_degree=4)
        table = multiplicative_table(division, lms)
        members = []
        for m in lms:
            lower = [u for u in (random_monomial(rng, ctx, max_degree=4) for _ in range(4)) if ordering.key(u) < ordering.key(m)]
            members.append(Polynomial.from_terms(ctx, ordering, [(m, 1)] + [(u, rng.randint(1, 3)) for u in lower]))
        rng.shuffle(members)
        index = _Reducers(members, table, ordering.packing(ctx.n))
        for p in members:
            want = any(_inv_divides(q.lm.exps, u.exps, table[q.lm]) for u, _ in p.terms for q in members if q is not p)
            assert polynomials._reducible(p, index) is want, (case, p)
            answers.add(want)
    assert answers == {False, True}


def _cyclic4():
    ctx = VariableContext.of("a", "b", "c", "d")
    lines = ["a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]
    return [parse_polynomial(t, ctx, Ordering.DEGREVLEX) for t in lines]


def _katsura3():
    ctx = VariableContext.of("u0", "u1", "u2", "u3")
    lines = [
        "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
        "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
    ]
    return [parse_polynomial(t, ctx, Ordering.DEGREVLEX) for t in lines]


def test_each_polynomial_gets_one_integral_form(monkeypatch):
    forms = []
    real = polynomials._integral_form

    def recorded(f, packing):
        # holding f keeps its id from being reused by a later polynomial
        forms.append(f)
        return real(f, packing)

    monkeypatch.setattr(polynomials, "_integral_form", recorded)
    for F in (_cyclic4(), _katsura3()):
        basis = minimal_involutive_basis(F, Division.JANET, Ordering.DEGREVLEX).basis
        assert verify_involutive(basis, Division.JANET, Ordering.DEGREVLEX)
        assert verify_groebner(basis, Ordering.DEGREVLEX)
        assert buchberger(F)
    assert forms and len({id(f) for f in forms}) == len(forms)
