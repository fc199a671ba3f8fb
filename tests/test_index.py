"""The ordered divisor index ``_Reducers`` and the integral forms it hands
to the kernel.

An index grown member by member, with ``insert``, ``narrow`` after every
loss that ``divisions.grow_table`` reports, and ``pop`` of members that
leave again, must equal the index built at once from the final members and
their table, and both must answer every lookup like a plain scan in
(ordering key, arrival) order.  Every polynomial object's integral form is
computed once, however many indexes it joins.
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
from involutive.polynomials import _Reducers

from conftest import random_context, random_monomial, random_monomial_set


def _shape(index):
    """Keys and items, with each payload by identity."""
    return index.keys, [(exps, fixed, id(payload)) for exps, fixed, payload in index.items]


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
        index = _Reducers((), {}, ordering)
        table = {}
        arrived = []
        for p in members:
            if p.lm not in table:
                for v in grow_table(division, table, p.lm):
                    index.narrow(v, table[v])
            index.insert(p.lm, table[p.lm], p)
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
        once = _Reducers(arrived, table, ordering)
        assert _shape(index) == _shape(once), case
        ranked = sorted(arrived, key=lambda p: ordering.key(p.lm))
        for _ in range(30):
            probe = random_monomial(rng, ctx, max_degree=6)
            first = next((p for p in ranked if _inv_divides(p.lm.exps, probe.exps, table[p.lm])), None)
            assert index.find(probe.exps) is first, (case, probe)
            assert once.find(probe.exps) is first, (case, probe)


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

    def recorded(f):
        # holding f keeps its id from being reused by a later polynomial
        forms.append(f)
        return real(f)

    monkeypatch.setattr(polynomials, "_integral_form", recorded)
    for F in (_cyclic4(), _katsura3()):
        basis = minimal_involutive_basis(F, Division.JANET, Ordering.DEGREVLEX).basis
        assert verify_involutive(basis, Division.JANET, Ordering.DEGREVLEX)
        assert verify_groebner(basis, Ordering.DEGREVLEX)
        assert buchberger(F)
    assert forms and len({id(f) for f in forms}) == len(forms)
