"""The shared reduction kernel against a plain reference normal form.

``normal_form`` and ``involutive_normal_form`` run one kernel over two
divisor lookups.  The reference below shares no code with it: it works on
whole polynomials with ``Polynomial`` subtraction, takes the leading term,
rewrites it with the first admissible divisor in (ordering key of the
leading monomial, position) order, and moves an irreducible leading term to
the remainder.
"""
import random

import pytest

from involutive import (
    Division,
    Ordering,
    Polynomial,
    VariableContext,
    involutive_normal_form,
    is_involutive_divisor,
    normal_form,
    parse_polynomial,
)

from conftest import random_context, random_ideal, random_polynomial

ORDERINGS = (Ordering.LEX, Ordering.DEGLEX, Ordering.DEGREVLEX)


def reference_normal_form(p, F, admissible):
    """Normal form of p modulo F, where admissible(f, m) tells whether f may
    rewrite the monomial m."""
    order = sorted(range(len(F)), key=lambda i: (p.ordering.key(F[i].lm), i))
    remainder = Polynomial.zero(p.ctx, p.ordering)
    while not p.is_zero:
        m, c = p.terms[0]
        f = next((F[i] for i in order if admissible(F[i], m)), None)
        if f is None:
            term = Polynomial.from_monomial(m, p.ordering, c)
            remainder = remainder + term
            p = p - term
        else:
            p = p - f.mul_term(c / f.lc, m / f.lm)
    return remainder


def divides(f, m):
    return f.lm.divides(m)


def involutive(F, division):
    lms = [f.lm for f in F]
    return lambda f, m: is_involutive_divisor(division, f.lm, lms, m)


@pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_kernel_matches_reference(division, ordering):
    rng = random.Random(1300 + 10 * list(Division).index(division) + ORDERINGS.index(ordering))
    for case in range(40):
        ctx = random_context(rng, max_vars=3)
        F = random_ideal(rng, ctx, ordering)
        p = random_polynomial(rng, ctx, ordering, max_degree=4, max_terms=5)
        expected = reference_normal_form(p, F, divides)
        assert normal_form(p, F).terms == expected.terms, case
        expected = reference_normal_form(p, F, involutive(F, division))
        assert involutive_normal_form(p, F, division, ordering).terms == expected.terms, case


@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_kernel_ties_and_empty_reducers(division):
    ctx = VariableContext.of("x", "y")
    ordering = Ordering.DEGLEX

    def P(text):
        return parse_polynomial(text, ctx, ordering)

    p = P("x^3 + 2*x^2*y - x + 5")
    for F in ([P("x^2 - y"), P("x^2 + y"), P("x - 1")], [P("x^2 + y"), P("x^2 - y"), P("x - 1")], [P("2*x^2 - y"), P("x^2 - y")]):
        assert normal_form(p, F).terms == reference_normal_form(p, F, divides).terms
        expected = reference_normal_form(p, F, involutive(F, division))
        assert involutive_normal_form(p, F, division, ordering).terms == expected.terms
    # equal leading monomials: the reducer listed first rewrites
    x2 = P("x^2")
    assert normal_form(x2, [P("x^2 - y"), P("x^2 + y")]) == P("y")
    assert normal_form(x2, [P("x^2 + y"), P("x^2 - y")]) == P("-y")
    assert involutive_normal_form(x2, [P("x^2 - y"), P("x^2 + y")], division, ordering) == P("y")
    assert involutive_normal_form(x2, [P("x^2 + y"), P("x^2 - y")], division, ordering) == P("-y")
    # no reducers: p is its own normal form
    assert normal_form(p, []).terms == p.terms == reference_normal_form(p, [], divides).terms
    assert involutive_normal_form(p, [], division, ordering).terms == p.terms
    assert reference_normal_form(P("0"), [P("x")], divides).terms == ()
    assert normal_form(P("0"), [P("x")]).terms == ()
