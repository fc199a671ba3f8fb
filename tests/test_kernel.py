"""The shared reduction kernel and interreduction against plain references.

``normal_form`` and ``involutive_normal_form`` run one kernel over two
divisor lookups.  The reference below shares no code with it: it works on
whole polynomials with ``Polynomial`` subtraction, takes the leading term,
rewrites it with the first admissible divisor in (ordering key of the
leading monomial, position) order, and moves an irreducible leading term to
the remainder.  ``autoreduce`` and ``involutive_autoreduce`` run one
interreduction loop; its reference restarts from scratch after every
change and reduces every member with the reference normal form.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

from involutive import (
    Division,
    Ordering,
    Polynomial,
    VariableContext,
    autoreduce,
    buchberger,
    involutive_autoreduce,
    involutive_basis,
    involutive_normal_form,
    is_involutive_divisor,
    minimal_involutive_basis,
    normal_form,
    parse_polynomial,
    polynomials,
    s_polynomial,
    same_ideal,
)
from involutive.engine import verify_groebner
from involutive.index import _Reducers

from conftest import random_context, random_ideal, random_monomial, random_polynomial, reference_s_polynomial, starting_width, widths_used

ORDERINGS = (Ordering.LEX, Ordering.DEGLEX, Ordering.DEGREVLEX)


def reference_normal_form(p, F, admissible, steps=None):
    """Normal form of p modulo F, where admissible(f, m) tells whether f may
    rewrite the monomial m; ``steps`` collects the (reducer, multiplier,
    factor) of every rewrite."""
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
            if steps is not None:
                steps.append((f, m / f.lm, c / f.lc))
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


DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12, 35)


def rational_polynomial(rng, ctx, ordering, max_degree=3, max_terms=4, big=False):
    """Random coefficients n/d over several denominators d; with ``big`` the
    numerators lie between 2^63 and 2^65 in absolute value."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.choice((-1, 1)) * (rng.randint(2**63, 2**65) if big else rng.randint(1, 9))
        terms[random_monomial(rng, ctx, max_degree)] = Fraction(n, rng.choice(DENOMINATORS))
    return Polynomial.from_terms(ctx, ordering, terms)


@pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_kernel_matches_reference_on_rational_coefficients(division, ordering):
    """Rational, non-monic reducers, negative leading coefficients and
    numerators near 2^64: the same terms, every coefficient a ``Fraction``,
    and a traced involutive normal form collects the reference's rewrites."""
    rng = random.Random(1700 + 10 * list(Division).index(division) + ORDERINGS.index(ordering))
    negative_lc = big_steps = 0
    for case in range(30):
        big = case % 3 == 0
        ctx = random_context(rng, max_vars=3)
        F = [rational_polynomial(rng, ctx, ordering, big=big) for _ in range(rng.randint(1, 4))]
        p = rational_polynomial(rng, ctx, ordering, max_degree=4, max_terms=5, big=big)
        expected = reference_normal_form(p, F, divides)
        got = normal_form(p, F)
        assert got.terms == expected.terms, case
        assert all(type(c) is Fraction for _, c in got.terms), case
        steps, trace = [], []
        expected = reference_normal_form(p, F, involutive(F, division), steps)
        got = involutive_normal_form(p, F, division, ordering, trace)
        assert got.terms == expected.terms, case
        assert all(type(c) is Fraction for _, c in got.terms), case
        assert trace == steps, case
        assert all(type(factor) is Fraction for _, _, factor in trace), case
        negative_lc += sum(f.lc < 0 for f, _, _ in trace)
        big_steps += len(trace) if big else 0
    assert negative_lc and big_steps


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_untraced_kernel_makes_no_fraction_operations(monkeypatch):
    """A count, not a time: the kernel rewrites on integers and builds a
    ``Fraction`` only for an output term.  The operators are counted as the
    benchmark's tracer counts them, by wrapping them on the class."""
    rng = random.Random(1800)
    ctx = VariableContext.of("x", "y", "z")
    ordering = Ordering.DEGREVLEX
    cases = []
    for case in range(20):
        F = [rational_polynomial(rng, ctx, ordering, big=case % 2 == 0) for _ in range(3)]
        F.append(rational_polynomial(rng, ctx, ordering).mul_term(Fraction(-3, 7), ctx.monomial((1, 0, 0))))
        cases.append((rational_polynomial(rng, ctx, ordering, max_degree=5, max_terms=6), F))
    calls = []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)

        return wrapper

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(name, vars(Fraction)[name]))
    results = [(normal_form(p, F), involutive_normal_form(p, F, Division.JANET, ordering)) for p, F in cases]
    monkeypatch.undo()
    assert calls == []
    steps = []
    for (p, F), (conventional, janet) in zip(cases, results):
        assert conventional.terms == reference_normal_form(p, F, divides, steps).terms
        assert janet.terms == reference_normal_form(p, F, involutive(F, Division.JANET), steps).terms
    assert len(steps) > 50


KATSURA_5 = (
    "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 + 2*u5 - 1",
    "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 + 2*u5^2 - u0",
    "2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 + 2*u4*u5 - u1",
    "2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 + 2*u3*u5 - u2",
    "2*u0*u3 + 2*u1*u2 + 2*u1*u4 + 2*u2*u5 - u3",
    "2*u0*u4 + 2*u1*u3 + u2^2 + 2*u1*u5 - u4",
)


def test_kernel_integers_stay_near_the_output_width(monkeypatch):
    """A count of bits, not a time: on katsura-5 (Janet, degrevlex, minimal
    basis) the widest integer the kernel holds stays within 3x the widest
    numerator or denominator it returns.  The kernel shows its pending
    integers to ``gcd`` when it rewrites a term and to ``Fraction`` when it
    returns one, with the denominator of the moment; both are wrapped as
    module-level names of ``polynomials``."""
    widest = {"held": 0, "out": 0}

    def seen(*ints):
        widest["held"] = max(widest["held"], *(n.bit_length() for n in ints))

    def recorded_gcd(*args):
        seen(*args)
        return gcd(*args)

    def recorded_fraction(*args):
        q = Fraction(*args)
        if len(args) == 2:
            seen(*args)
            widest["out"] = max(widest["out"], q.numerator.bit_length(), q.denominator.bit_length())
        return q

    ctx = VariableContext.of("u0", "u1", "u2", "u3", "u4", "u5")
    F = [parse_polynomial(t, ctx, Ordering.DEGREVLEX) for t in KATSURA_5]
    monkeypatch.setattr(polynomials, "gcd", recorded_gcd)
    monkeypatch.setattr(polynomials, "Fraction", recorded_fraction)
    result = minimal_involutive_basis(F, Division.JANET, Ordering.DEGREVLEX)
    monkeypatch.undo()
    assert result.status == "complete" and len(result.basis) == 23
    assert widest["out"] > 32
    assert widest["held"] <= 3 * widest["out"], widest


def reference_interreduce(polys, admissible_in, events):
    """Interreduce monic members: each round sorts them stably ascending by
    leading monomial and replaces the first one that the reference normal
    form changes modulo the others by its monic normal form, or drops it at
    0; ``admissible_in(members)`` gives the admissible test over the whole
    current set.  Adds "drop" and "lm" to ``events`` when a member vanishes
    or its leading monomial changes."""
    polys = list(polys)
    for _ in range(10000):
        polys.sort(key=lambda p: p.ordering.key(p.lm))
        admissible = admissible_in(polys)
        for i, p in enumerate(polys):
            r = reference_normal_form(p, polys[:i] + polys[i + 1:], admissible)
            if r != p:
                if r.is_zero:
                    events.add("drop")
                    del polys[i]
                else:
                    if r.lm != p.lm:
                        events.add("lm")
                    polys[i] = r.monic()
                break
        else:
            return tuple(polys)
    raise RuntimeError("reference interreduction failed to stabilise")


def interreduction_input(rng, ctx, ordering):
    """A random set plus members that share a leading monomial with another,
    that reduce to 0, and whose leading monomial a rewrite changes."""
    F = random_ideal(rng, ctx, ordering)
    f, g = rng.choice(F), rng.choice(F)
    F += [
        f + random_polynomial(rng, ctx, ordering, max_degree=2),
        f + g.scale(rng.choice((1, -2, 3))),
        g.mul_term(rng.randint(1, 3), random_monomial(rng, ctx, 2)) + random_polynomial(rng, ctx, ordering, max_degree=2),
    ]
    rng.shuffle(F)
    return F


@pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_interreduction_matches_reference(division, ordering):
    rng = random.Random(1500 + 10 * list(Division).index(division) + ORDERINGS.index(ordering))
    events, shared_lm = set(), False
    for case in range(30):
        ctx = random_context(rng, max_vars=3)
        F = interreduction_input(rng, ctx, ordering)
        monic = [p.monic() for p in F if not p.is_zero]
        shared_lm |= len({p.lm for p in monic}) < len(monic)
        expected = reference_interreduce(monic, lambda polys: divides, events)
        assert [p.terms for p in autoreduce(F)] == [p.terms for p in expected], case
        expected = reference_interreduce(list(dict.fromkeys(monic)), lambda polys: involutive(polys, division), events)
        assert [p.terms for p in involutive_autoreduce(F, division, ordering)] == [p.terms for p in expected], case
    assert shared_lm and events == {"drop", "lm"}


def test_a_drop_under_a_table_ends_the_round():
    """Under division 1, x*z^2 drops at 0 modulo 1, and only the table
    without it makes z multiplicative for x*y, which then reduces the tail
    x*y*z of 3*x^2*y - x*y*z: a sweep that went on under the old table
    would keep that tail."""
    ctx = VariableContext.of("x", "y", "z")
    ordering = Ordering.DEGREVLEX
    F = [parse_polynomial(t, ctx, ordering) for t in ("x*z^2", "1", "3*x^2*y - x*y*z", "y^2", "x*y")]
    events = set()
    expected = reference_interreduce([p.monic() for p in F], lambda polys: involutive(polys, Division.DIVISION_1), events)
    assert [str(p) for p in expected] == ["1", "y^2", "x*y", "x^2*y"] and events == {"drop"}
    assert involutive_autoreduce(F, Division.DIVISION_1, ordering) == expected


def test_conventional_interreduction_builds_one_index(monkeypatch):
    """With every variable multiplicative the interreduction is one sweep,
    whatever it rewrites: one divisor index per call, through members that
    drop to 0 and members whose leading monomial changes."""
    indexes = []
    real = _Reducers.__init__

    def counted(self, *args):
        indexes.append(self)
        real(self, *args)

    monkeypatch.setattr(_Reducers, "__init__", counted)
    rng = random.Random(1600)
    seen = {"drop": 0, "lm": 0}
    for case in range(60):
        ordering = ORDERINGS[case % 3]
        ctx = random_context(rng, max_vars=3)
        F = interreduction_input(rng, ctx, ordering)
        events = set()
        expected = reference_interreduce([p.monic() for p in F if not p.is_zero], lambda polys: divides, events)
        for event in events:
            seen[event] += 1
        indexes.clear()
        assert [p.terms for p in autoreduce(F)] == [p.terms for p in expected], case
        assert len(indexes) == 1, case
    assert seen["drop"] >= 10 and seen["lm"] >= 10, seen


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = polynomials._nf

    def counted(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(polynomials, "_nf", counted)
    return calls


def test_interreduction_of_a_reduced_set_runs_no_normal_form(kernel_calls):
    ctx = VariableContext.of("x", "y", "z")
    ordering = Ordering.DEGREVLEX
    F = [parse_polynomial(t, ctx, ordering) for t in ("x^2 + y*z - 1", "x*y - z^2 + x", "y^2 - x*z + 2")]
    G = buchberger(F)
    H = involutive_basis(F, Division.JANET, ordering).basis
    kernel_calls.clear()
    assert autoreduce(G) == G
    assert involutive_autoreduce(H, Division.JANET, ordering) == H
    assert len(G) > 1 and len(H) > 1 and kernel_calls == []


def test_interreduction_runs_one_normal_form_for_one_reducible_tail(kernel_calls):
    ctx = VariableContext.of("x", "y", "z")
    ordering = Ordering.DEGLEX
    F = [parse_polynomial(t, ctx, ordering) for t in ("x^2 + y^2 + z", "y^2 - z", "z^2 + 1")]
    expected = tuple(parse_polynomial(t, ctx, ordering) for t in ("z^2 + 1", "y^2 - z", "x^2 + 2*z"))
    assert autoreduce(F) == expected
    assert kernel_calls == [F[0]]
    kernel_calls.clear()
    assert involutive_autoreduce(F, Division.JANET, ordering) == expected
    assert kernel_calls == [F[0]]


# Exponents past the fields of the packing in use: the kernel packs every
# exponent vector into one int with fields 16 bits wide at first, and a
# call that outgrows them runs again on fields twice as wide.

PAST_THE_FIELDS = {
    # an input degree past the fields, reduced by a few steps
    Ordering.DEGLEX: ("x^40000 + x*y", ["x^1000 - y"]),
    Ordering.DEGREVLEX: ("x^40000*y + x^2", ["x^1000 - y^2"]),
    # x - y^20000 rewrites x^2 into x*y^20000 and then y^40000: a product
    # outgrows the fields while the input fits them
    Ordering.LEX: ("x^2 + x*y", ["x - y^20000"]),
}


@pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
def test_kernel_past_the_initial_field_width(monkeypatch, ordering):
    widths = widths_used(monkeypatch)
    ctx = VariableContext.of("x", "y")
    text, reducers = PAST_THE_FIELDS[ordering]
    p = parse_polynomial(text, ctx, ordering)
    F = [parse_polynomial(t, ctx, ordering) for t in reducers]
    got = normal_form(p, F)
    assert got.terms == reference_normal_form(p, F, divides).terms
    assert max(m.degree for m, _ in got.terms) > 2**15 or max(m.degree for m, _ in p.terms) > 2**15
    for division in Division:
        steps, trace = [], []
        expected = reference_normal_form(p, F, involutive(F, division), steps)
        assert involutive_normal_form(p, F, division, ordering, trace).terms == expected.terms, division
        # a run that overflowed and was repeated leaves one trace
        assert trace == steps, division
    assert widths == {16, 32}


@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_lex_reduction_raising_a_later_variable(division):
    """Under lex a tail may have a higher degree than its leading term: the
    rewrites of x and y here raise the exponents of y and z."""
    ctx = VariableContext.of("x", "y", "z")
    ordering = Ordering.LEX

    def P(text):
        return parse_polynomial(text, ctx, ordering)

    F = [P("x - y^3 - 2*z^2"), P("y^2 - z^3 + 1"), P("x*z - y^4")]
    for p in (P("x^3*z + x^2*y - z"), P("x^4 + 3*x*y^2*z"), P("y^5 + x*y")):
        expected = reference_normal_form(p, F, divides)
        assert normal_form(p, F).terms == expected.terms
        assert max(m.exps[2] for m, _ in expected.terms) > max(m.exps[2] for m, _ in p.terms)
        expected = reference_normal_form(p, F, involutive(F, division))
        assert involutive_normal_form(p, F, division, ordering).terms == expected.terms


@pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
def test_computations_that_outgrow_narrow_fields_match(monkeypatch, ordering):
    """Normal forms, autoreduction, Buchberger, Buchberger's test, the
    ideal comparison and both basis algorithms, their logs included, give
    the same answers when every computation starts on fields 3 bits wide,
    which hold degrees up to 3, and most of them run again on wider ones;
    also when the generators come as a one-shot iterator, which the
    repeated run must not find empty."""
    rng = random.Random(1900 + ORDERINGS.index(ordering))
    widened = 0
    for case in range(30):
        ctx = random_context(rng, max_vars=3)
        F = random_ideal(rng, ctx, ordering)
        p = random_polynomial(rng, ctx, ordering, max_degree=6, max_terms=5)
        division = rng.choice(list(Division))

        def answers(given=lambda: F):
            logs = ([], [])
            bases = [algorithm(given(), division, ordering, cap=12, log=log) for algorithm, log in zip((involutive_basis, minimal_involutive_basis), logs)]
            return (
                normal_form(p, F).terms,
                involutive_normal_form(p, given(), division, ordering).terms,
                autoreduce(given()),
                buchberger(given()),
                verify_groebner(given(), ordering),
                verify_groebner(buchberger(given()), ordering),
                same_ideal(given(), F[1:]),
                same_ideal(buchberger(given()), given()),
                [(r.basis, r.status, r.stats) for r in bases],
                logs,
            )

        expected = answers()
        assert expected[0] == reference_normal_form(p, F, divides).terms, case
        widths = widths_used(monkeypatch)
        with starting_width(3):
            assert answers() == expected, case
            assert answers(lambda: iter(F)) == expected, case
        widened += max(widths) > 3
        monkeypatch.undo()
    assert widened >= 20, widened


# S-pairs past the fields: the kernel builds an S-polynomial from the
# packed leading monomials' lcm and the packed tails, each shifted term
# checked against the guard bits.
S_PAIRS_PAST_THE_FIELDS = {
    # both leading monomials fit 16-bit fields, their lcm x^20000*y^20000
    # does not
    Ordering.DEGLEX: ["x^20000*y - 1", "x*y^20000 - 1"],
    # the lcm x*z^20000 fits, but z^20000 times the tail z^20000 of the
    # first does not; z^100 - 1 reduces that term to 0 on wider fields
    Ordering.LEX: ["x - z^20000", "x*z^20000 - 1", "z^100 - 1"],
}


@pytest.mark.parametrize("ordering", list(S_PAIRS_PAST_THE_FIELDS), ids=lambda o: o.value)
def test_s_pairs_past_the_initial_field_width(monkeypatch, ordering):
    ctx = VariableContext.of("x", "y", "z")
    F = [parse_polynomial(t, ctx, ordering) for t in S_PAIRS_PAST_THE_FIELDS[ordering]]
    widths = widths_used(monkeypatch)
    s = s_polynomial(F[0], F[1])
    assert s.terms == reference_s_polynomial(F[0], F[1]).terms
    assert max(F[0].lm.lcm(F[1].lm).degree, *(m.degree for m, _ in s.terms)) > 2**15
    assert max(m.degree for f in F for m, _ in f.terms) < 2**15
    G = buchberger(F)
    assert verify_groebner(G, ordering)
    assert verify_groebner(F, ordering) == (ordering is Ordering.LEX)
    assert same_ideal(F, G) and same_ideal(G, F)
    assert all(normal_form(f, G).is_zero for f in F)
    assert widths == {16, 32}
