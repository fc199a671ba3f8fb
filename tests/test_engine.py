import random
from fractions import Fraction

import pytest

from involutive import (
    ContextMismatch,
    Division,
    Ordering,
    Polynomial,
    Triple,
    VariableContext,
    buchberger,
    criterion,
    involutive_autoreduce,
    involutive_basis,
    involutive_normal_form,
    minimal_involutive_basis,
    minimal_monomial_completion,
    multiplicative_table,
    nf_equality_check,
    normal_form,
    parse_polynomial,
    partition,
    same_ideal,
    verify_groebner,
    verify_involutive,
)

from conftest import random_context, random_ideal, random_polynomial

CTX2 = VariableContext.of("x", "y")
CTX3 = VariableContext.of("x", "y", "z")


def _p2(text, ordering=Ordering.DEGLEX):
    return parse_polynomial(text, CTX2, ordering)


def _p3(text, ordering=Ordering.DEGLEX):
    return parse_polynomial(text, CTX3, ordering)


def _mono_polys(ctx, ordering, exps):
    return [Polynomial.from_monomial(ctx.monomial(e), ordering) for e in exps]


EX9 = tuple(_p2(t, Ordering.LEX) for t in ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1"))
EX9_FULL = (
    "x - 1",
    "y - 1",
    "y^2 - 1",
    "x*y - 1",
    "y^3 - 1",
    "x^2 - 1",
    "x*y^2 - 1",
    "y^4 - 1",
    "x^2*y - 1",
)


def test_involutive_nf_restricted_to_multiplicative_steps():
    # Under Pommaret x is nonmultiplicative for y, so x*y cannot be
    # reduced by y - 1 even though it is conventionally reducible.
    f = _p2("y - 1")
    p = _p2("x*y")
    nf_p = involutive_normal_form(p, [f], Division.POMMARET, Ordering.DEGLEX)
    assert nf_p == p
    nf_c = normal_form(p, [f])
    assert nf_c == _p2("x")
    # Janet on the singleton set makes every variable multiplicative.
    nf_j = involutive_normal_form(p, [f], Division.JANET, Ordering.DEGLEX)
    assert nf_j == _p2("x")


def test_involutive_nf_rejects_other_contexts():
    # the kernel zips exponent tuples, so a reducer from another context
    # would be cut short or misread instead of rejected
    p = _p2("x^2 + y")
    for F in ([parse_polynomial("u - 1", VariableContext.of("u", "v"), Ordering.DEGLEX)], [_p3("x*z - 1")]):
        with pytest.raises(ContextMismatch):
            normal_form(p, F)
        for division in Division:
            with pytest.raises(ContextMismatch):
                involutive_normal_form(p, F, division, Ordering.DEGLEX)


def test_involutive_autoreduce_of_nothing_is_empty():
    for division in Division:
        assert involutive_autoreduce([], division, Ordering.DEGLEX) == ()
        assert involutive_autoreduce([_p2("0")], division, Ordering.DEGLEX) == ()


def test_entry_points_reject_mixed_contexts():
    other = VariableContext.of("u", "v")
    mixed = [_p2("x - 1"), parse_polynomial("u - 1", other, Ordering.DEGLEX)]
    for division in Division:
        with pytest.raises(ContextMismatch):
            verify_involutive(mixed, division, Ordering.DEGLEX)
        with pytest.raises(ContextMismatch):
            involutive_autoreduce(mixed, division, Ordering.DEGLEX)
        for algorithm in (involutive_basis, minimal_involutive_basis):
            with pytest.raises(ContextMismatch):
                algorithm(mixed, division, Ordering.DEGLEX)
        # no member of T divides lm(g), so only the context check can tell
        T = [Triple(parse_polynomial("u^2", other, Ordering.DEGLEX), other.monomial((2, 0)), 0)]
        with pytest.raises(ContextMismatch):
            criterion(_p2("x*y"), CTX2.monomial((1, 1)), T, division, Ordering.DEGLEX)
        # an ancestor from another context, which truncation once let
        # through: x*z^5 read as x, so the lcm x*y fell below x^2*y
        T = [Triple(_p2("x*y - 1"), CTX2.monomial((1, 1)), 0)]
        with pytest.raises(ContextMismatch):
            criterion(_p2("x^2*y - 1"), CTX3.monomial((1, 0, 5)), T, division, Ordering.DEGLEX)
        T = [Triple(_p2("x*y - 1"), CTX3.monomial((1, 1, 0)), 0)]
        with pytest.raises(ContextMismatch):
            criterion(_p2("x^2*y - 1"), CTX2.monomial((2, 1)), T, division, Ordering.DEGLEX)
        # the ancestor x it was read as fires wherever x*y covers x^2*y
        T = [Triple(_p2("x*y - 1"), CTX2.monomial((1, 1)), 0)]
        assert criterion(_p2("x^2*y - 1"), CTX2.monomial((1, 0)), T, division, Ordering.DEGLEX) == (division is not Division.POMMARET)
    with pytest.raises(ContextMismatch):
        same_ideal([_p2("x - 1")], [parse_polynomial("u - 1", other, Ordering.DEGLEX)])


def test_involutive_nf_golden_trace():
    F = [_p2("x^2 - y"), _p2("y^2 - 1")]
    p = _p2("x^2*y^2 + x")
    trace = []
    nf = involutive_normal_form(p, F, Division.JANET, Ordering.DEGLEX, trace=trace)
    assert nf == _p2("x + y")
    # p equals its normal form plus the traced multiplicative multiples.
    acc = nf
    for f, v, factor in trace:
        acc = acc + f.mul_term(factor, v)
        mult = partition(Division.JANET, f.lm, [g.lm for g in F]).multiplicative
        assert set(v.variables()) <= mult
    assert acc == p


def test_involutive_nf_every_term_irreducible():
    rng = random.Random(61)
    for _ in range(60):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        F = involutive_autoreduce(random_ideal(rng, ctx, ordering, 3, 2), Division.JANET, ordering)
        p = random_polynomial(rng, ctx, ordering)
        nf = involutive_normal_form(p, F, Division.JANET, ordering)
        lms = [f.lm for f in F]
        table = {u: partition(Division.JANET, u, lms).multiplicative for u in lms}
        for m, _ in nf.terms:
            for f in F:
                if f.lm.divides(m):
                    quotient = m / f.lm
                    assert not set(quotient.variables()) <= table[f.lm]


def test_involutive_autoreduce_keeps_thomas_cone_gaps():
    # x^2 conventionally divides x^2*y but not involutively under Thomas
    # or Janet, so both elements survive involutive autoreduction there.
    F = _mono_polys(CTX2, Ordering.DEGLEX, [(2, 0), (2, 1)])
    for division in (Division.THOMAS, Division.JANET):
        reduced = involutive_autoreduce(F, division, Ordering.DEGLEX)
        assert sorted(str(p) for p in reduced) == ["x^2", "x^2*y"]
    # Under Pommaret y is multiplicative for x^2 and the pair collapses.
    reduced_p = involutive_autoreduce(F, Division.POMMARET, Ordering.DEGLEX)
    assert [str(p) for p in reduced_p] == ["x^2"]


def test_involutive_autoreduce_is_fixed_point():
    rng = random.Random(62)
    for _ in range(50):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        F = random_ideal(rng, ctx, ordering, 3, 2)
        for division in Division:
            G = involutive_autoreduce(F, division, ordering)
            assert involutive_autoreduce(G, division, ordering) == G
            lms = [g.lm for g in G]
            assert len(set(lms)) == len(lms)


def test_criterion_golden():
    t = Triple(_p2("x - 1"), CTX2.monomial((1, 0)), 0)
    g_skip = _p2("x^2*y - 1")
    assert criterion(g_skip, CTX2.monomial((2, 0)), [t], Division.JANET, Ordering.DEGLEX)
    # lcm(ancestor, v) equal to lm(g) blocks the shortcut.
    assert not criterion(g_skip, g_skip.lm, [t], Division.JANET, Ordering.DEGLEX)
    assert not criterion(g_skip, CTX2.monomial((2, 0)), [], Division.JANET, Ordering.DEGLEX)


def test_criterion_reads_leading_monomials_under_its_ordering():
    # lm(x + y^2) is y^2 under deglex, which y covers, but x under lex,
    # which nothing covers
    g, y = _p2("x + y^2"), CTX2.monomial((0, 1))
    T = [Triple(_p2("y"), y, 0)]
    assert criterion(g, y, T, Division.JANET, Ordering.DEGLEX)
    assert not criterion(g, y, T, Division.JANET, Ordering.LEX)
    # under lex, x*y is the Janet divisor of x^2*y among {x, x*y}, and the
    # test reads its triple's ancestor, not the other's
    g, u = _p2("x^2*y + y^4"), CTX2.monomial((1, 0))
    x, xy, x2y = CTX2.monomial((1, 0)), CTX2.monomial((1, 1)), CTX2.monomial((2, 1))
    T = [Triple(_p2("x + y^2"), x2y, 0), Triple(_p2("x*y"), xy, 1)]
    assert criterion(g, u, T, Division.JANET, Ordering.LEX)
    T = [Triple(_p2("x + y^2"), x, 0), Triple(_p2("x*y"), x2y, 1)]
    assert not criterion(g, u, T, Division.JANET, Ordering.LEX)


def test_involutive_basis_reproduces_nine_element_janet_basis():
    result = involutive_basis(list(EX9), Division.JANET, Ordering.LEX)
    assert result.status == "complete"
    assert sorted(str(p) for p in result.basis) == sorted(EX9_FULL)
    check = verify_involutive(result.basis, Division.JANET, Ordering.LEX)
    assert check.ok, check.reason


def test_minimal_basis_is_reduced_groebner_basis_here():
    result = minimal_involutive_basis(list(EX9), Division.JANET, Ordering.LEX)
    assert result.status == "complete"
    assert [str(p) for p in result.basis] == ["y - 1", "x - 1"]
    assert list(result.basis) == list(buchberger(list(EX9), Ordering.LEX))


def test_minimal_basis_on_monomial_input_matches_completion():
    for division in (Division.THOMAS, Division.JANET, Division.DIVISION_1, Division.DIVISION_2):
        completion = minimal_monomial_completion(
            division, [CTX3.monomial(e) for e in ((2, 0, 0), (1, 1, 0), (0, 0, 1))]
        )
        F = _mono_polys(CTX3, Ordering.DEGLEX, [(2, 0, 0), (1, 1, 0), (0, 0, 1)])
        result = minimal_involutive_basis(F, division, Ordering.DEGLEX)
        assert result.status == "complete"
        assert tuple(p.lm for p in result.basis) == completion.basis, division


def test_basis_stats_and_cap():
    F = _mono_polys(CTX3, Ordering.DEGLEX, [(2, 0, 0), (1, 1, 0), (0, 0, 1)])
    result = involutive_basis(F, Division.POMMARET, Ordering.DEGLEX, cap=40)
    assert result.status == "cap_exceeded"
    s = result.stats
    assert s.zero_reductions + s.nonzero_reductions == 40
    assert s.prolongations_examined >= 40


def test_unit_ideal_collapses_to_one():
    result = involutive_basis([_p2("x - 1"), _p2("x")], Division.JANET, Ordering.DEGLEX)
    assert result.status == "complete"
    assert [str(p) for p in result.basis] == ["1"]
    resultm = minimal_involutive_basis([_p2("x - 1"), _p2("x")], Division.JANET, Ordering.DEGLEX)
    assert [str(p) for p in resultm.basis] == ["1"]


def test_negative_cap_rejected():
    # a negative cap is no cap, as a negative degree bound is no bound;
    # cap 0 stays a valid cap that stops before the first reduction
    F = [_p2("x^2*y - 1"), _p2("x*y^2 - 1")]
    for complete in (involutive_basis, minimal_involutive_basis):
        with pytest.raises(ValueError, match="cap"):
            complete(F, Division.JANET, Ordering.DEGLEX, cap=-1)
        assert complete(F, Division.JANET, Ordering.DEGLEX, cap=0).status == "cap_exceeded"


def test_zero_input_rejected():
    with pytest.raises(ValueError):
        involutive_basis([Polynomial.zero(CTX2, Ordering.DEGLEX)], Division.JANET, Ordering.DEGLEX)
    with pytest.raises(ValueError):
        minimal_involutive_basis([], Division.JANET, Ordering.DEGLEX)


def test_verify_involutive_witnesses():
    staircase = _mono_polys(CTX3, Ordering.DEGLEX, [(2, 0, 0), (1, 1, 0), (0, 0, 1)])
    report = verify_involutive(staircase, Division.JANET, Ordering.DEGLEX)
    assert not report.ok
    assert report.reason == "uncovered non-multiplicative prolongation"
    f, x = report.witness
    assert str(f.lm) == "z" and x == 0
    completed = staircase + [Polynomial.from_monomial(CTX3.monomial((1, 0, 1)), Ordering.DEGLEX)]
    assert verify_involutive(completed, Division.JANET, Ordering.DEGLEX).ok
    assert verify_involutive(completed, Division.JANET, Ordering.DEGLEX, mode="global", degree_bound=4).ok
    assert not verify_involutive([], Division.JANET, Ordering.DEGLEX).ok
    with pytest.raises(ValueError):
        verify_involutive(completed, Division.JANET, Ordering.DEGLEX, mode="sideways")


def reference_witness(polys, division, ordering):
    """The lowest failing prolongation (f, x) by a scan over all of them,
    ties by the lower leading monomial of f; None when none fails."""
    table = multiplicative_table(division, [p.lm for p in polys])
    failing = [
        (f, x)
        for f in polys
        for x in range(f.ctx.n)
        if x not in table[f.lm] and not involutive_normal_form(f.mul_var(x), polys, division, ordering).is_zero
    ]
    return min(failing, key=lambda p: (ordering.key(p[0].lm.mul_var(p[1])), ordering.key(p[0].lm)), default=None)


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_verify_involutive_witness_matches_scan(ordering):
    # involutively autoreduced random sets, most of them not involutive
    rng = random.Random(2300 + list(Ordering).index(ordering))
    failures = 0
    for case in range(30):
        ctx = random_context(rng, max_vars=3)
        F = random_ideal(rng, ctx, ordering)
        for division in Division:
            polys = list(involutive_autoreduce(F, division, ordering))
            report = verify_involutive(polys, division, ordering)
            want = reference_witness(polys, division, ordering)
            assert report.ok == (want is None), (case, division)
            if want is not None:
                failures += 1
                assert report.reason == "uncovered non-multiplicative prolongation"
                assert report.witness == want, (case, division)
    assert failures > 60, failures


def test_verify_involutive_rejects_bad_arguments():
    # the arguments are checked before the basis, so an empty one does not
    # hide them, and a negative bound is no bound
    with pytest.raises(ValueError, match="mode"):
        verify_involutive([], Division.JANET, Ordering.DEGLEX, mode="bogus")
    staircase = _mono_polys(CTX3, Ordering.DEGLEX, [(2, 0, 0), (1, 1, 0), (0, 0, 1)])
    for mode in ("local", "global"):
        with pytest.raises(ValueError, match="degree bound"):
            verify_involutive(staircase, Division.JANET, Ordering.DEGLEX, mode=mode, degree_bound=-3)
        with pytest.raises(ValueError, match="degree bound"):
            verify_involutive([], Division.JANET, Ordering.DEGLEX, mode=mode, degree_bound=-1)
    assert verify_involutive(staircase[:1], Division.JANET, Ordering.DEGLEX, mode="global", degree_bound=0).ok


def test_verify_involutive_rejects_non_autoreduced():
    report = verify_involutive([_p2("x^2"), _p2("x^2 + y")], Division.JANET, Ordering.DEGLEX)
    assert not report.ok
    assert "duplicate" in report.reason


def test_verify_groebner():
    assert verify_groebner([_p2("x - 1", Ordering.LEX), _p2("y - 1", Ordering.LEX)], Ordering.LEX)
    assert not verify_groebner([EX9[0], EX9[1]], Ordering.LEX)
    assert not verify_groebner([], Ordering.LEX)


def test_nf_equality_check_on_involutive_basis():
    result = involutive_basis(list(EX9), Division.JANET, Ordering.LEX)
    rng = random.Random(63)
    for _ in range(30):
        p = random_polynomial(rng, CTX2, Ordering.LEX)
        assert nf_equality_check(p, list(result.basis), Division.JANET, Ordering.LEX)


def test_nf_reducer_order_invariance_and_additivity():
    rng = random.Random(64)
    for division in Division:
        for _ in range(40):
            ctx = random_context(rng, 3)
            ordering = rng.choice(list(Ordering))
            F = involutive_autoreduce(random_ideal(rng, ctx, ordering, 3, 2), division, ordering)
            shuffled = list(F)
            rng.shuffle(shuffled)
            p = random_polynomial(rng, ctx, ordering)
            q = random_polynomial(rng, ctx, ordering)
            nf_p = involutive_normal_form(p, F, division, ordering)
            assert involutive_normal_form(p, shuffled, division, ordering) == nf_p
            nf_q = involutive_normal_form(q, F, division, ordering)
            assert involutive_normal_form(p + q, F, division, ordering) == nf_p + nf_q
            assert involutive_normal_form(p.scale(Fraction(-3, 7)), F, division, ordering) == nf_p.scale(
                Fraction(-3, 7)
            )


def test_criterion_skips_are_sound_in_test_mode():
    result = involutive_basis(list(EX9), Division.JANET, Ordering.LEX, check_criterion=True)
    assert result.stats.criterion_hits > 0
    assert result.stats.criterion_checked == result.stats.criterion_hits
    assert result.stats.criterion_violations == 0


def test_algorithms_agree_with_buchberger_oracle():
    rng = random.Random(65)
    for _ in range(25):
        ctx = random_context(rng, 2)
        ordering = rng.choice([Ordering.DEGLEX, Ordering.DEGREVLEX])
        F = random_ideal(rng, ctx, ordering, 3, 2)
        gb = buchberger(F, ordering)
        for division in (Division.JANET, Division.DIVISION_2):
            result = minimal_involutive_basis(F, division, ordering, cap=2000)
            assert result.status == "complete"
            assert buchberger(list(result.basis), ordering) == gb
            assert verify_involutive(result.basis, division, ordering).ok


def test_basis_output_sorted_ascending_and_monic():
    result = involutive_basis(list(EX9), Division.JANET, Ordering.LEX)
    keys = [Ordering.LEX.key(p.lm) for p in result.basis]
    assert keys == sorted(keys)
    assert all(p.lc == 1 for p in result.basis)
