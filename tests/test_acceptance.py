"""Acceptance gate: one test per numbered delivery criterion.

Each test states its own tolerance (exact equality unless noted) and any
runtime budget.  Randomized corpora are seeded and shared across criteria
that must agree on the same inputs.
"""
from fractions import Fraction
import random
import time

from involutive import (
    Division,
    Ordering,
    VariableContext,
    buchberger,
    check_division_axioms,
    involutive_autoreduce,
    involutive_basis,
    involutive_normal_form,
    minimal_involutive_basis,
    minimal_monomial_completion,
    nf_equality_check,
    parse_monomial,
    parse_polynomial,
    partition,
    same_ideal,
    verify_groebner,
)
from involutive.bench import run_bench

from conftest import (
    random_context,
    random_ideal,
    random_monomial_set,
    random_polynomial,
    zero_dimensional_ideal,
)

# divisions with only finite completions; Pommaret bases can be infinite
NOETHERIAN = (Division.THOMAS, Division.JANET, Division.DIVISION_1, Division.DIVISION_2)

XYZ = VariableContext.of("x", "y", "z")
STAIRCASE = tuple(parse_monomial(s, XYZ) for s in ("x^2", "x*y", "z"))


def _shared_monomial_sets():
    rng = random.Random(700)
    sets = []
    for _ in range(500):
        ctx = random_context(rng)
        sets.append(random_monomial_set(rng, ctx))
    return sets


_AXIOM_SETS = _shared_monomial_sets()


def test_criterion_01_partition_table_staircase():
    # 15 cells: 5 divisions x 3 members, exact set equality, under 1 s
    expected = {
        (Division.THOMAS, "x^2"): {"x"},
        (Division.THOMAS, "x*y"): {"y"},
        (Division.THOMAS, "z"): {"z"},
        (Division.JANET, "x^2"): {"x", "y", "z"},
        (Division.JANET, "x*y"): {"y", "z"},
        (Division.JANET, "z"): {"y", "z"},
        (Division.POMMARET, "x^2"): {"x", "y", "z"},
        (Division.POMMARET, "x*y"): {"y", "z"},
        (Division.POMMARET, "z"): {"z"},
        (Division.DIVISION_1, "x^2"): {"x"},
        (Division.DIVISION_1, "x*y"): {"y"},
        (Division.DIVISION_1, "z"): {"y", "z"},
        (Division.DIVISION_2, "x^2"): {"x"},
        (Division.DIVISION_2, "x*y"): {"x", "y"},
        (Division.DIVISION_2, "z"): {"z"},
    }
    t0 = time.perf_counter()
    for (division, name), cell in expected.items():
        u = parse_monomial(name, XYZ)
        part = partition(division, u, STAIRCASE)
        assert {XYZ.names[i] for i in part.multiplicative} == cell, (division, name)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_staircase_completions():
    # four finite completions match the frozen sets exactly; the Pommaret
    # run hits its cap; with variables reordered z, x, y the set is already
    # Pommaret involutive; all under 1 s total
    expected = {
        Division.THOMAS: {"x^2", "x*y", "z", "x*z", "y*z", "x^2*y", "x*y*z", "x^2*z", "x^2*y*z"},
        Division.JANET: {"x^2", "x*y", "z", "x*z"},
        Division.DIVISION_1: {"x^2", "x*y", "z", "x*z", "x^2*y", "x*y*z", "x^2*z", "x^2*y*z"},
        Division.DIVISION_2: {"x^2", "x*y", "z", "x*z", "y*z", "x*y*z"},
    }
    t0 = time.perf_counter()
    for division, names in expected.items():
        r = minimal_monomial_completion(division, STAIRCASE)
        assert r.status == "complete"
        assert {str(m) for m in r.basis} == names, division
    capped = minimal_monomial_completion(Division.POMMARET, STAIRCASE, cap=50)
    assert capped.status == "cap_exceeded"
    zxy = VariableContext.of("z", "x", "y")
    reordered = tuple(parse_monomial(s, zxy) for s in ("x^2", "x*y", "z"))
    r = minimal_monomial_completion(Division.POMMARET, reordered)
    assert r.status == "complete"
    assert r.steps == 0
    assert set(r.basis) == set(reordered)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_corner_completion_first_step():
    # Pommaret completion of {x^2, x*z, y} adds exactly x*y, and the first
    # prolongation treated is y multiplied by x; under 1 s
    U = tuple(parse_monomial(s, XYZ) for s in ("x^2", "x*z", "y"))
    t0 = time.perf_counter()
    r = minimal_monomial_completion(Division.POMMARET, U)
    assert r.status == "complete"
    assert {str(m) for m in r.basis} == {"x^2", "x*y", "x*z", "y"}
    assert str(r.log[0].source) == "y"
    assert r.log[0].variable == 0
    assert str(r.log[0].product) == "x*y"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_binomial_lex_bases():
    # Janet basis of the lex binomial ideal has the frozen 9 leading
    # monomials; the minimal basis and the Groebner oracle both collapse to
    # {x - 1, y - 1}; under 1 s
    ctx = VariableContext.of("x", "y")
    ordering = Ordering.LEX
    F = [parse_polynomial(s, ctx, ordering) for s in ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1")]
    t0 = time.perf_counter()
    inv = involutive_basis(F, Division.JANET, ordering)
    assert inv.status == "complete"
    assert len(inv.basis) == 9
    assert {str(p.lm) for p in inv.basis} == {"x^2*y", "x^2", "x*y^2", "x*y", "x", "y^4", "y^3", "y^2", "y"}
    mini = minimal_involutive_basis(F, Division.JANET, ordering)
    assert mini.status == "complete"
    assert [str(p) for p in mini.basis] == ["y - 1", "x - 1"]
    gb = buchberger(F, ordering)
    assert tuple(mini.basis) == gb
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_bases_generate_input_ideal():
    # 200 randomized inputs (at most 3 variables, 4 generators, total degree
    # 3, integer coefficients in [-5, 5]); every run that completes within
    # cap 20000 must generate the same ideal, pass the S-polynomial test,
    # and agree with the conventional normal form on 20 probes; zero
    # failures allowed
    rng = random.Random(500)
    completed = 0
    for case in range(200):
        ctx = random_context(rng, max_vars=3)
        ordering = rng.choice((Ordering.DEGLEX, Ordering.DEGREVLEX))
        F = zero_dimensional_ideal(rng, ctx, ordering)
        probes = [random_polynomial(rng, ctx, ordering) for _ in range(20)]
        for division in Division:
            for fn in (involutive_basis, minimal_involutive_basis):
                r = fn(F, division, ordering, cap=20000)
                if r.status != "complete":
                    continue
                completed += 1
                assert same_ideal(r.basis, F, ordering), (case, division, fn.__name__)
                assert verify_groebner(r.basis, ordering), (case, division, fn.__name__)
                for p in probes:
                    assert nf_equality_check(p, r.basis, division, ordering), (case, division, fn.__name__)
    # the corpus is built so even the non-noetherian division terminates
    assert completed == 200 * len(Division) * 2


def _transformed_generators(rng: random.Random, F: list) -> list:
    # invertible row operations: nonzero rescales, adding a rational
    # multiple of another generator, and reordering
    G = list(F)
    for i in range(len(G)):
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        G[i] = G[i].scale(c)
    if len(G) > 1:
        for _ in range(2 * len(G)):
            i = rng.randrange(len(G))
            j = rng.randrange(len(G))
            if i == j:
                continue
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            cand = G[i] + G[j].scale(c)
            if not cand.is_zero:
                G[i] = cand
    rng.shuffle(G)
    return G


def test_criterion_06_minimal_basis_unique_per_ideal():
    # 50 ideals, each presented by two generating sets related by invertible
    # rational row combinations: the minimal bases must render to identical
    # bytes for every noetherian division
    rng = random.Random(600)
    for case in range(50):
        ctx = random_context(rng, max_vars=3)
        ordering = rng.choice((Ordering.DEGLEX, Ordering.DEGREVLEX))
        F = random_ideal(rng, ctx, ordering)
        G = _transformed_generators(rng, F)
        for division in NOETHERIAN:
            a = minimal_involutive_basis(F, division, ordering, cap=20000)
            b = minimal_involutive_basis(G, division, ordering, cap=20000)
            assert a.status == "complete" and b.status == "complete", (case, division)
            assert [str(p) for p in a.basis] == [str(p) for p in b.basis], (case, division)


def test_criterion_07_division_axioms_random_sets():
    # 500 randomized sets (size <= 6, up to 4 variables, degrees <= 5):
    # axioms (a)-(d) hold for all five divisions with probes exhausted to
    # max degree + 3; zero violations
    for U in _AXIOM_SETS:
        bound = max(u.degree for u in U) + 3
        for division in Division:
            report = check_division_axioms(division, U, bound)
            assert report.ok, (division, [str(u) for u in U], report.violations)


def test_criterion_08_thomas_inside_division1():
    # on the same 500 sets the Thomas multiplicative variables are always a
    # subset of the Division I ones
    for U in _AXIOM_SETS:
        for u in U:
            thomas = partition(Division.THOMAS, u, U).multiplicative
            div1 = partition(Division.DIVISION_1, u, U).multiplicative
            assert thomas <= div1, (str(u), [str(v) for v in U])


def test_criterion_09_normal_form_order_free_and_additive():
    # 200 cases per division: the involutive normal form against an
    # involutively autoreduced set does not depend on reducer order and is
    # additive; zero violations
    for division in Division:
        rng = random.Random(900 + list(Division).index(division))
        for case in range(200):
            ctx = random_context(rng, max_vars=3)
            ordering = rng.choice((Ordering.LEX, Ordering.DEGLEX, Ordering.DEGREVLEX))
            F = list(involutive_autoreduce(random_ideal(rng, ctx, ordering), division, ordering))
            p = random_polynomial(rng, ctx, ordering)
            q = random_polynomial(rng, ctx, ordering)
            nf_p = involutive_normal_form(p, F, division, ordering)
            nf_q = involutive_normal_form(q, F, division, ordering)
            for _ in range(3):
                shuffled = list(F)
                rng.shuffle(shuffled)
                assert involutive_normal_form(p, shuffled, division, ordering) == nf_p, (case, division)
            assert involutive_normal_form(p + q, F, division, ordering) == nf_p + nf_q, (case, division)


def test_criterion_10_skip_criterion_sound():
    # every prolongation skipped by the chain criterion is re-reduced in
    # test mode and must vanish: 100% of the skips across the corpus
    checked = 0
    violations = 0
    ctx2 = VariableContext.of("x", "y")
    binomials = [parse_polynomial(s, ctx2, Ordering.LEX) for s in ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1")]
    for fn in (involutive_basis, minimal_involutive_basis):
        r = fn(binomials, Division.JANET, Ordering.LEX, check_criterion=True)
        checked += r.stats.criterion_checked
        violations += r.stats.criterion_violations
    rng = random.Random(1000)
    for case in range(60):
        ctx = random_context(rng, max_vars=3)
        ordering = rng.choice((Ordering.DEGLEX, Ordering.DEGREVLEX))
        F = zero_dimensional_ideal(rng, ctx, ordering)
        for division in Division:
            for fn in (involutive_basis, minimal_involutive_basis):
                r = fn(F, division, ordering, cap=20000, check_criterion=True)
                checked += r.stats.criterion_checked
                violations += r.stats.criterion_violations
    assert checked > 0
    assert violations == 0


def test_criterion_11_minimal_basis_from_groebner_input():
    # 50 cases per noetherian division: completing the reduced Groebner
    # basis with the plain algorithm equals the minimal basis of the
    # original generators whenever both runs complete; zero failures
    for division in NOETHERIAN:
        rng = random.Random(1100 + list(Division).index(division))
        compared = 0
        for case in range(50):
            ctx = random_context(rng, max_vars=3)
            ordering = rng.choice((Ordering.DEGLEX, Ordering.DEGREVLEX))
            F = random_ideal(rng, ctx, ordering)
            gb = buchberger(F, ordering)
            a = involutive_basis(gb, division, ordering, cap=20000)
            b = minimal_involutive_basis(F, division, ordering, cap=20000)
            if a.status != "complete" or b.status != "complete":
                continue
            compared += 1
            assert a.basis == b.basis, (case, division)
        assert compared >= 50


def test_criterion_12_bench_corpus_under_budget():
    # the bench harness must run the whole built-in corpus end to end in
    # under 10 s
    t0 = time.perf_counter()
    rows = run_bench(cap=1000)
    elapsed = time.perf_counter() - t0
    assert rows
    assert elapsed < 10.0
