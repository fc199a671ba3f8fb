"""Buchberger's test with the two criteria against the all-pairs test.

``verify_groebner`` reduces only the pairs that the oracle's critical-pair
stream yields; the references here reduce every pair and build each
S-polynomial by monomial multiplication and subtraction.  The corpus holds
involutive and minimal bases under every division and ordering, Buchberger's
outputs, and each of those with one member dropped or one tail coefficient
changed, so it has both outcomes.
"""
import random
from fractions import Fraction

import pytest

from involutive import Division, Ordering, Polynomial, VariableContext, buchberger, parse_polynomial, polynomials, s_polynomial
from involutive.cli import main
from involutive.engine import involutive_basis, minimal_involutive_basis, verify_groebner
from involutive.monomials import ContextMismatch
from involutive.polynomials import _all_variables, _coerce, _nf, _Pairs, _Reducers

from conftest import mix_generators, zero_dimensional_ideal


def reference_s_polynomial(f, g):
    w = f.lm.lcm(g.lm)
    return f.mul_term(1 / f.lc, w / f.lm) - g.mul_term(1 / g.lc, w / g.lm)


def reference_verify_groebner(G, ordering):
    """Buchberger's test on every pair: each S-polynomial reduces to zero."""
    polys = _coerce(G, ordering)
    if not polys:
        return False
    reducers = _Reducers(polys, _all_variables(p.lm for p in polys), ordering)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not _nf(reference_s_polynomial(polys[i], polys[j]), reducers).is_zero:
                return False
    return True


def _variants(rng, polys):
    """The set itself, the set without one member, and the set with one
    tail coefficient of one member changed."""
    out = [polys]
    if len(polys) > 1:
        k = rng.randrange(len(polys))
        out.append(polys[:k] + polys[k + 1 :])
    with_tail = [k for k, p in enumerate(polys) if p.tail]
    if with_tail:
        k = rng.choice(with_tail)
        p = polys[k]
        t = rng.randrange(1, len(p.terms))
        m, c = p.terms[t]
        # the coefficient moves, never to zero
        bumped = p + Polynomial.from_monomial(m, p.ordering, 1 if c != -1 else 2)
        out.append(polys[:k] + [bumped] + polys[k + 1 :])
    return out


@pytest.fixture(scope="module")
def corpus():
    """(ordering, polynomials) cases; the completions run with cap 24, and
    a capped output is a case too."""
    rng = random.Random(5)
    cases = []
    for k in range(6):
        ctx = VariableContext.of(*"xyz"[: 2 + k % 2])
        F = mix_generators(rng, ctx, zero_dimensional_ideal(rng, ctx, Ordering.DEGLEX))
        for ordering in Ordering:
            G = [f.with_ordering(ordering) for f in F]
            bases = [list(buchberger(G))]
            for division in Division:
                for algorithm in (involutive_basis, minimal_involutive_basis):
                    bases.append(list(algorithm(G, division, ordering, cap=24).basis))
            for basis in bases:
                cases.extend((ordering, variant) for variant in _variants(rng, basis))
    return tuple(cases)


def test_verify_groebner_matches_all_pairs_reference(corpus):
    outcomes = []
    for ordering, polys in corpus:
        want = reference_verify_groebner(polys, ordering)
        assert verify_groebner(polys, ordering) == want, (ordering, [str(p) for p in polys])
        outcomes.append(want)
    assert outcomes.count(True) >= 100
    assert outcomes.count(False) >= 100


def test_corpus_exercises_both_criteria(corpus):
    coprime = chain = 0
    for ordering, polys in corpus:
        lms = [p.lm.exps for p in _coerce(polys, ordering)]
        pairs = _Pairs(ordering)
        for e in lms:
            pairs.add(e)
        yielded = len(list(pairs))
        disjoint = sum(not any(map(min, a, b)) for k, a in enumerate(lms) for b in lms[k + 1 :])
        coprime += disjoint
        chain += len(lms) * (len(lms) - 1) // 2 - disjoint - yielded
    assert coprime >= 100
    assert chain >= 1000


def test_s_polynomial_matches_reference_construction(corpus):
    # every ordered pair of members of a case, each distinct pair once;
    # (f, f) included, and non-monic members whose leading monomials equal
    # those of monic ones
    pairs = {}
    for ordering, polys in corpus:
        members = polys + [p.scale(Fraction(-3, 2)) for p in polys[:2]]
        pairs.update(((ordering, f, g), None) for f in members for g in members)
    for _, f, g in pairs:
        s, want = s_polynomial(f, g), reference_s_polynomial(f, g)
        assert s.terms == want.terms
        assert s.ordering is want.ordering and s.ctx == want.ctx
    assert len(pairs) >= 10000


def test_s_polynomial_errors():
    ctx = VariableContext.of("x", "y")
    f = parse_polynomial("2*x*y - y", ctx, Ordering.DEGLEX)
    assert s_polynomial(f, f).is_zero
    with pytest.raises(ValueError):
        s_polynomial(f, Polynomial.zero(ctx, Ordering.DEGLEX))
    with pytest.raises(ValueError):
        s_polynomial(Polynomial.zero(ctx, Ordering.DEGLEX), f)
    with pytest.raises(ValueError):
        s_polynomial(f, f.with_ordering(Ordering.LEX))
    with pytest.raises(ContextMismatch):
        s_polynomial(f, parse_polynomial("x*z", VariableContext.of("x", "z"), Ordering.DEGLEX))


def _cyclic(n):
    names = [f"x{i}" for i in range(n)]
    lines = [" + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n)) for k in range(1, n)]
    ctx = VariableContext.of(*names)
    return ctx, [parse_polynomial(t, ctx, Ordering.DEGREVLEX) for t in lines + ["*".join(names) + " - 1"]]


def test_verify_groebner_work_on_cyclic5(monkeypatch):
    # the Janet involutive basis of cyclic-5 has 52 members and 1,326 pairs;
    # the criteria leave fewer than a tenth of them to the normal form
    ctx, F = _cyclic(5)
    basis = involutive_basis(F, Division.JANET, Ordering.DEGREVLEX).basis
    assert len(basis) == 52
    calls = []
    real = polynomials._nf

    def counting(p, reducers, trace=None):
        calls.append(p)
        return real(p, reducers, trace)

    monkeypatch.setattr(polynomials, "_nf", counting)
    assert verify_groebner(basis, Ordering.DEGREVLEX)
    assert len(calls) < 1326 // 10


CHAIN_THROUGH_THIRD = "x*y + 1\ny*z + 1\nx*z + 1\n"


def test_pairs_with_one_lcm_are_not_all_skipped(tmp_path, capsys):
    # the three pairs share the lcm x*y*z, and each pair's chain passes
    # through the third member: only pairs already popped may vouch for it
    ctx = VariableContext.of("x", "y", "z")
    F = [parse_polynomial(t, ctx, Ordering.DEGLEX) for t in CHAIN_THROUGH_THIRD.splitlines()]
    assert not reference_verify_groebner(F, Ordering.DEGLEX)
    assert not verify_groebner(F, Ordering.DEGLEX)
    src = tmp_path / "chain.txt"
    src.write_text(CHAIN_THROUGH_THIRD)
    code = main(["check", str(src), "--vars", "x,y,z", "--order", "deglex"])
    assert code == 4
    assert "groebner: FAIL" in capsys.readouterr().out.splitlines()
