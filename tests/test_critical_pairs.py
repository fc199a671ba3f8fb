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
from involutive.polynomials import _coerce, _nf, _Pairs, _Reducers

from conftest import cyclic_ideal, mix_generators, reference_s_polynomial, zero_dimensional_ideal


def reference_verify_groebner(G, ordering):
    """Buchberger's test on every pair: each S-polynomial reduces to zero."""
    polys = _coerce(G, ordering)
    if not polys:
        return False
    reducers = _Reducers(polys, None, ordering.packing(polys[0].ctx.n))
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


def _duplicate_lm_variants(rng, polys):
    """The set plus twice one of its members, and the set with a copy of
    one member whose last tail coefficient moved, next to the original:
    two members with one leading monomial each."""
    out = [polys + [rng.choice(polys).scale(2)]]
    with_tail = [k for k, p in enumerate(polys) if p.tail]
    if with_tail:
        k = rng.choice(with_tail)
        p = polys[k]
        m, c = p.terms[-1]
        bumped = p + Polynomial.from_monomial(m, p.ordering, 1 if c != -1 else 2)
        out.append(polys[: k + 1] + [bumped] + polys[k + 1 :])
    return out


def test_duplicate_leading_monomials_match_all_pairs_reference(corpus):
    rng = random.Random(7)
    outcomes = []
    for ordering, polys in corpus:
        for variant in _duplicate_lm_variants(rng, polys):
            lms = [p.lm for p in _coerce(variant, ordering)]
            assert len(set(lms)) < len(lms)
            want = reference_verify_groebner(variant, ordering)
            assert verify_groebner(variant, ordering) == want, (ordering, [str(p) for p in variant])
            outcomes.append(want)
    assert outcomes.count(True) >= 100
    assert outcomes.count(False) >= 100


def _yielded(*lms):
    """The pairs the stream yields for leading monomials in x, y, z under
    deglex, given as exponent tuples and added in order; each comes with the
    packed lcm of its two leading monomials."""
    packing = Ordering.DEGLEX.packing(3)
    pairs = _Pairs(packing)
    packed = [packing.pack(e) for e in lms]
    for k in packed:
        pairs.add(k)
    out = []
    for w, i, j in pairs:
        assert w == packing.lcm(packed[i], packed[j])
        out.append((i, j))
    return out


def test_stream_skips_coprime_pairs():
    # x^2, y^2, x*y*z: (0, 1) is coprime, x*y*z does not divide its lcm,
    # and no lcm divides another
    assert _yielded((2, 0, 0), (0, 2, 0), (1, 1, 1)) == [(1, 2), (0, 2)]


def test_stream_drops_a_new_pair_by_criterion_m():
    # x^2*z, x*y, y*z: lcm(x*y, y*z) = x*y*z properly divides
    # lcm(x^2*z, y*z) = x^2*y*z; the pending (0, 1) has that lcm too, and
    # y*z divides it, but lcm(x^2*z, y*z) equals it, so B_k keeps it
    assert _yielded((2, 0, 1), (1, 1, 0), (0, 1, 1)) == [(1, 2), (0, 1)]


def test_stream_keeps_one_new_pair_per_lcm_by_criterion_f():
    # x*y, x*z, y*z: every lcm is x*y*z, and of the two new pairs only
    # the first is kept
    assert _yielded((1, 1, 0), (1, 0, 1), (0, 1, 1)) == [(0, 1), (0, 2)]


def test_stream_drops_a_pending_pair_by_criterion_b():
    # x^2*z, y^2*z, x*y*z: the new monomial divides lcm(x^2*z, y^2*z) =
    # x^2*y^2*z, and its lcms with both, x^2*y*z and x*y^2*z, are lower
    assert _yielded((2, 0, 1), (0, 2, 1), (1, 1, 1)) == [(1, 2), (0, 2)]


def test_stream_prunes_pairs_added_while_iterating():
    # x^2*z, y^2*z, z^2, and x*y*z joins after the first pair is popped:
    # B_k drops the pending (0, 1), whose lcm x^2*y^2*z is the highest, and
    # the new pairs join the same heap below (0, 2)'s x^2*z^2 or above it
    packing = Ordering.DEGLEX.packing(3)
    pairs = _Pairs(packing)
    for e in [(2, 0, 1), (0, 2, 1), (0, 0, 2)]:
        pairs.add(packing.pack(e))
    out = []
    for _, i, j in pairs:
        out.append((i, j))
        if len(out) == 1:
            pairs.add(packing.pack((1, 1, 1)))
    assert out == [(1, 2), (2, 3), (1, 3), (0, 2), (0, 3)]


def test_corpus_exercises_both_criteria(corpus):
    coprime = chain = 0
    for ordering, polys in corpus:
        coerced = _coerce(polys, ordering)
        lms = [p.lm.exps for p in coerced]
        packing = ordering.packing(coerced[0].ctx.n)
        pairs = _Pairs(packing)
        for e in lms:
            pairs.add(packing.pack(e))
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


def test_verify_groebner_work_on_cyclic5(monkeypatch):
    # the Janet involutive basis of cyclic-5 has 52 members and 1,326 pairs;
    # the criteria leave fewer than a tenth of them to the normal form
    basis = involutive_basis(cyclic_ideal(5), Division.JANET, Ordering.DEGREVLEX).basis
    assert len(basis) == 52
    calls = []
    real = polynomials._s_nf

    def counting(f, g, reducers, w):
        calls.append((f, g))
        return real(f, g, reducers, w)

    monkeypatch.setattr(polynomials, "_s_nf", counting)
    assert verify_groebner(basis, Ordering.DEGREVLEX)
    assert 0 < len(calls) < 1326 // 10


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
