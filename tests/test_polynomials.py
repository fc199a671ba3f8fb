import random
from fractions import Fraction

import pytest

from involutive import (
    Ordering,
    Polynomial,
    VariableContext,
    autoreduce,
    buchberger,
    normal_form,
    parse_polynomial,
    polynomials,
    s_polynomial,
    same_ideal,
)

from conftest import mix_generators, random_context, random_ideal, random_polynomial, zero_dimensional_ideal

CTX = VariableContext.of("x", "y")


def _p(text, ctx=CTX, ordering=Ordering.DEGLEX):
    return parse_polynomial(text, ctx, ordering)


def test_term_normalization():
    p = Polynomial.from_terms(
        CTX,
        Ordering.DEGLEX,
        {CTX.monomial((1, 0)): Fraction(2), CTX.monomial((0, 0)): Fraction(0)},
    )
    assert len(p.terms) == 1
    assert p.lm == CTX.monomial((1, 0))
    assert p.lc == Fraction(2)
    merged = Polynomial.from_terms(
        CTX, Ordering.DEGLEX, [(CTX.monomial((1, 0)), Fraction(1)), (CTX.monomial((1, 0)), Fraction(-1))]
    )
    assert merged.is_zero
    with pytest.raises(ValueError):
        merged.lm


def test_ring_laws():
    rng = random.Random(41)
    for _ in range(150):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        p = random_polynomial(rng, ctx, ordering)
        q = random_polynomial(rng, ctx, ordering)
        r = random_polynomial(rng, ctx, ordering)
        zero = Polynomial.zero(ctx, ordering)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p + zero == p
        assert p - p == zero
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == p


def test_lm_is_multiplicative():
    rng = random.Random(42)
    for _ in range(150):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        p = random_polynomial(rng, ctx, ordering)
        q = random_polynomial(rng, ctx, ordering)
        assert (p * q).lm == p.lm * q.lm
        assert (p * q).lc == p.lc * q.lc


def test_terms_stay_sorted_and_nonzero():
    rng = random.Random(43)
    for _ in range(100):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        p = random_polynomial(rng, ctx, ordering) * random_polynomial(rng, ctx, ordering)
        keys = [ordering.key(m) for m, _ in p.terms]
        assert keys == sorted(keys, reverse=True)
        assert all(c != 0 for _, c in p.terms)


def test_str_golden():
    assert str(_p("x^2 - y")) == "x^2 - y"
    assert str(_p("-x + 3")) == "-x + 3"
    assert str(_p("7/2*x*y + 1")) == "7/2*x*y + 1"
    assert str(Polynomial.zero(CTX, Ordering.DEGLEX)) == "0"
    assert str(_p("1")) == "1"


def test_normal_form_golden():
    f = _p("x^2 + y")
    g = _p("y^2 - 1")
    p = _p("x^2*y^2 + x")
    # x^2*y^2 -> -y^3 (by f) -> -y (by g), so NF = x - y.
    nf = normal_form(p, [f, g])
    assert nf == _p("x - y")


def test_normal_form_idempotent_and_membership():
    rng = random.Random(44)
    for _ in range(80):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        F = random_ideal(rng, ctx, ordering, max_generators=3, max_degree=2)
        p = random_polynomial(rng, ctx, ordering)
        nf = normal_form(p, F)
        assert normal_form(nf, F) == nf
        # p - NF(p) reduces to zero, hence lies in the ideal.
        assert normal_form(p - nf, F).is_zero
        for m, _ in nf.terms:
            assert not any(f.lm.divides(m) for f in F if not f.is_zero)


def test_autoreduce_unit_ideal():
    reduced = autoreduce([_p("x - 1"), _p("x")])
    assert [str(q) for q in reduced] == ["1"]


def test_autoreduce_is_interreduced():
    rng = random.Random(45)
    for _ in range(80):
        ctx = random_context(rng, 3)
        ordering = rng.choice(list(Ordering))
        F = random_ideal(rng, ctx, ordering, max_generators=3, max_degree=2)
        reduced = autoreduce(F)
        for i, f in enumerate(reduced):
            rest = [g for j, g in enumerate(reduced) if j != i]
            assert f.lc == 1
            if rest:
                assert normal_form(f, rest) == f
        keys = [ordering.key(f.lm) for f in reduced]
        assert keys == sorted(keys)


def test_s_polynomial():
    f = _p("x^2 + y")
    g = _p("x*y - 1")
    s = s_polynomial(f, g)
    assert s == _p("y^2 + x")
    with pytest.raises(ValueError):
        s_polynomial(f, Polynomial.zero(CTX, Ordering.DEGLEX))


def test_buchberger_golden():
    F = [
        parse_polynomial(t, CTX, Ordering.LEX)
        for t in ("x^2*y - 1", "x*y^2 - 1", "y^4 - 1")
    ]
    gb = buchberger(F)
    assert [str(g) for g in gb] == ["y - 1", "x - 1"]


def test_buchberger_classic_pair():
    ctx = VariableContext.of("x", "y")
    F = [parse_polynomial(t, ctx, Ordering.DEGLEX) for t in ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")]
    gb = buchberger(F)
    assert [str(g) for g in gb] == ["y^2 - 1/2*x", "x*y", "x^2"]


def test_buchberger_is_groebner_and_reduced():
    rng = random.Random(46)
    for _ in range(60):
        ctx = random_context(rng, 3)
        ordering = rng.choice([Ordering.DEGLEX, Ordering.DEGREVLEX])
        F = random_ideal(rng, ctx, ordering, max_generators=3, max_degree=2)
        gb = buchberger(F)
        for i, f in enumerate(gb):
            for g in gb[i + 1 :]:
                assert normal_form(s_polynomial(f, g), gb).is_zero
            assert f.lc == 1
            rest = [g for g in gb if g is not f]
            if rest:
                assert normal_form(f, rest) == f
        for f in F:
            assert normal_form(f, gb).is_zero


def test_buchberger_input_order_invariance():
    rng = random.Random(47)
    for _ in range(40):
        ctx = random_context(rng, 3)
        ordering = rng.choice([Ordering.DEGLEX, Ordering.DEGREVLEX])
        F = random_ideal(rng, ctx, ordering, max_generators=3, max_degree=2)
        shuffled = F[:]
        rng.shuffle(shuffled)
        assert buchberger(F) == buchberger(shuffled)


def test_same_ideal():
    f = _p("x^2 - y")
    g = _p("y - 1")
    assert same_ideal([f, g], [g, f + g.scale(Fraction(3))])
    assert not same_ideal([f], [g])


def test_zero_ideal_has_empty_basis():
    assert buchberger([Polynomial.zero(CTX, Ordering.DEGLEX)]) == ()
    assert buchberger([]) == ()


def reference_buchberger(F):
    """Buchberger's loop selecting each pair by a scan over the pending
    pairs: the lowest (key(lcm), i, j) first."""
    G = list(autoreduce(F))
    key = G[0].ordering.key
    pending = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    while pending:
        i, j = min(pending, key=lambda p: (key(G[p[0]].lm.lcm(G[p[1]].lm)), p))
        pending.remove((i, j))
        li, lj = G[i].lm, G[j].lm
        w = li.lcm(lj)
        if w == li * lj:
            continue
        if any(
            k not in (i, j) and G[k].lm.divides(w)
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue
        r = polynomials.normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero:
            G.append(r.monic())
            pending.update((k, len(G) - 1) for k in range(len(G) - 1))
    G.sort(key=lambda p: key(p.lm))
    minimal = []
    for p in G:
        if not any(q.lm.divides(p.lm) for q in minimal):
            minimal.append(p)
    return autoreduce(minimal)


def test_buchberger_pair_order_matches_reference(monkeypatch):
    # the polynomials handed to the kernel, in order (the S-polynomials and
    # the interreduction's members), and the bases agree with the scan over
    # pending pairs
    reduced = []
    real = polynomials._nf

    def recording(p, reducers):
        reduced.append(p)
        return real(p, reducers)

    monkeypatch.setattr(polynomials, "_nf", recording)
    rng = random.Random(41)
    total = 0
    for k in range(30):
        ctx = VariableContext.of(*"xyz"[: 2 + k % 2])
        ordering = (Ordering.DEGLEX, Ordering.DEGREVLEX)[k // 2 % 2]
        F = mix_generators(rng, ctx, zero_dimensional_ideal(rng, ctx, ordering))
        reduced.clear()
        want = reference_buchberger(F)
        want_sequence = list(reduced)
        reduced.clear()
        assert buchberger(F) == want
        assert reduced == want_sequence
        total += len(want_sequence)
    assert total >= 200
