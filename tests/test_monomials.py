import random

import pytest

from involutive import ContextMismatch, Monomial, Ordering, VariableContext, compare, monomials_up_to_degree

from conftest import random_context, random_monomial


def test_context_basics():
    ctx = VariableContext.of("x", "y", "z")
    assert ctx.n == 3
    assert ctx.names == ("x", "y", "z")
    assert ctx.index("y") == 1
    with pytest.raises(KeyError):
        ctx.index("t")
    assert VariableContext.parse("x, y,z") == ctx
    assert ctx.one().is_one
    assert str(ctx.variable(0)) == "x"


def test_context_rejects_bad_names():
    with pytest.raises(ValueError):
        VariableContext.of()
    with pytest.raises(ValueError):
        VariableContext.of("x", "x")
    with pytest.raises(ValueError):
        VariableContext.of("2bad")


def test_monomial_construction_and_accessors():
    ctx = VariableContext.of("x", "y", "z")
    m = ctx.monomial((2, 1, 0))
    assert m.degree == 3
    assert m.degree_of(1) == 2
    assert m.degree_of(3) == 0
    with pytest.raises(IndexError):
        m.degree_of(0)
    with pytest.raises(IndexError):
        m.degree_of(4)
    assert m.variables() == (0, 1)
    assert str(m) == "x^2*y"
    assert str(ctx.one()) == "1"
    with pytest.raises(ValueError):
        ctx.monomial((1, -1, 0))
    with pytest.raises(ValueError):
        ctx.monomial((1, 0))


def test_multiplication_division_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        ctx = random_context(rng)
        u = random_monomial(rng, ctx)
        v = random_monomial(rng, ctx)
        w = u * v
        assert u.divides(w) and v.divides(w)
        assert w / u == v
        assert w / v == u
        assert u * ctx.one() == u
        assert (u * v) * u == u * (v * u)
        assert u.mul_var(0) == u * ctx.variable(0)


def test_division_failure_raises():
    ctx = VariableContext.of("x", "y")
    with pytest.raises(ValueError):
        ctx.monomial((1, 0)) / ctx.monomial((0, 1))


def test_divides_iff_quotient_exists():
    rng = random.Random(12)
    for _ in range(300):
        ctx = random_context(rng)
        u = random_monomial(rng, ctx, 3)
        w = random_monomial(rng, ctx, 3)
        if u.divides(w):
            assert (w / u) * u == w
        else:
            with pytest.raises(ValueError):
                w / u


def test_lcm_gcd_identity():
    rng = random.Random(13)
    for _ in range(300):
        ctx = random_context(rng)
        u = random_monomial(rng, ctx)
        v = random_monomial(rng, ctx)
        assert u.lcm(v) * u.gcd(v) == u * v
        assert u.divides(u.lcm(v)) and v.divides(u.lcm(v))
        assert u.gcd(v).divides(u) and u.gcd(v).divides(v)


def test_context_mismatch_rejected():
    a = VariableContext.of("x", "y")
    b = VariableContext.of("x", "z")
    with pytest.raises(ContextMismatch):
        a.monomial((1, 0)) * b.monomial((1, 0))
    with pytest.raises(ContextMismatch):
        a.monomial((1, 0)).divides(b.monomial((1, 0)))


def test_ordering_axioms():
    # Admissible ordering: total, 1 is least, compatible with multiplication.
    rng = random.Random(14)
    for ordering in Ordering:
        for _ in range(200):
            ctx = random_context(rng, 3)
            u = random_monomial(rng, ctx, 4)
            v = random_monomial(rng, ctx, 4)
            t = random_monomial(rng, ctx, 2)
            c = compare(u, v, ordering)
            assert c in (-1, 0, 1)
            assert (c == 0) == (u == v)
            assert c == -compare(v, u, ordering)
            if not u.is_one:
                assert compare(ctx.one(), u, ordering) == -1
            assert compare(u * t, v * t, ordering) == c


def test_deglex_vs_degrevlex_disagree():
    ctx = VariableContext.of("x", "y", "z")
    xz = ctx.monomial((1, 0, 1))
    y2 = ctx.monomial((0, 2, 0))
    assert compare(xz, y2, Ordering.DEGLEX) == 1
    assert compare(xz, y2, Ordering.DEGREVLEX) == -1


def test_lex_golden():
    ctx = VariableContext.of("x", "y")
    x = ctx.monomial((1, 0))
    y3 = ctx.monomial((0, 3))
    assert compare(x, y3, Ordering.LEX) == 1
    assert compare(x, y3, Ordering.DEGLEX) == -1
    assert Ordering.LEX.degree_compatible is False
    assert Ordering.DEGLEX.degree_compatible and Ordering.DEGREVLEX.degree_compatible


def test_ordering_parse():
    assert Ordering.parse("lex") is Ordering.LEX
    assert Ordering.parse("deglex") is Ordering.DEGLEX
    assert Ordering.parse("degrevlex") is Ordering.DEGREVLEX
    with pytest.raises(ValueError):
        Ordering.parse("mystery")


def test_monomials_up_to_degree():
    ctx = VariableContext.of("x", "y")
    ms = list(monomials_up_to_degree(ctx, 2))
    assert len(ms) == 6
    assert ms[0].is_one
    degrees = [m.degree for m in ms]
    assert degrees == sorted(degrees)
    assert len(set(ms)) == 6


def test_str_repr_forms():
    ctx = VariableContext.of("x", "y", "z")
    m = ctx.monomial((2, 1, 1))
    assert str(m) == "x^2*y*z"
    assert "x^2*y*z" in repr(m)


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_descending_key_reverses_ordering_key(ordering):
    rng = random.Random(41 + list(Ordering).index(ordering))
    for n in range(1, 5):
        ctx = VariableContext.of(*"xyzw"[:n])
        exps = {(0,) * n} | {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)}
        ascending = sorted(exps, key=lambda e: ordering.key(ctx.monomial(e)))
        assert sorted(exps, key=ordering.descending_key) == ascending[::-1]


# plain keys written from the definitions of the orderings, ascending
REFERENCE_KEYS = {
    Ordering.LEX: lambda e: e,
    Ordering.DEGLEX: lambda e: (sum(e), e),
    Ordering.DEGREVLEX: lambda e: (sum(e), tuple(-x for x in reversed(e))),
}


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_ascending_key_sorts_like_ordering_key(ordering):
    """``ascending_key`` and ``Ordering.key`` against the plain reference key."""
    reference = REFERENCE_KEYS[ordering]
    rng = random.Random(51 + list(Ordering).index(ordering))
    for n in range(1, 5):
        ctx = VariableContext.of(*"xyzw"[:n])
        exps = [(0,) * n] + [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)]
        for a in exps[:20]:
            for b in exps:
                want = reference(a) < reference(b)
                assert (ordering.ascending_key(a) < ordering.ascending_key(b)) == want
                assert (ordering.key(ctx.monomial(a)) < ordering.key(ctx.monomial(b))) == want
