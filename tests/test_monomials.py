import random

import pytest

from involutive import ContextMismatch, Monomial, Ordering, VariableContext, compare, monomials_up_to_degree
from involutive.monomials import Packing, _Overflow, _widening

from conftest import random_context, random_monomial, starting_width


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


# the default width, and fields so narrow that the test vectors nearly fill them
WIDTHS = (16, 6)


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_descending_key_reverses_ordering_key(ordering):
    """The kernel's heap key, the negated packed int, sorts the highest
    monomial first."""
    rng = random.Random(41 + list(Ordering).index(ordering))
    for n in range(1, 5):
        ctx = VariableContext.of(*"xyzw"[:n])
        exps = {(0,) * n} | {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)}
        ascending = sorted(exps, key=lambda e: ordering.key(ctx.monomial(e)))
        for bits in WIDTHS:
            pack = Packing(n, ordering, bits).pack
            assert sorted(exps, key=lambda e: -pack(e)) == ascending[::-1]


# plain keys written from the definitions of the orderings, ascending
REFERENCE_KEYS = {
    Ordering.LEX: lambda e: e,
    Ordering.DEGLEX: lambda e: (sum(e), e),
    Ordering.DEGREVLEX: lambda e: (sum(e), tuple(-x for x in reversed(e))),
}


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_ascending_key_sorts_like_ordering_key(ordering):
    """The packed int, the kernel's ascending key, and ``Ordering.key``
    against the plain reference key."""
    reference = REFERENCE_KEYS[ordering]
    rng = random.Random(51 + list(Ordering).index(ordering))
    for n in range(1, 5):
        ctx = VariableContext.of(*"xyzw"[:n])
        exps = [(0,) * n] + [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)]
        for bits in WIDTHS:
            pack = Packing(n, ordering, bits).pack
            for a in exps[:20]:
                for b in exps:
                    want = reference(a) < reference(b)
                    assert (pack(a) < pack(b)) == want
                    assert (ordering.key(ctx.monomial(a)) < ordering.key(ctx.monomial(b))) == want


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_packed_divisibility_is_subtract_and_mask(ordering):
    """(w - u) & guard is 0 exactly when u divides w; a product is a sum;
    the lcm is the packed maximum; unpack inverts pack."""
    rng = random.Random(61 + list(Ordering).index(ordering))
    for n in range(1, 6):
        exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(40)]
        for bits in WIDTHS:
            packing = Packing(n, ordering, bits)
            pack, guard = packing.pack, packing.guard
            for u in exps:
                assert packing.unpack(pack(u)) == u
                for w in exps:
                    assert (not (pack(w) - pack(u)) & guard) == all(a <= b for a, b in zip(u, w)), (u, w)
                    assert packing.mul(pack(u), pack(w)) == pack(tuple(a + b for a, b in zip(u, w)))
                    assert packing.lcm(pack(u), pack(w)) == pack(tuple(map(max, u, w)))


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
def test_packing_refuses_a_degree_past_its_fields(ordering):
    # 4-bit fields hold values up to 7; ``pack`` bounds every field by the degree
    packing = Packing(2, ordering, 4)
    assert packing.unpack(packing.pack((7, 0))) == (7, 0)
    assert packing.unpack(packing.pack((3, 4))) == (3, 4)
    for exps in [(8, 0), (0, 8), (4, 4), (30, 1)]:
        with pytest.raises(_Overflow):
            packing.pack(exps)
    assert packing.mul(packing.pack((6, 0)), packing.pack((1, 0))) == packing.pack((7, 0))
    overflowing = [((7, 0), (1, 0)), ((0, 7), (0, 1)), ((7, 0), (7, 0))]
    if ordering.degree_compatible:
        # the degree has a field of its own
        overflowing.append(((4, 3), (0, 1)))
    else:
        assert packing.unpack(packing.mul(packing.pack((4, 3)), packing.pack((0, 1)))) == (4, 4)
    for u, v in overflowing:
        with pytest.raises(_Overflow):
            packing.mul(packing.pack(u), packing.pack(v))
    if ordering.degree_compatible:
        # each exponent fits, the degree of the lcm does not
        with pytest.raises(_Overflow):
            packing.lcm(packing.pack((4, 0)), packing.pack((0, 4)))


def test_widening_doubles_the_fields_until_the_degree_fits():
    calls = []

    @_widening
    def round_trip(exps):
        packing = Ordering.DEGLEX.packing(2)
        calls.append(packing.bits)
        return packing.unpack(packing.pack(exps))

    @_widening
    def around(exps):
        return round_trip(exps), Ordering.DEGLEX.packing(2).bits

    assert round_trip((3, 4)) == (3, 4) and calls == [16]
    assert round_trip((40000, 1)) == (40000, 1) and calls[1:] == [16, 32]
    assert round_trip((2**40, 0)) == (2**40, 0) and calls[3:] == [16, 32, 64]
    # every call starts at 16 bits again, and so does code outside a call
    assert Ordering.DEGLEX.packing(2).bits == Ordering.LEX.packing(3).bits == 16
    assert Ordering.DEGLEX.packing(2) is Ordering.DEGLEX.packing(2)
    # a nested call starts at the width of the call around it, and widens
    # only itself
    assert around((40000, 1)) == ((40000, 1), 16) and calls[6:] == [16, 32]
    with starting_width(32):
        assert around((40000, 1)) == ((40000, 1), 32) and calls[8:] == [32]
