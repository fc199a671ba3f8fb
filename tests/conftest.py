"""Shared randomized-input generators for the test suite, and two helpers
for the field width of packed exponent vectors.

All generators take an explicit random.Random so every test controls its
own seed and reruns are reproducible.
"""
from contextlib import contextmanager
from fractions import Fraction
import random

from involutive import Monomial, Ordering, Polynomial, VariableContext, monomials, parse_polynomial

NAMES = ("x", "y", "z", "w")


def random_context(rng: random.Random, max_vars: int = 4) -> VariableContext:
    return VariableContext.of(*NAMES[: rng.randint(1, max_vars)])


def random_monomial(rng: random.Random, ctx: VariableContext, max_degree: int = 5) -> Monomial:
    degree = rng.randint(0, max_degree)
    exps = [0] * ctx.n
    for _ in range(degree):
        exps[rng.randrange(ctx.n)] += 1
    return ctx.monomial(exps)


def random_monomial_set(
    rng: random.Random, ctx: VariableContext, max_size: int = 6, max_degree: int = 5
) -> list[Monomial]:
    size = rng.randint(1, max_size)
    seen = {}
    for _ in range(size * 3):
        m = random_monomial(rng, ctx, max_degree)
        seen[m] = True
        if len(seen) == size:
            break
    return list(seen)


def random_polynomial(
    rng: random.Random,
    ctx: VariableContext,
    ordering: Ordering,
    max_degree: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 5,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        terms[random_monomial(rng, ctx, max_degree)] = Fraction(c)
    return Polynomial.from_terms(ctx, ordering, terms)


def random_ideal(
    rng: random.Random,
    ctx: VariableContext,
    ordering: Ordering,
    max_generators: int = 4,
    max_degree: int = 3,
) -> list[Polynomial]:
    polys = []
    for _ in range(rng.randint(1, max_generators)):
        p = random_polynomial(rng, ctx, ordering, max_degree)
        if not p.is_zero:
            polys.append(p)
    if not polys:
        polys.append(random_polynomial(rng, ctx, ordering, max_degree))
    return polys


def zero_dimensional_ideal(rng: random.Random, ctx: VariableContext, ordering: Ordering) -> list[Polynomial]:
    """Generators whose leading monomials include a pure power of every
    variable, so the quotient ring is finite dimensional and every
    division (Pommaret included) admits a finite basis."""
    assert ordering.degree_compatible
    polys = []
    for i in range(ctx.n):
        d = rng.randint(1, 3)
        terms = {ctx.monomial(tuple(d if j == i else 0 for j in range(ctx.n))): Fraction(1)}
        for _ in range(rng.randint(0, 2)):
            c = rng.randint(-5, 5)
            if c:
                m = random_monomial(rng, ctx, d - 1)
                terms[m] = terms.get(m, Fraction(0)) + c
        p = Polynomial.from_terms(ctx, ordering, terms)
        polys.append(p)
    if rng.random() < 0.5 and len(polys) < 4:
        extra = random_polynomial(rng, ctx, ordering, max_degree=3)
        if not extra.is_zero:
            polys.append(extra)
    return polys


def cyclic_ideal(n: int) -> list[Polynomial]:
    """Cyclic-n in x0..x(n-1) under degrevlex: the elementary cyclic sums of
    degree 1..n-1, and x0*...*x(n-1) - 1."""
    ctx = VariableContext.of(*[f"x{i}" for i in range(n)])
    names = ctx.names
    lines = [" + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n)) for k in range(1, n)]
    return [parse_polynomial(t, ctx, Ordering.DEGREVLEX) for t in lines + ["*".join(names) + " - 1"]]


def katsura_ideal(n: int) -> list[Polynomial]:
    """Katsura-n in u0..un under degrevlex, with u(-i) = u(i) and u(i) = 0
    for i > n: u0 + 2*(u1 + ... + un) - 1, and sum_l u(l)*u(m-l) - u(m)
    for m = 0..n-1."""
    ctx = VariableContext.of(*[f"u{i}" for i in range(n + 1)])
    u = ctx.names
    lines = [" + ".join([u[0], *(f"2*{u[i]}" for i in range(1, n + 1))]) + " - 1"]
    lines += [" + ".join(f"{u[abs(l)]}*{u[abs(m - l)]}" for l in range(-n, n + 1) if abs(m - l) <= n) + f" - {u[m]}" for m in range(n)]
    return [parse_polynomial(t, ctx, Ordering.DEGREVLEX) for t in lines]


def mix_generators(rng: random.Random, ctx: VariableContext, F: list[Polynomial]) -> list[Polynomial]:
    """Add to each generator a monomial multiple of the next one, cyclically,
    so that the leading monomials share variables and Buchberger's pairs are
    not all pruned as coprime (as they are on ``zero_dimensional_ideal``'s
    pure powers).  Zero sums are dropped; the ideal may change."""
    mixed = [f + g.mul_term(Fraction(rng.randint(1, 3)), random_monomial(rng, ctx, 1)) for f, g in zip(F, F[1:] + F[:1])]
    return [f for f in mixed if not f.is_zero]


def reference_s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial by monomial multiplication and subtraction."""
    w = f.lm.lcm(g.lm)
    return f.mul_term(1 / f.lc, w / f.lm) - g.mul_term(1 / g.lc, w / g.lm)


@contextmanager
def starting_width(bits):
    """Run the enclosed computations on fields ``bits`` wide at first."""
    token = monomials._BITS.set(bits)
    try:
        yield
    finally:
        monomials._BITS.reset(token)


def widths_used(monkeypatch):
    """The set of field widths of every packing asked for from now on."""
    seen = set()
    real = monomials._packing

    def recorded(n, ordering, bits):
        seen.add(bits)
        return real(n, ordering, bits)

    monkeypatch.setattr(monomials, "_packing", recorded)
    return seen
