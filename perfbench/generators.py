"""Input families written from their defining formulas, as polynomial text.

The generators return variable names and one polynomial per line, so they
import nothing from the package: the benchmark parses the text during its
timed set-up, with whichever import of the package is current.
"""
from __future__ import annotations

import random

# Janet division, degrevlex: basis sizes (involutive, minimal) at the commit
# that introduced the benchmark; a generator that drifts from its formula
# shows up here before it shows up as a golden mismatch.
EXPECTED_JANET_SIZES = {"cyclic-5": (52, 23), "katsura-5": (23, 23)}


def cyclic(n: int) -> tuple[tuple[str, ...], list[str]]:
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and x0*...*x(n-1) - 1."""
    names = tuple(f"x{i}" for i in range(n))
    lines = []
    for k in range(1, n):
        terms = ["*".join(names[(i + j) % n] for j in range(k)) for i in range(n)]
        lines.append(" + ".join(terms))
    lines.append("*".join(names) + " - 1")
    return names, lines


def katsura(n: int) -> tuple[tuple[str, ...], list[str]]:
    """Katsura-n in u0..un, with u(-i) = u(i) and u(i) = 0 for i > n:
    u0 + 2*(u1 + ... + un) - 1, and sum_l u(l)*u(m-l) - u(m) for m = 0..n-1."""
    names = tuple(f"u{i}" for i in range(n + 1))
    lines = [" + ".join([names[0], *(f"2*{names[i]}" for i in range(1, n + 1))]) + " - 1"]
    for m in range(n):
        terms = [
            f"{names[abs(l)]}*{names[abs(m - l)]}"
            for l in range(-n, n + 1)
            if abs(m - l) <= n
        ]
        lines.append(" + ".join(terms) + f" - {names[m]}")
    return names, lines


ZERO_DIM_VARIABLES = ("x", "y", "z")
# per-variable degrees of the pure powers, cycled through the family so that
# every seed carries the same mix of ideal shapes and only the tails vary
_DEGREE_PATTERNS = ((1, 2, 2), (2, 1, 2), (2, 2, 1))
_TAIL_TERMS = 2
_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _monomial_text(exps: tuple[int, ...]) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(ZERO_DIM_VARIABLES, exps) if e]
    return "*".join(factors) if factors else "1"


def zero_dim_family(seed: int, count: int = 40) -> list[tuple[str, list[str]]]:
    """Seeded zero-dimensional ideals in x, y, z, as (ordering name, lines).

    Generator i is a pure power of variable i plus random terms of lower
    total degree, so under a degree-compatible ordering every variable has a
    pure power among the leading terms and every division's basis is finite.
    Half the ideals use deglex and half degrevlex, assigned by the seed.
    """
    rng = random.Random(seed)
    orderings = ["deglex", "degrevlex"] * (count // 2) + ["deglex"] * (count % 2)
    rng.shuffle(orderings)
    family = []
    for k in range(count):
        degrees = _DEGREE_PATTERNS[k % len(_DEGREE_PATTERNS)]
        lines = []
        for i, d in enumerate(degrees):
            lead = tuple(d if j == i else 0 for j in range(3))
            below = [
                (a, b, c)
                for a in range(d)
                for b in range(d)
                for c in range(d)
                if a + b + c < d
            ]
            text = _monomial_text(lead)
            for exps in rng.sample(below, min(_TAIL_TERMS, len(below))):
                c = rng.choice(_COEFFICIENTS)
                text += f" {'-' if c < 0 else '+'} {abs(c)}*{_monomial_text(exps)}"
            lines.append(text)
        family.append((orderings[k], lines))
    return family
