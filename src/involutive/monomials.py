"""Monomials over a fixed, ordered variable list.

A variable context is a tuple of names; the position of a name is its
precedence, position 0 being the highest variable.  Everything built on top
(partitions, completions, polynomial bases) reuses these values unchanged,
so every operation here is pure and every value immutable.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ContextMismatch(ValueError):
    """Operands belong to different variable contexts."""


@dataclass(frozen=True, slots=True)
class VariableContext:
    names: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a variable context needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        for name in self.names:
            if not _NAME.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "_hash", hash(self.names))

    def __hash__(self) -> int:
        # hashed in every monomial dict lookup, so precomputed once
        return self._hash

    @classmethod
    def of(cls, *names: str) -> "VariableContext":
        return cls(tuple(names))

    @classmethod
    def parse(cls, text: str) -> "VariableContext":
        """Build a context from a comma-separated name list like ``x,y,z``."""
        return cls(tuple(part.strip() for part in text.split(",") if part.strip()))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)

    def variable(self, i: int) -> "Monomial":
        exps = [0] * self.n
        exps[i] = 1
        return Monomial(self, tuple(exps))

    def monomial(self, exps: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exps))


@dataclass(frozen=True, slots=True)
class Monomial:
    """A power product of context variables, stored as a dense exponent tuple."""

    ctx: VariableContext
    exps: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.exps) != self.ctx.n:
            raise ValueError("exponent vector length does not match context")
        for e in self.exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError("exponents must be non-negative integers")
        object.__setattr__(self, "_hash", hash((self.ctx._hash, self.exps)))

    def __hash__(self) -> int:
        return self._hash

    def _check(self, other: "Monomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("monomials from different variable contexts")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def degree_of(self, i: int) -> int:
        """Exponent of the i-th variable, 1-based like the usual deg_i."""
        if not 1 <= i <= self.ctx.n:
            raise IndexError(f"variable index {i} out of range 1..{self.ctx.n}")
        return self.exps[i - 1]

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def variables(self) -> tuple[int, ...]:
        """Positions of the variables that occur with a positive exponent."""
        return tuple(i for i, e in enumerate(self.exps) if e)

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ctx, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def mul_var(self, i: int, power: int = 1) -> "Monomial":
        exps = list(self.exps)
        exps[i] += power
        return Monomial(self.ctx, tuple(exps))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact quotient self/other; raises ValueError when not divisible."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.ctx, tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ctx, tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ctx, tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.ctx.names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


class Ordering(enum.Enum):
    """Admissible monomial orderings: total, multiplicative, with 1 least."""

    LEX = "lex"
    DEGLEX = "deglex"
    DEGREVLEX = "degrevlex"

    @property
    def degree_compatible(self) -> bool:
        return self is not Ordering.LEX

    @classmethod
    def parse(cls, text: str) -> "Ordering":
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(o.value for o in cls)
            raise ValueError(f"unknown ordering {text!r} (expected one of: {names})") from None

    def key(self, m: Monomial) -> tuple:
        """Sort key of m: a lower monomial has a smaller key."""
        return _ASCENDING_KEYS[self](m.exps)

    @property
    def ascending_key(self) -> Callable[[tuple[int, ...]], tuple]:
        """``key`` on the exponent tuples of monomials of one context."""
        return _ASCENDING_KEYS[self]

    @property
    def descending_key(self) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """Key on exponent tuples of one length that sorts the highest
        monomial first: the reverse of ``key``'s order, as one flat tuple."""
        return _DESCENDING_KEYS[self]


_ASCENDING_KEYS = {
    # the cheapest of the equivalent forms of each ordering; degrevlex is by
    # degree, then the smaller reversed-negated exponents win
    Ordering.LEX: lambda e: e,
    Ordering.DEGLEX: lambda e: (sum(e), e),
    Ordering.DEGREVLEX: lambda e: (sum(e), *[-x for x in reversed(e)]),
}

_DESCENDING_KEYS = {
    # every component of ``key`` negated, as one flat tuple
    Ordering.LEX: lambda e: tuple([-x for x in e]),
    Ordering.DEGLEX: lambda e: (-sum(e), *[-x for x in e]),
    Ordering.DEGREVLEX: lambda e: (-sum(e), *e[::-1]),
}


def compare(u: Monomial, v: Monomial, ordering: Ordering) -> int:
    """Three-way comparison: -1 if u is lower, 0 if equal, +1 if higher."""
    u._check(v)
    a, b = ordering.key(u), ordering.key(v)
    return (a > b) - (a < b)


def monomials_up_to_degree(ctx: VariableContext, bound: int) -> Iterator[Monomial]:
    """Yield every monomial of total degree <= bound, lowest degrees first."""
    n = ctx.n

    def split(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in split(total - head, slots - 1):
                yield (head,) + rest

    for total in range(bound + 1):
        for exps in split(total, n):
            yield Monomial(ctx, exps)
