"""Built-in example corpus.

Four small inputs exercise every division: a three-monomial staircase whose
completions differ across all five divisions (and diverge for Pommaret), the
same staircase under a variable order that makes the Pommaret completion
trivial, a corner set whose Pommaret completion adds a single monomial, and
a lexicographic polynomial system whose minimal basis collapses to
``{x - 1, y - 1}``.  Each input is stored as text; the bench harness runs
them, and the golden tests hold their own expected completions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomials import Ordering


@dataclass(frozen=True, slots=True)
class CorpusCase:
    name: str
    variables: tuple[str, ...]
    ordering: Ordering
    lines: tuple[str, ...]


CASES: tuple[CorpusCase, ...] = (
    CorpusCase(name="staircase", variables=("x", "y", "z"), ordering=Ordering.DEGLEX, lines=("x^2", "x*y", "z")),
    CorpusCase(name="staircase-zxy", variables=("z", "x", "y"), ordering=Ordering.DEGLEX, lines=("x^2", "x*y", "z")),
    CorpusCase(name="corner", variables=("x", "y", "z"), ordering=Ordering.DEGLEX, lines=("x^2", "x*z", "y")),
    CorpusCase(
        name="binomial-lex",
        variables=("x", "y"),
        ordering=Ordering.LEX,
        lines=("x^2*y - 1", "x*y^2 - 1", "y^4 - 1"),
    ),
)
