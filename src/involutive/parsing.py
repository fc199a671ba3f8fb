"""Text forms for monomials and polynomials.

The grammar is deliberately small: integer or rational coefficients
(``3``, ``-7/2``), ``+``/``-`` between terms, ``*`` between factors and
``^`` for exponents, e.g. ``x^2*y - 1``.  Numbers are ASCII digits and
names are those ``VariableContext`` accepts; any other character is an
error.  Errors carry the line and column where parsing stopped.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .monomials import _NAME, Monomial, Ordering, VariableContext
from .polynomials import Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # NUM, NAME, OP, END
    text: str
    col: int


_DIGITS = re.compile(r"[0-9]+")


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        match = _DIGITS.match(text, i) or _NAME.match(text, i)
        if match:
            tokens.append(_Token("NUM" if match.re is _DIGITS else "NAME", match.group(), i + 1))
            i = match.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, i + 1)
    tokens.append(_Token("END", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], line: int, ctx: VariableContext):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok.col)

    def number(self) -> Fraction:
        tok = self.take()
        value = Fraction(int(tok.text))
        if self.peek().kind == "OP" and self.peek().text == "/":
            self.take()
            den = self.peek()
            if den.kind != "NUM":
                self.fail("expected an integer denominator")
            self.take()
            if int(den.text) == 0:
                self.fail("zero denominator", den)
            value /= int(den.text)
        return value

    def factor(self) -> tuple[Fraction, dict[int, int]]:
        tok = self.peek()
        if tok.kind == "NUM":
            return self.number(), {}
        if tok.kind == "NAME":
            self.take()
            try:
                idx = self.ctx.index(tok.text)
            except KeyError:
                self.fail(f"unknown variable {tok.text!r}", tok)
            power = 1
            if self.peek().kind == "OP" and self.peek().text == "^":
                self.take()
                exp = self.peek()
                if exp.kind == "OP" and exp.text == "-":
                    self.fail("exponent must be a non-negative integer", exp)
                if exp.kind != "NUM":
                    self.fail("expected an integer exponent", exp)
                self.take()
                power = int(exp.text)
            return Fraction(1), {idx: power}
        self.fail("expected a coefficient or a variable", tok)

    def term(self) -> tuple[Fraction, dict[int, int]]:
        coeff, exps = self.factor()
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.take()
            c2, e2 = self.factor()
            coeff *= c2
            for idx, p in e2.items():
                exps[idx] = exps.get(idx, 0) + p
        nxt = self.peek()
        if nxt.kind in ("NUM", "NAME"):
            self.fail("expected an operator between factors", nxt)
        return coeff, exps

    def polynomial(self, ordering: Ordering) -> Polynomial:
        terms: list[tuple[Monomial, Fraction]] = []
        sign = Fraction(1)
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.take()
            sign = Fraction(-1) if tok.text == "-" else Fraction(1)
        if self.peek().kind == "END":
            self.fail("expected a term")
        while True:
            coeff, exps = self.term()
            terms.append((_monomial(self.ctx, exps), sign * coeff))
            tok = self.peek()
            if tok.kind == "END":
                break
            if tok.kind == "OP" and tok.text in "+-":
                self.take()
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
                continue
            self.fail("expected '+' or '-' between terms", tok)
        return Polynomial.from_terms(self.ctx, ordering, terms)


def _monomial(ctx: VariableContext, exps: dict[int, int]) -> Monomial:
    """The monomial with the exponents of a parsed term, keyed by variable position."""
    return Monomial(ctx, tuple(exps.get(i, 0) for i in range(ctx.n)))


def parse_polynomial(text: str, ctx: VariableContext, ordering: Ordering, line: int = 1) -> Polynomial:
    parser = _Parser(_tokenize(text, line), line, ctx)
    return parser.polynomial(ordering)


def parse_monomial(text: str, ctx: VariableContext, line: int = 1) -> Monomial:
    """A single monomial with an implicit coefficient of one, e.g. ``x^2*y``."""
    parser = _Parser(_tokenize(text, line), line, ctx)
    if parser.peek().kind == "END":
        parser.fail("expected a monomial")
    coeff, exps = parser.term()
    tok = parser.peek()
    if tok.kind != "END":
        parser.fail("a monomial holds a single term", tok)
    if coeff != 1:
        raise ParseError("a monomial must carry coefficient 1", line, 1)
    return _monomial(ctx, exps)


def _read_lines(
    text: str, ctx: Optional[VariableContext], parse_line: Callable[[str, VariableContext, int], object]
) -> tuple[tuple, VariableContext, list[str]]:
    """Parse each content line with ``parse_line(text, ctx, line)``, as
    ``parse_polynomial_file`` describes."""
    lines = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1) if raw.strip()[:1] not in ("", "#")]
    if not lines:
        raise ParseError("empty input", 1, 1)
    warnings = []
    if ctx is None:
        tokens = [tok for lineno, raw in lines for tok in _tokenize(raw, lineno)]
        names = tuple(dict.fromkeys(tok.text for tok in tokens if tok.kind == "NAME"))
        if not names:
            raise ParseError("no variables found and none declared", lines[0][0], 1)
        ctx = VariableContext(names)
        warnings.append(f"variables inferred from input: {','.join(names)}")
    return tuple(parse_line(raw, ctx, lineno) for lineno, raw in lines), ctx, warnings


def parse_polynomial_file(
    text: str, ctx: Optional[VariableContext], ordering: Ordering
) -> tuple[tuple[Polynomial, ...], VariableContext, list[str]]:
    """Parse one polynomial per line; ``#`` lines and blanks are skipped.

    Without a declared context the variables are inferred in order of first
    appearance, which is reported as a warning.
    """
    return _read_lines(text, ctx, lambda raw, ctx, lineno: parse_polynomial(raw, ctx, ordering, lineno))


def parse_monomial_file(
    text: str, ctx: Optional[VariableContext]
) -> tuple[tuple[Monomial, ...], VariableContext, list[str]]:
    """Parse one monomial per line with the same conventions as polynomials."""
    return _read_lines(text, ctx, parse_monomial)
