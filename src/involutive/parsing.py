"""Text forms for monomials and polynomials.

The grammar is deliberately small: integer or rational coefficients
(``3``, ``-7/2``), ``+``/``-`` between terms, ``*`` between factors and
``^`` for exponents, e.g. ``x^2*y - 1``.  Numbers are ASCII digits and
names are those ``VariableContext`` accepts; any other character is an
error, and so is a number with more digits than ``int`` converts (4,300
unless Python is told otherwise).  Errors carry the line and column where
parsing stopped.

One compiled regex scans a line into (kind, text, column) tokens: NUM,
NAME, OP, and BAD for any other non-space character, which fails the
whole line before its grammar is read, so a bad character wins over a
grammar error earlier in the line.  The regex skips the characters
between its matches, which are those ``str.isspace`` accepts, as BAD takes
every other one.  The parser reads the tokens with ``take``, which
consumes the next token only when it matches and otherwise returns None.
"""
from __future__ import annotations

import re
import sys
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


_TOKEN = re.compile(rf"(?P<NUM>[0-9]+)|(?P<NAME>{_NAME.pattern})|(?P<OP>[-+*/^])|(?P<BAD>\S)")


def _scan(text: str, line: int) -> list[tuple[str, str, int]]:
    """The (kind, text, column) tokens of one line, closed by an END token."""
    tokens = [(m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN.finditer(text)]
    for kind, tok, col in tokens:
        if kind == "BAD":
            raise ParseError(f"unexpected character {tok!r}", line, col)
    tokens.append(("END", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, line: int, ctx: VariableContext):
        self.tokens = _scan(text, line)
        self.pos = 0
        self.line = line
        self.ctx = ctx

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos][0] in kinds

    def take(self, kind: str, texts: str = "") -> Optional[str]:
        """The text of the next token, consumed, when it is of this kind and,
        when texts is given, one of the characters of texts; None otherwise."""
        next_kind, text, _ = self.tokens[self.pos]
        if next_kind != kind or texts and text not in texts:
            return None
        self.pos += 1
        return text

    def fail(self, message: str, back: int = 0):
        """Raise at the next token, or at the one ``back`` tokens before it."""
        raise ParseError(message, self.line, self.tokens[self.pos - back][2])

    def number(self) -> Optional[int]:
        """The value of the next token, consumed, when it is a NUM; None
        otherwise.  A number longer than ``int`` converts fails at its
        column."""
        text = self.take("NUM")
        if text is None:
            return None
        try:
            return int(text)
        except ValueError:
            self.fail(f"number too long: {len(text)} digits, at most {sys.get_int_max_str_digits()}", back=1)

    def factor(self) -> tuple[Fraction, dict[int, int]]:
        num = self.number()
        if num is not None:
            value = Fraction(num)
            if self.take("OP", "/"):
                den = self.number()
                if den is None:
                    self.fail("expected an integer denominator")
                if den == 0:
                    self.fail("zero denominator", back=1)
                value /= den
            return value, {}
        name = self.take("NAME")
        if name is None:
            self.fail("expected a coefficient or a variable")
        try:
            idx = self.ctx.index(name)
        except KeyError:
            self.fail(f"unknown variable {name!r}", back=1)
        power = 1
        if self.take("OP", "^"):
            if self.take("OP", "-"):
                self.fail("exponent must be a non-negative integer", back=1)
            power = self.number()
            if power is None:
                self.fail("expected an integer exponent")
        return Fraction(1), {idx: power}

    def term(self) -> tuple[Fraction, dict[int, int]]:
        coeff, exps = self.factor()
        while self.take("OP", "*"):
            c2, e2 = self.factor()
            coeff *= c2
            for idx, p in e2.items():
                exps[idx] = exps.get(idx, 0) + p
        if self.at("NUM", "NAME"):
            self.fail("expected an operator between factors")
        return coeff, exps

    def polynomial(self, ordering: Ordering) -> Polynomial:
        sign = self.take("OP", "+-") or "+"
        if self.at("END"):
            self.fail("expected a term")
        terms: list[tuple[Monomial, Fraction]] = []
        while sign:
            coeff, exps = self.term()
            terms.append((_monomial(self.ctx, exps), -coeff if sign == "-" else coeff))
            sign = self.take("OP", "+-")
        if not self.at("END"):
            self.fail("expected '+' or '-' between terms")
        return Polynomial.from_terms(self.ctx, ordering, terms)


def _monomial(ctx: VariableContext, exps: dict[int, int]) -> Monomial:
    """The monomial with the exponents of a parsed term, keyed by variable position."""
    return Monomial(ctx, tuple(exps.get(i, 0) for i in range(ctx.n)))


def parse_polynomial(text: str, ctx: VariableContext, ordering: Ordering, line: int = 1) -> Polynomial:
    parser = _Parser(text, line, ctx)
    return parser.polynomial(ordering)


def parse_monomial(text: str, ctx: VariableContext, line: int = 1) -> Monomial:
    """A single monomial with an implicit coefficient of one, e.g. ``x^2*y``."""
    parser = _Parser(text, line, ctx)
    if parser.at("END"):
        parser.fail("expected a monomial")
    coeff, exps = parser.term()
    if not parser.at("END"):
        parser.fail("a monomial holds a single term")
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
        tokens = [token for lineno, raw in lines for token in _scan(raw, lineno)]
        names = tuple(dict.fromkeys(name for kind, name, _ in tokens if kind == "NAME"))
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
