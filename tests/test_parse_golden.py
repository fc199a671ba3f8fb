"""Pins what the parser returns or reports on a table of inputs.

``parse_golden.json`` holds the outcome of every named case in ``CASES``
and one SHA-256 over the outcomes of ``CORPUS_SIZE`` seeded random
strings.  An outcome is the parsed value, with each polynomial as its
(exponents, coefficient) terms, or the line, column and message of the
``ParseError``.  The named cases cover each of the parser's error messages,
line numbers above 1 and the order in which errors win: a bad character
anywhere in a line beats a grammar error earlier in it, and with inferred
variables a bad character on any line beats a grammar error on an earlier
one.  The random strings mix names, numbers, operators, comment marks,
line breaks, ASCII and Unicode spaces, Unicode digits and other
characters, and go through all four entry points.

Run this file as a script to print the outcomes of the installed package:
``PYTHONPATH=src python tests/test_parse_golden.py > tests/parse_golden.json``.
"""
import hashlib
import json
import random
import re
import sys
from pathlib import Path

from involutive import (
    Monomial,
    Ordering,
    ParseError,
    Polynomial,
    VariableContext,
    parse_monomial,
    parse_monomial_file,
    parse_polynomial,
    parse_polynomial_file,
)

RECORDS = Path(__file__).with_name("parse_golden.json")
CTX = VariableContext.of("x", "y", "z")
ORDERING = Ordering.DEGREVLEX
CORPUS_SIZE = 20000
SEED = 22
# fragments of the random strings: names, numbers, operators, and spaces
# (ASCII, no-break, em and ideographic); rarer, Unicode digits, a
# non-ASCII letter and other characters; the file entry points also see
# line breaks, among them characters ``splitlines`` breaks at
FRAGMENTS = (
    "x", "y", "z", "w", "xy", "_a", "x2", "0", "1", "2", "12", "007",
    "/", "^", "*", "+", "-", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000",
)
ODD = ("\u0663", "\u00b2", "\u00e9", "(", ".", "#")
BREAKS = ("\n", "\n", "\n#", "\r\n", "\x1c", "\u2028")

# name: (entry point, text, declared variables or None, line)
CASES = {
    "unexpected-character": ("polynomial", "x + é", CTX, 1),
    "denominator": ("polynomial", "1/x", CTX, 1),
    "denominator-at-end": ("polynomial", "x + 1/", CTX, 1),
    "zero-denominator": ("polynomial", "1/0*x", CTX, 1),
    "unknown-variable": ("polynomial", "x + q", CTX, 1),
    "negative-exponent": ("polynomial", "x^-1", CTX, 1),
    "exponent": ("polynomial", "x^y", CTX, 1),
    "exponent-at-end": ("polynomial", "x^  ", CTX, 1),
    "factor": ("polynomial", "x + *y", CTX, 1),
    "factor-at-end": ("polynomial", "x*", CTX, 1),
    "operator-between-factors": ("polynomial", "2x", CTX, 1),
    "term": ("polynomial", "-", CTX, 1),
    "term-of-blank": ("polynomial", "   ", CTX, 1),
    "separator": ("polynomial", "x/2", CTX, 1),
    "monomial": ("monomial", "", CTX, 1),
    "monomial-single-term": ("monomial", "x + y", CTX, 1),
    "monomial-coefficient": ("monomial", "2*x", CTX, 1),
    "empty-input": ("polynomial_file", "# c\n\n  \n", CTX, 1),
    "no-variables": ("polynomial_file", "# c\n1\n2\n", None, 1),
    "bad-character-beats-earlier-grammar-error": ("polynomial", "x^y + é", CTX, 1),
    "inferred-bad-character-on-a-later-line-wins": ("polynomial_file", "x +\n# c\né", None, 1),
    "inferred-bad-character-on-the-next-line-wins": ("monomial_file", "2*x\ny é\n", None, 1),
    "declared-grammar-error-on-an-earlier-line-wins": ("polynomial_file", "x +\n# c\né", CTX, 1),
    "line-argument": ("polynomial", "x^y", CTX, 7),
    "line-of-a-file": ("polynomial_file", "x + 1\n\n# c\nx^-2\n", CTX, 1),
    "line-of-a-monomial-file": ("monomial_file", "x\n\n2*y\n", CTX, 1),
    "line-of-an-inferred-file": ("polynomial_file", "a*b\nb - 1\n# c\nc/0\n", None, 1),
    "polynomial": ("polynomial", " - 7/2*x^2*y + y*x*0 +3 - 007/14*z^01", CTX, 1),
    "polynomial-file-inferred": ("polynomial_file", "# c\ny + x\n  x*z - 1\n", None, 1),
    "monomial-file": ("monomial_file", "x^2\n1\nz*y*y\n", CTX, 1),
}


def _shape(value):
    """A JSON form of a parsed value."""
    if isinstance(value, Polynomial):
        return [[list(m.exps), str(c)] for m, c in value.terms]
    if isinstance(value, Monomial):
        return list(value.exps)
    if isinstance(value, VariableContext):
        return list(value.names)
    if isinstance(value, (tuple, list)):
        return [_shape(v) for v in value]
    return value


def outcome(entry: str, text: str, ctx, line: int) -> list:
    """The parsed value, or the position and message of the parse error."""
    try:
        if entry == "polynomial":
            value = parse_polynomial(text, ctx, ORDERING, line)
        elif entry == "monomial":
            value = parse_monomial(text, ctx, line)
        elif entry == "polynomial_file":
            value = parse_polynomial_file(text, ctx, ORDERING)
        else:
            value = parse_monomial_file(text, ctx)
    except ParseError as err:
        return ["error", err.line, err.col, err.message, str(err)]
    return ["ok", _shape(value)]


def _fragment(rng: random.Random, breaks: tuple) -> str:
    return rng.choice(ODD if rng.random() < 0.04 else FRAGMENTS + breaks)


def _term(rng: random.Random) -> str:
    """A term that the grammar accepts, spaced at random."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            factors.append(str(rng.randint(0, 20)) + (f"/{rng.randint(0, 9)}" if rng.random() < 0.3 else ""))
        else:
            factors.append(rng.choice("xyz") + (f"^{rng.randint(0, 12)}" if rng.random() < 0.4 else ""))
    return rng.choice(("*", " * ", "*  ")).join(factors)


def _random_text(rng: random.Random, breaks: tuple) -> str:
    """Half the time a string of fragments; otherwise a sum of terms that
    the grammar accepts with up to two fragments inserted or substituted."""
    if rng.random() < 0.5:
        return "".join(_fragment(rng, breaks) for _ in range(rng.randint(0, 12)))
    text = rng.choice(("", "-", "+ ", " - ")) + _term(rng)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice((" + ", "-", " -  ")) + _term(rng)
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(text))
        text = text[:i] + _fragment(rng, breaks) + text[i + rng.randint(0, 1):]
    return text


def corpus():
    """The seeded random inputs, as (entry point, text, context, line)."""
    rng = random.Random(SEED)
    entries = ("polynomial", "monomial", "polynomial_file", "monomial_file")
    out = []
    for _ in range(CORPUS_SIZE):
        entry = rng.choice(entries)
        if entry.endswith("file"):
            text = rng.choice(BREAKS).join(_random_text(rng, BREAKS) for _ in range(rng.randint(1, 3)))
        else:
            text = _random_text(rng, ())
        ctx = None if entry.endswith("file") and rng.random() < 0.5 else CTX
        out.append((entry, text, ctx, rng.randint(1, 3)))
    return out


def corpus_digest() -> str:
    outcomes = [outcome(*case) for case in corpus()]
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def record() -> dict:
    return {"cases": {name: outcome(*case) for name, case in CASES.items()}, "corpus_sha256": corpus_digest()}


def test_named_cases_pinned():
    want = json.loads(RECORDS.read_text())["cases"]
    got = {name: outcome(*case) for name, case in CASES.items()}
    assert sorted(got) == sorted(want)
    assert {name: got[name] for name in want if got[name] != want[name]} == {}


def test_every_error_message_is_covered():
    results = json.loads(RECORDS.read_text())["cases"].values()
    messages = {re.sub(r"'.*?'", "''", result[3]) for result in results if result[0] == "error"}
    assert len(messages) == 15, sorted(messages)


def test_random_corpus_pinned():
    assert corpus_digest() == json.loads(RECORDS.read_text())["corpus_sha256"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
