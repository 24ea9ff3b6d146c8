"""Parser for the polynomial expression language.

The input grammar, which is the public contract for every polynomial
argument accepted on the command line:

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | VAR | atom '^' NAT | '(' expr ')'
    NUMBER := NAT ('/' NAT)?
    NAT    := digit+        (ASCII 0-9 only, at most 4300 digits)

Whitespace separates tokens and is otherwise ignored.  There is no
implicit multiplication ("2x" is a syntax error), '^' binds tighter than
unary minus and is non-associative (towers need parentheses), '/' occurs
only inside rational literals, and exponents are literal naturals of at
most 4096.  A natural has at most 4300 digits, the default limit of
``int()`` on Python 3.11 and later, enforced here on every version.  The
one variable is x.

Parsing is total: any string either yields a polynomial or raises
:class:`ParseError` with the offset of the offending character and the
token kinds that would have been acceptable there.  The canonical printed
form is ``str`` of the polynomial, which parses back to an equal one.
"""

from __future__ import annotations

from fractions import Fraction

from .unipoly import UniPoly, X

MAX_EXPONENT = 4096
MAX_NAT_DIGITS = 4300

# Each nesting level costs a few interpreter stack frames, so the guard
# must trip well before CPython's default recursion limit would.
_MAX_PAREN_DEPTH = 120


class ParseError(ValueError):
    """Rejected input, with the offset where parsing stopped."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        super().__init__(f"{message} (offset {offset})")


class UnknownVariableError(ParseError):
    """An identifier outside the allowed variable set."""


class ExponentRangeError(ParseError):
    """An exponent that is not a literal natural number at most 4096."""


_OPERATORS = "+-*/^()"
_DIGITS = "0123456789"


def _tokenize(text: str):
    """Split into (kind, value, offset) triples; kinds are 'nat', 'name',
    single-character operators, and a final 'end'."""
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < size and text[i] in _DIGITS:
                i += 1
            if i - start > MAX_NAT_DIGITS:
                raise ParseError(
                    f"natural number of {i - start} digits exceeds the limit "
                    f"{MAX_NAT_DIGITS}", start
                )
            tokens.append(("nat", int(text[start:i]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, size))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message, expected):
        kind, _, offset = self.peek()
        raise ParseError(message, offset, expected)

    def parse(self):
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input after expression", {"+", "-", "*", "^", "end"})
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            value = value + right if op == "+" else value - right
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.unary()
        return value

    def unary(self):
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        value = self.atom()
        return -value if negate else value

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "nat":
            self.advance()
            base = self.number(value)
        elif kind == "name":
            self.advance()
            if value != "x":
                raise UnknownVariableError(
                    f"unknown variable {value!r} (allowed: x)", offset
                )
            base = X
        elif kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > _MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested too deeply", offset)
            base = self.expr()
            self.depth -= 1
            if self.peek()[0] != ")":
                self.fail("unclosed parenthesis", {")"})
            self.advance()
        else:
            self.fail("expected a number, variable, or parenthesis",
                      {"nat", "name", "(", "-"})
        return self.power(base)

    def number(self, numerator: int) -> Fraction:
        if self.peek()[0] == "/":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "nat":
                self.fail("expected a natural number after '/'", {"nat"})
            if value == 0:
                raise ParseError("zero denominator in rational literal", offset)
            self.advance()
            return Fraction(numerator, value)
        return Fraction(numerator)

    def power(self, base):
        if self.peek()[0] != "^":
            return base
        self.advance()
        kind, value, offset = self.peek()
        if kind == "-":
            raise ExponentRangeError("exponents must be nonnegative", offset)
        if kind != "nat":
            self.fail("expected a natural-number exponent", {"nat"})
        if value > MAX_EXPONENT:
            raise ExponentRangeError(
                f"exponent {value} exceeds the limit {MAX_EXPONENT}", offset
            )
        self.advance()
        result = base ** value
        if self.peek()[0] == "^":
            self.fail("'^' is non-associative; parenthesize power towers", {"end"})
        return result


def parse_uni(text: str) -> UniPoly:
    """Parse an expression in the variable x to a UniPoly."""
    if not isinstance(text, str):
        raise TypeError("polynomial source must be a string")
    value = _Parser(text).parse()
    if isinstance(value, UniPoly):
        return value
    return UniPoly.constant(value)

