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

One regular expression splits the whole text into tokens: runs of ASCII
digits, runs of ``\\w`` (``str.isalnum`` or '_'; names start with
``str.isalpha`` or '_') and single characters other than ``\\s``
(``str.isspace``).  They parse into a postfix program with no arithmetic,
so every error comes first; one loop then runs it on values x**v *
sum(ints[i] * x**i) / den, combining a sum of k terms once, over one lcm.
The loop also keeps the factors of a product of powers, a sum as one,
and records them on the result (:func:`broughton.unipoly._written_factors`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .unipoly import UniPoly, _make, _mul_ints, _positive, _pow_ints, _primitive, _x_split

MAX_EXPONENT = 4096
MAX_NAT_DIGITS = 4300
_MAX_PAREN_DEPTH = 120  # deeper nesting is a ParseError


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


_TOKEN = re.compile(r"[0-9]+|\w+|\S")  # a search, so whitespace is skipped
_OPERATORS = "+-*/^()"
_PUSH, _POW, _MUL, _SUM = range(4)  # the ops of (op, arg) instructions
_ZERO, _X = (0, (), 1), (1, (1,), 1)


def _bad(token):
    """The message that rejects ``token``, or None."""
    if "0" <= token[0] <= "9":
        if len(token) > MAX_NAT_DIGITS:
            return f"natural number of {len(token)} digits exceeds the limit {MAX_NAT_DIGITS}"
    elif not (token[0].isalpha() or token[0] == "_" or token in _OPERATORS):
        return f"unexpected character {token[0]!r}"
    return None


def _tokenize(text: str):
    """The tokens of ``text`` and "" for the end; a bad one raises."""
    tokens = _TOKEN.findall(text)
    if any(map(_bad, set(tokens))):
        pos = next(pos for pos, token in enumerate(tokens) if _bad(token))
        _fail(text, pos, _bad(tokens[pos]))
    return tokens + [""]


def _fail(text, pos, message, expected=(), error=ParseError):
    """Raise ``error`` at the offset of token ``pos`` of ``text``."""
    offsets = [match.start() for match in _TOKEN.finditer(text)] + [len(text)]
    raise error(message, offsets[pos], expected)


def _program(text, tokens, pos, emit, depth=0):
    """Emit the program of the sum from token ``pos`` on and return the
    position after it, or raise the first error in reading order.  Two or
    more terms, or one negated term, end in one _SUM."""
    signs, sign = [], False
    while True:  # each term
        factors = 0
        while True:  # each factor
            while tokens[pos] == "-":
                sign, pos = not sign, pos + 1
            token = tokens[pos]
            if token == "(":
                if depth == _MAX_PAREN_DEPTH:
                    _fail(text, pos, "parentheses nested too deeply")
                pos = _program(text, tokens, pos + 1, emit, depth + 1)
                if tokens[pos] != ")":
                    _fail(text, pos, "unclosed parenthesis", {")"})
            elif token == "x":
                emit((_PUSH, _X))
            elif token.isdigit():
                num, den = int(token), 1
                if tokens[pos + 1] == "/":
                    pos += 2
                    if not tokens[pos].isdigit():
                        _fail(text, pos, "expected a natural number after '/'", {"nat"})
                    den = int(tokens[pos])
                    if not den:
                        _fail(text, pos, "zero denominator in rational literal")
                common = math.gcd(num, den)
                emit((_PUSH, (0, [num // common], den // common) if num else _ZERO))
            elif token and token not in _OPERATORS:
                _fail(text, pos, f"unknown variable {token!r} (allowed: x)", (),
                      UnknownVariableError)
            else:
                _fail(text, pos, "expected a number, variable, or parenthesis",
                      {"nat", "name", "(", "-"})
            pos += 1
            if tokens[pos] == "^":
                pos += 1
                if tokens[pos] == "-":
                    _fail(text, pos, "exponents must be nonnegative", (), ExponentRangeError)
                if not tokens[pos].isdigit():
                    _fail(text, pos, "expected a natural-number exponent", {"nat"})
                exponent = int(tokens[pos])
                if exponent > MAX_EXPONENT:
                    _fail(text, pos, f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                          (), ExponentRangeError)
                pos += 1
                if tokens[pos] == "^":
                    _fail(text, pos, "'^' is non-associative; parenthesize power towers",
                          {"end"})
                emit((_POW, exponent))
            factors += 1
            if factors > 1:
                emit((_MUL, None))
            if tokens[pos] != "*":
                break
            pos += 1
        signs.append(sign)
        if tokens[pos] != "+" and tokens[pos] != "-":
            break
        sign, pos = tokens[pos] == "-", pos + 1
    if len(signs) > 1 or sign:
        emit((_SUM, signs))
    if not depth and tokens[pos]:
        _fail(text, pos, "trailing input after expression", {"+", "-", "*", "^", "end"})
    return pos


def _evaluate(program) -> UniPoly:
    """Run the program on values (v, ints, den); ints has nonzero ends.
    Beside each value run its (value, exponent) factors, None for one."""
    stack, written = [], []
    for op, arg in program:
        if op == _PUSH:
            stack.append(arg)
            written.append(None)
        elif op == _POW:  # as UniPoly.__pow__ raises the base in lowest terms
            base = v, ints, den = stack[-1]
            common = math.gcd(den, *ints)
            if common != 1:
                ints, den = [c // common for c in ints], den // common
            if not arg:
                ints = [1]
            elif ints and arg > 1:
                ints = _pow_ints(ints, arg)
            stack[-1] = v * arg, ints, den ** arg
            factors = written[-1]
            written[-1] = [(base, arg)] if factors is None else [(b, k * arg) for b, k in factors]
        elif op == _MUL:
            right = vb, b, den_b = stack.pop()
            left = va, a, den_a = stack[-1]
            stack[-1] = (va + vb, _mul_ints(a, b), den_a * den_b) if a and b else _ZERO
            factors = written.pop()
            written[-1] = (written[-1] or [(left, 1)]) + (factors or [(right, 1)])
        else:  # each term, negated where arg says, scaled once over one lcm
            terms = stack[-len(arg):]
            del stack[-len(arg):]
            den = math.lcm(*[d for _, _, d in terms])
            out = [0] * max([v + len(ints) for v, ints, _ in terms])
            for (v, ints, d), negative in zip(terms, arg):
                scale = -(den // d) if negative else den // d
                if len(ints) == 1:
                    out[v] += ints[0] * scale
                else:  # a zero term changes nothing
                    end = v + len(ints)
                    out[v:end] = [a + scale * c for a, c in zip(out[v:end], ints)]
            while out and not out[-1]:
                out.pop()
            stack.append(_x_split(out) + (den,) if out else _ZERO)
            if len(arg) > 1:  # one negated term keeps its factors
                written[-len(arg):] = [None]
    v, ints, den = stack[0]
    poly = _make([0] * v + list(ints), den)
    if poly and written[0] is not None:
        _record(poly, written[0])
    return poly


def _record(poly, factors):
    """Record x and the primitive rest of each nonzero power, and the unit."""
    recorded, lead = [], 1
    for (v, ints, _), k in factors:
        if v and k:
            recorded.append(((0, 1), v * k))
        if len(ints) > 1 and k:
            f = _positive(_primitive(ints))
            recorded.append((f, k))
            lead *= f[-1] ** k
    poly._factors = Fraction(poly._num[-1], poly._den * lead), tuple(recorded)


def parse_uni(text: str) -> UniPoly:
    """Parse an expression in the variable x to a UniPoly."""
    if not isinstance(text, str):
        raise TypeError("polynomial source must be a string")
    program = []
    _program(text, _tokenize(text), 0, program.append)
    return _evaluate(program)
