"""Independent brute-force implementations used as test oracles.

Nothing in this module imports the package under test.  Polynomials are
plain low-to-high coefficient lists of Fractions (univariate) or dicts
keyed by (x_power, y_power) (bivariate), and every algorithm is the naive
schoolbook one, so agreement with the package is meaningful.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction


# -- univariate: low-to-high coefficient lists -------------------------------

def l_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def l_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return l_trim(out)


def l_neg(a):
    return [-c for c in a]


def l_mul(a, b):
    a, b = l_trim(a), l_trim(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return l_trim(out)


def l_pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = l_mul(out, a)
    return out


def l_eval(a, t):
    """Direct power-sum evaluation (no Horner)."""
    t = Fraction(t)
    return sum((c * t ** i for i, c in enumerate(a)), Fraction(0))


def l_from_roots(pairs, unit=1):
    """Expand unit * prod (x - root)**multiplicity."""
    out = [Fraction(unit)]
    for root, multiplicity in pairs:
        out = l_mul(out, l_pow([Fraction(-root), Fraction(1)], multiplicity))
    return out


def l_compose(outer, inner):
    """outer(inner) by Horner on coefficient lists."""
    acc = []
    for c in reversed(l_trim(outer)):
        acc = l_add(l_mul(acc, inner), [c])
    return acc


def trial_root_count(coeffs, candidates):
    """Distinct roots among the candidate points, by direct evaluation."""
    return sum(1 for a in sorted(set(candidates)) if l_eval(coeffs, a) == 0)


# -- bivariate: {(x_power, y_power): Fraction} --------------------------------

def b_trim(d):
    return {k: v for k, v in d.items() if v}


def b_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return b_trim(out)


def b_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return b_trim(out)


def b_pow(a, k):
    out = {(0, 0): Fraction(1)}
    for _ in range(k):
        out = b_mul(out, a)
    return out


def b_partial_x(a):
    return {(i - 1, j): i * v for (i, j), v in a.items() if i}


def b_partial_y(a):
    return {(i, j - 1): j * v for (i, j), v in a.items() if j}


def b_from_uni(coeffs, variable):
    """Lift a univariate coefficient list into x or y."""
    assert variable in ("x", "y")
    if variable == "x":
        return b_trim({(i, 0): Fraction(c) for i, c in enumerate(coeffs)})
    return b_trim({(0, j): Fraction(c) for j, c in enumerate(coeffs)})


# -- division, Euclid and Sylvester determinants ------------------------------

def l_sub(a, b):
    return l_add(a, l_neg(b))


def l_divmod(a, b):
    """Quotient and remainder of schoolbook long division by nonzero b."""
    a, b = l_trim(a), l_trim(b)
    rem = list(a)
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quotient) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quotient[i] = c
        for j, bc in enumerate(b):
            rem[i + j] -= c * bc
    return l_trim(quotient), l_trim(rem)


def l_exact_div(a, b):
    """Quotient of a polynomial division known to be exact; raises
    ArithmeticError if a remainder is left."""
    quotient, rem = l_divmod(a, b)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quotient


def l_monic(a):
    return [c / a[-1] for c in a]


def l_gcd(a, b):
    """Monic gcd of two coefficient lists, not both zero, by the Euclidean
    remainder sequence over the rationals, each remainder made monic."""
    a, b = l_trim(a), l_trim(b)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, l_divmod(a, b)[1]
        if b:
            b = l_monic(b)
    return l_monic(a)


def l_derivative(a):
    return l_trim([i * c for i, c in enumerate(a) if i])


def l_squarefree(a):
    """``(unit, parts)`` of a nonzero coefficient list: its leading
    coefficient and its monic squarefree parts with their multiplicities,
    increasing, by Yun's algorithm over the rationals on Fraction lists,
    one gcd per multiplicity."""
    a = l_trim([Fraction(c) for c in a])
    unit = a[-1]
    if len(a) == 1:
        return unit, []
    a = l_monic(a)
    g = l_gcd(a, l_derivative(a))
    w = l_exact_div(a, g)
    z = l_sub(l_exact_div(l_derivative(a), g), l_derivative(w))
    parts = []
    multiplicity = 1
    while len(w) > 1:
        f = l_gcd(w, z)
        if len(f) > 1:
            parts.append((f, multiplicity))
        w = l_exact_div(w, f)
        z = l_sub(l_exact_div(z, f), l_derivative(w))
        multiplicity += 1
    return unit, parts


def bareiss_determinant(rows, zero, one, mul, sub, div):
    """Fraction-free determinant (Bareiss) over an integral domain given by
    its zero, one and operations; ``div`` performs the exact divisions the
    algorithm guarantees.  Entries equal to zero must be falsy.  Row swaps
    handle zero pivots and only flip the sign."""
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = div(sub(mul(row_i[j], pivot), mul(head, m[k][j])), prev)
            row_i[k] = zero
        prev = pivot
    det = m[n - 1][n - 1]
    return sub(zero, det) if sign < 0 else det


def sylvester_rows(a_coeffs, b_coeffs, zero):
    """Sylvester matrix rows, a-block first, coefficients high to low."""
    m = len(a_coeffs) - 1
    n = len(b_coeffs) - 1
    rows = []
    for shift in range(n):
        row = [zero] * (m + n)
        row[shift:shift + m + 1] = a_coeffs[::-1]
        rows.append(row)
    for shift in range(m):
        row = [zero] * (m + n)
        row[shift:shift + n + 1] = b_coeffs[::-1]
        rows.append(row)
    return rows


def l_resultant(a, b):
    """Res(a, b) of two nonzero coefficient lists: the Sylvester
    determinant with the a-block on top, by Bareiss over the rationals."""
    rows = sylvester_rows(l_trim(a), l_trim(b), Fraction(0))
    return bareiss_determinant(rows, Fraction(0), Fraction(1),
                               operator.mul, operator.sub, operator.truediv)


def b_resultant_y(a, b):
    """Res_y(a, b) of two nonzero bivariate dicts, as an x-coefficient
    list: the Sylvester determinant in y (a-block on top) with entries in
    Q[x], by Bareiss with exact polynomial division."""
    rows = sylvester_rows(b_y_columns(a), b_y_columns(b), [])
    return bareiss_determinant(rows, [], [Fraction(1)], l_mul, l_sub, l_exact_div)


def b_y_columns(a):
    """Coefficient lists in x of y**0, ..., y**deg_y of a nonzero dict."""
    height = max(j for _, j in a) + 1
    columns = [[] for _ in range(height)]
    for (i, j), v in a.items():
        column = columns[j]
        column.extend([Fraction(0)] * (i + 1 - len(column)))
        column[i] += v
    return [l_trim(column) for column in columns]


def clear_denominators(columns):
    """``(integers, scale)``: ``scale`` is the lcm of every denominator in the
    Fraction sequences ``columns`` and ``integers`` holds ``scale`` times
    each sequence, as lists of ints."""
    scale = 1
    for column in columns:
        for c in column:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    return [[int(c * scale) for c in column] for column in columns], scale


def b_swap(a):
    """Exchange the variables: returns b with b(x, y) = a(y, x)."""
    return {(j, i): v for (i, j), v in a.items()}


# -- the integer evaluation-interpolation resultant ---------------------------

def integer_bareiss_determinant(rows):
    """Fraction-free determinant (Bareiss) of a square integer matrix.

    Every division the elimination performs is exact, so it runs on plain
    ints with ``//``.  Row swaps handle zero pivots and only flip the sign.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * pivot_row[j]) // prev
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def interpolate_naturals(values):
    """Integer coefficients, low to high, of the integer polynomial f of
    degree below ``len(values)`` with f(t) = values[t] for t = 0, 1, ...

    Newton's forward-difference form f = sum_k (Delta^k f(0) / k!) *
    x(x-1)...(x-k+1).  For f with integer coefficients every
    Delta^k f(0) is k! times an integer (Delta^k x^j at 0 is k! times a
    Stirling number), so the divisions are exact; the falling factorials
    are expanded by a Horner pass from the top.
    """
    newton = []
    row = list(values)
    factorial = 1
    for k in range(len(values)):
        if k:
            factorial *= k
        newton.append(row[0] // factorial)
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + newton[k]
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= k * c
        shifted[0] += newton[k]
        coeffs = shifted
    return l_trim(coeffs)


def integer_resultant_y(a, b, degree):
    """Res_y(A, B) of integer polynomials given as lists of integer
    x-coefficient lists by power of y, for a bound ``degree`` on its
    x-degree: integer Bareiss determinants of the fixed-shape Sylvester
    matrix at x = 0..degree, interpolated exactly (Collins 1971)."""
    values = []
    for t in range(degree + 1):
        a_t = [sum(c * t ** i for i, c in enumerate(column)) for column in a]
        b_t = [sum(c * t ** i for i, c in enumerate(column)) for column in b]
        values.append(integer_bareiss_determinant(sylvester_rows(a_t, b_t, 0)))
    return interpolate_naturals(values)


# -- the arrangement curves and their irreducibility --------------------------

def b_build_g(q):
    """The fiber curve g = q(x)*y - 1 of a coefficient list q."""
    return b_add({(i, 1): Fraction(c) for i, c in enumerate(q)}, {(0, 0): Fraction(-1)})


def b_build_f(p, q):
    """The shifted curve f = p(x)*q(x)*y - (p(x) + 1) of coefficient lists."""
    lead = {(i, 1): c for i, c in enumerate(l_mul(p, q))}
    return b_add(lead, b_from_uni(l_neg(l_add(p, [Fraction(1)])), "x"))


def b_is_irreducible_y_linear(a):
    """Irreducibility of a bivariate dict A(x)*y + B(x) of y-degree one.

    Any factorization over the complex numbers puts a common x-factor of A
    and B in front, so the form is irreducible exactly when gcd(A, B) is
    constant (for B = 0, when A is)."""
    columns = b_y_columns(a)
    if len(columns) != 2:
        raise ValueError("the irreducibility test needs y-degree exactly one")
    rest, lead = columns
    if not rest:
        return len(lead) == 1
    return len(l_gcd(lead, rest)) == 1


# -- brute-force functional decomposition ------------------------------------

def brute_decompose(coeffs, e):
    """Solve the full coefficient system of p = H(Q) at inner degree e.

    Q is normalized monic with zero constant term.  Works top coefficient
    down: each equation either introduces exactly one new unknown (solved
    linearly) or is a consistency check.  Returns (h_coeffs, q_coeffs) both
    low-to-high, or None.  Complete for the normalization, so disagreement
    with any other decomposition routine is a bug on one side.
    """
    coeffs = l_trim(coeffs)
    n = len(coeffs) - 1
    assert n >= 4 and n % e == 0 and 2 <= e <= n // 2
    r = n // e
    lead = coeffs[-1]
    q = [Fraction(0)] * e + [Fraction(1)]
    h = [None] * (r + 1)
    h[r] = lead
    q_powers = None
    for k in range(1, n + 1):
        target = coeffs[n - k]
        if k <= e - 1:
            partial = l_pow(q, r)
            got = h[r] * partial[n - k]
            q[e - k] = (target - got) / (r * h[r])
            continue
        if q_powers is None:
            q_powers = [l_pow(q, i) for i in range(r + 1)]
        total = Fraction(0)
        for i in range(r + 1):
            if h[i] is None:
                continue
            power = q_powers[i]
            if n - k < len(power):
                total += h[i] * power[n - k]
        if k % e == 0 and h[r - k // e] is None:
            h[r - k // e] = target - total
        elif total != target:
            return None
    composed = l_compose(h, q)
    if l_trim(composed) != coeffs:
        return None
    return l_trim(h), q


def l_decompose_at(coeffs, e):
    """p = H(Q) at inner degree e by the Q-adic digit expansion of p with
    schoolbook long division.

    Q is normalized monic with zero constant term, its lower coefficients
    solved one at a time from the top ones of monic p.  Each remainder
    by Q must be a constant, the next coefficient of H.  Returns
    (h_coeffs, q_coeffs) both low-to-high, or None.
    """
    coeffs = l_trim(coeffs)
    n = len(coeffs) - 1
    assert n >= 4 and n % e == 0 and 2 <= e <= n // 2
    r = n // e
    monic = l_monic(coeffs)
    q = [Fraction(0)] * e + [Fraction(1)]
    for k in range(1, e):
        q[e - k] = (monic[n - k] - l_pow(q, r)[n - k]) / r
    h = []
    rest = coeffs
    while rest:
        rest, digit = l_divmod(rest, q)
        if len(digit) > 1:
            return None
        h.append(digit[0] if digit else Fraction(0))
    if l_compose(h, q) != coeffs:
        return None
    return h, q


# -- the expression language by recursive descent ------------------------------
#
# A character-loop tokenizer and a recursive-descent parser that evaluates
# as it reads, over sparse polynomials of its own.  The error classes
# mirror broughton.parser's by name, message, offset and expected set.

MAX_EXPONENT = 4096
MAX_NAT_DIGITS = 4300
_MAX_PAREN_DEPTH = 120


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        super().__init__(f"{message} (offset {offset})")


class UnknownVariableError(ParseError):
    pass


class ExponentRangeError(ParseError):
    pass


class Sparse:
    """A polynomial in x as a dict {power: nonzero Fraction}; ints and
    Fractions mix in on either side."""

    def __init__(self, terms):
        self.terms = {k: c for k, c in terms.items() if c}

    @staticmethod
    def terms_of(value):
        return value.terms if isinstance(value, Sparse) else {0: Fraction(value)}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in Sparse.terms_of(other).items():
            out[k] = out.get(k, 0) + c
        return Sparse(out)

    __radd__ = __add__

    def __neg__(self):
        return Sparse({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Sparse(Sparse.terms_of(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for i, a in self.terms.items():
            for j, b in Sparse.terms_of(other).items():
                out[i + j] = out.get(i + j, 0) + a * b
        return Sparse(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Sparse({0: Fraction(1)})
        for _ in range(n):
            out = out * self
        return out


X = Sparse({1: Fraction(1)})

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


def rd_parse(text: str) -> list:
    """The expression ``text`` as a low-to-high list of Fractions, or the
    first error in reading order, read by recursive descent."""
    terms = Sparse.terms_of(_Parser(text).parse())
    out = [Fraction(0)] * (max(terms, default=-1) + 1)
    for k, c in terms.items():
        out[k] = c
    return l_trim(out)


# -- characteristic variety ----------------------------------------------------

def torsion_components(d: int) -> list:
    """The JSON entries of the translated tori W_j = {exp(2*pi*i*j/d)} x C*,
    j = 1, ..., d - 1: the torsion point (j/d, 0) as reduced Fraction
    strings and the direction (0, 1)."""
    out = []
    for j in range(1, d):
        a0, a1 = Fraction(j, d), Fraction(0)
        out.append({
            "torsion": [f"{a0.numerator}/{a0.denominator}", f"{a1.numerator}/{a1.denominator}"],
            "direction": [0, 1],
        })
    return out


# -- generators ----------------------------------------------------------------

def random_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_coeffs(rng: random.Random, degree: int, span: int = 6) -> list:
    """Random exact coefficients with the requested exact degree."""
    out = [random_fraction(rng, span) for _ in range(degree)]
    lead = Fraction(0)
    while not lead:
        lead = random_fraction(rng, span)
    out.append(lead)
    return out
