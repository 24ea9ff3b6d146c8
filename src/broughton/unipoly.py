"""Exact arithmetic for univariate polynomials with rational coefficients.

A polynomial is stored as integer numerators over one denominator: a tuple
``_num`` of ints, index ``i`` holding the numerator of the coefficient of
``x**i``, and one int ``_den > 0``, with gcd(_den, *_num) == 1 and no
trailing zero in ``_num``.  That form is unique, so the zero polynomial
stores nothing and equality is plain tuple equality.  Every operation is
exact; no floats enter at any point.

The degree of the zero polynomial is the sentinel :data:`NEG_INF` rather
than an integer, so the degree laws

    deg(a*b) = deg(a) + deg(b)
    deg(a+b) <= max(deg(a), deg(b))

hold without a bogus integer standing in for "minus infinity".

Every operation works on the numerators and the denominator as ints.
``Fraction`` appears only at the edges: the constructor accepts ints and
Fractions, and :attr:`UniPoly.coeffs`, :meth:`UniPoly.coefficient`,
:attr:`UniPoly.leading_coefficient` and evaluation return Fractions.

A product, a power and a gcd first take the lowest term x**v off each
numerator (:func:`_x_split`) and work on the rest, whose constant term is
nonzero: a product puts v_a + v_b zeros back in front, a power v*n and a
gcd min(v_a, v_b).  So a power of x, such as p = x**a of the paper's
standard pair, costs nothing in any of them, and a gcd whose x-free side
is a constant computes nothing.  The rest of a product takes one of two
routes:

* a shorter operand of at most :data:`_SCHOOLBOOK_MAX` entries multiplies
  by schoolbook, one shifted row per entry, so a constant on either side
  scales the other operand coefficient-wise;
* otherwise by Kronecker substitution: both numerator polynomials are
  evaluated at a power of two wide enough to hold every coefficient of
  the product (their absolute values are at most max|A| * max|B| *
  min(len A, len B), plus one bit for the sign), multiplied as two big
  integers, and read back in that base (von zur Gathen and Gerhard,
  *Modern Computer Algebra*, 8.4; Harvey 2009).

Products, squares and the parser's ``*`` multiply through
:func:`_mul_ints`.  Higher powers, here and in the parser, raise the rest
by J. C. P. Miller's recurrence (:func:`_series_power`, one small-by-big
product per term and coefficient); see :func:`_pow_ints`.
:func:`exact_div` divides the numerator by the primitive part of the
divisor's numerator over the integers, which Gauss's lemma makes exact
whenever the rational division is.  :func:`gcd` reads the gcd off one
integer gcd of the numerators' values at a power of two when their
coefficients are small (:func:`_heuristic_gcd`) and from
:mod:`broughton.modular`, the only code that works modulo a prime,
otherwise, and checks either by division over the integers, whose
quotients are the cofactors (:func:`_gcd_ints`); the squarefree
decomposition is Yun's loop on that gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Degree of the zero polynomial.  Compares below every integer.
NEG_INF = float("-inf")


def _scalar(value):
    """``value`` if it is a rational scalar (an int or a Fraction, not a
    bool), else None."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    return None


class UniPoly:
    """Dense univariate polynomial over the rationals.

    Instances are immutable and hashable; arithmetic goes through the usual
    operators.  Scalars (``int`` or ``Fraction``) mix freely on either side:

    >>> p = UniPoly([-1, 0, 1])          # x^2 - 1
    >>> p * p == UniPoly([1, 0, -2, 0, 1])
    True
    >>> p(2)
    Fraction(3, 1)

    Polynomials equal as rational functions are equal whatever their route:

    >>> UniPoly([Fraction(1, 2), 1]) == UniPoly([1, 2]) / 2
    True
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        items = list(coeffs)
        for c in items:
            if _scalar(c) is None:
                raise TypeError(f"coefficient {c!r} is not a rational scalar")
        # Each denominator is in lowest terms, so every prime power of
        # their lcm leaves some numerator unscaled and prime to it: the
        # numerators and the lcm are already coprime.
        den = math.lcm(*[c.denominator for c in items])
        num = [c.numerator * (den // c.denominator) for c in items]
        while num and not num[-1]:
            num.pop()
        self._num = tuple(num)
        self._den = den

    @classmethod
    def constant(cls, value) -> "UniPoly":
        s = _scalar(value)
        if s is None:
            raise TypeError(f"{value!r} is not a rational scalar")
        return _make([s.numerator], s.denominator)

    @property
    def coeffs(self) -> tuple:
        """Fraction coefficients, low degree first, no trailing zero."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._num])

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self._num) - 1 if self._num else NEG_INF

    @property
    def leading_coefficient(self) -> Fraction:
        """Leading coefficient; zero for the zero polynomial."""
        return Fraction(self._num[-1], self._den) if self._num else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self._num) <= 1

    # -- value protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other):
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self._num == coerced._num and self._den == coerced._den

    def __hash__(self):
        # Constants hash like the number they equal, so p == 3 implies
        # hash(p) == hash(3) and mixed-type dict keys stay coherent.
        if len(self._num) <= 1:
            return hash(self.coefficient(0))
        return hash((self._num, self._den))

    def __repr__(self):
        return f"UniPoly({self})"

    def text(self, variable="x"):
        """The polynomial written in ``variable``, as ``str`` writes it in x.

        >>> UniPoly([1, 0, -2]).text("y")
        '-2*y^2 + 1'
        """
        num, den = self._num, self._den
        if not num:
            return "0"
        # Descending powers, explicit signs, no 1 in front of a power of the
        # variable, and '*' between factors, so that the text in x parses back.
        rendered = []
        for exp in range(len(num) - 1, -1, -1):
            c = num[exp]
            if not c:
                continue
            if den == 1:
                top, bottom = abs(c), 1
            else:
                common = math.gcd(c, den)
                top, bottom = abs(c) // common, den // common
            text = _decimal(top)
            if bottom != 1:
                text += "/" + _decimal(bottom)
            if not exp:
                body = text
            else:
                body = variable if exp == 1 else f"{variable}^{exp}"
                if top != 1 or bottom != 1:
                    body = f"{text}*{body}"
            if rendered:
                rendered.append(("+ " if c > 0 else "- ") + body)
            else:
                rendered.append(body if c > 0 else "-" + body)
        return " ".join(rendered)

    __str__ = text

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        den_a, den_b = self._den, other._den
        if den_a == den_b:
            den = den_a
        else:
            # Bring both over lcm(den_a, den_b).
            common = math.gcd(den_a, den_b)
            scale_a, scale_b = den_b // common, den_a // common
            den = den_a * scale_a
            if scale_a != 1:
                a = [c * scale_a for c in a]
            if scale_b != 1:
                b = [c * scale_b for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _make(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Product: the numerators multiply by :func:`_mul_ints`, the
        denominators as ints."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return ZERO
        return _make(_mul_ints(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = _scalar(other)
        if s is None:
            return NotImplemented
        if not s:
            raise ZeroDivisionError("division of a polynomial by scalar zero")
        scale = s.denominator
        return _make([c * scale for c in self._num], self._den * s.numerator)

    def __pow__(self, exponent):
        """Power with a nonnegative int exponent n, on the numerator and on
        the denominator as an int.

        The lowest term x**v of the numerator comes out first, as x**(v*n),
        and the rest is raised by :func:`_pow_ints`.
        """
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            raise ValueError("polynomial powers need a nonnegative exponent")
        if not exponent:
            return ONE
        if exponent == 1:
            return self
        num = self._num
        if not num:
            return ZERO
        lowest, rest = _x_split(num)
        return _make([0] * (lowest * exponent) + _pow_ints(rest, exponent),
                     self._den ** exponent)

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "UniPoly":
        """Formal derivative."""
        return _make([i * c for i, c in enumerate(self._num) if i], self._den)

    def __call__(self, point) -> Fraction:
        """Evaluate at a rational point t = n/d by Horner's rule on ints.

        The loop computes d**k * den * p(t) = sum num_i * n**i * d**(k - i)
        for k = deg p, and one Fraction divides it out at the end."""
        t = _scalar(point)
        if t is None:
            raise TypeError(f"evaluation point {point!r} is not rational")
        n, d = t.numerator, t.denominator
        num = self._num
        acc = num[-1] if num else 0
        power = 1
        for c in num[-2::-1]:
            power *= d
            acc = acc * n + c * power
        return Fraction(acc, self._den * power)

    def monic(self) -> "UniPoly":
        """Scale to leading coefficient one.  The zero polynomial has no
        monic associate, so that input is rejected."""
        if not self._num:
            raise ValueError("the zero polynomial has no monic associate")
        lead = self._num[-1]
        if lead == self._den:
            return self
        return _make(list(self._num), lead)


def _make(num, den=1) -> UniPoly:
    """The polynomial sum(num[i] * x**i) / den in canonical form.

    ``num`` is a list of ints that the caller hands over (its trailing
    zeros are popped in place) and ``den`` a nonzero int.  Every result
    that is not built from scalars by the constructor comes from here."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        if den < 0:
            den = -den
            num = [-c for c in num]
        common = math.gcd(den, *num)
        if common != 1:
            den //= common
            num = [c // common for c in num]
    poly = object.__new__(UniPoly)
    poly._num = tuple(num)
    poly._den = den
    return poly


#: Integers below this in absolute value convert by ``str`` everywhere.
_PIECE = 10 ** 2048


def _decimal(n: int) -> str:
    """The decimal digits of the int ``n``, however many there are.

    CPython 3.11 and later refuse ``str`` of an int of more than 4300
    digits.  Dividing by 10**(2048 * 2**k) for the largest such power
    below n, and each part again by the next smaller one, splits n into
    pieces of fewer than 2048 digits, which ``str`` converts; every low
    part is padded with zeros to its full width.

    >>> _decimal(-10 ** 5000) == "-1" + "0" * 5000
    True
    """
    if abs(n) < _PIECE:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    powers = [(2048, _PIECE)]  # (w, 10**w), w doubling
    while powers[-1][1] <= n:
        width, power = powers[-1]
        powers.append((2 * width, power * power))

    def digits(n, k):
        # n < powers[k][1]; the caller pads the low parts
        if not k:
            return str(n)
        width, power = powers[k - 1]
        high, low = divmod(n, power)
        if not high:
            return digits(low, k - 1)
        return digits(high, k - 1) + digits(low, k - 1).zfill(width)

    return digits(n, len(powers) - 1)


def _coerce(value):
    if isinstance(value, UniPoly):
        return value
    s = _scalar(value)
    if s is None:
        return None
    return _make([s.numerator], s.denominator)


def _polynomial(value) -> UniPoly:
    """``value`` as a UniPoly, for a UniPoly or a rational scalar; any
    other value raises TypeError."""
    poly = _coerce(value)
    if poly is None:
        raise TypeError(f"{value!r} is not a polynomial or rational scalar")
    return poly


ZERO = _make([])
ONE = _make([1])
X = _make([0, 1])


def exact_div(a: UniPoly, b: UniPoly) -> UniPoly:
    """Division known to be exact; raises ArithmeticError if a remainder
    appears and ZeroDivisionError for a zero divisor.

    Write a = A/L_a and b = (cont B/L_b) * B' with A and B' integer and
    B' primitive.  If b divides a, then B' divides A over the rationals,
    and by Gauss's lemma the quotient A/B' has integer coefficients.  So
    the division runs over the integers, each quotient coefficient an exact
    ``divmod`` by lc B'; a nonzero remainder there or in the low
    coefficients proves that b does not divide a.  The quotient is then
    scaled once by L_b/(L_a * cont B).  Rational scalars stand for
    constant polynomials on either side.
    """
    a, b = _polynomial(a), _polynomial(b)
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if not a:
        return ZERO
    primitive = _primitive(b._num)
    quotient = _exact_quotient(a._num, primitive)
    if quotient is None:
        raise ArithmeticError("inexact division")
    if b._den != 1:
        quotient = [c * b._den for c in quotient]
    return _make(quotient, a._den * (b._num[-1] // primitive[-1]))  # L_a * cont B


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor, from one integer gcd when the
    coefficients are small and from gcds modulo primes below 2**30 when
    they are not.

    The lowest terms x**v_a and x**v_b come off first (:func:`_x_split`),
    and the gcd is x**min(v_a, v_b) times that of the rests, so a rest that
    is a constant needs no gcd at all.  Let A and B be the primitive
    integer parts of the rests.  :func:`_heuristic_gcd` evaluates both at
    one power of two, takes the gcd of the two integers and reads the gcd
    of A and B off it, checked by division over the integers; up to its
    cut :data:`_HEURISTIC_MAX` on the size of that power, that settles
    coprime pairs at once and nearly every other pair.  Above the cut, or
    when the candidate fails the division, :func:`broughton.modular._gcd`
    lifts it from gcds modulo primes.  Both return the cofactors too
    (:func:`_gcd_ints`), which the gcd drops.

    The gcd with zero is the other side's monic associate, and gcd(0, 0)
    is rejected.  Rational scalars stand for constant polynomials.
    """
    a, b = _polynomial(a), _polynomial(b)
    if not a or not b:
        if not a and not b:
            raise ValueError("gcd(0, 0) is undefined")
        return (a or b).monic()
    (shift_a, num_a), (shift_b, num_b) = _x_split(a._num), _x_split(b._num)
    shift = min(shift_a, shift_b)
    ints_a, ints_b = _primitive(num_a), _primitive(num_b)
    if len(ints_a) == 1 or len(ints_b) == 1:
        return _make([0] * shift + [1])
    divisor = _gcd_ints(ints_a, ints_b)[0]
    return _make([0] * shift + divisor, divisor[-1])  # monic


#: The heuristic gcd evaluates at 2**w for w at most this many bits; wider
#: inputs go to the modular gcd.  See :func:`_heuristic_gcd`.
_HEURISTIC_MAX = 320


def _heuristic_gcd(a, b):
    """The primitive gcd h, with a positive leading coefficient, of the
    nonzero integer polynomials ``a`` and ``b``, with the cofactors a/h
    and b/h, from one integer gcd (Char, Geddes and Gonnet, GCDHEU, 1989;
    Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 7.7); or
    None when this cannot settle it.

    Let M = min(max|a|, max|b|) and xi = 2**w, where w is the bit length
    of 2*M + 2 rounded up to whole bytes and at least 32 (:func:`_xi_bytes`),
    and let gamma = gcd(a(xi), b(xi)).  The floor of 32 bits keeps a tiny
    M, as for x**n + 1, from making xi so small that chance common factors
    of the two values decide the answer.

    * A common root z of a and b is a root of the side of norm M, so
      |z| < 1 + M by Cauchy's bound, and xi > 2*M + 2 gives
      |xi - z| > xi/2.  An integer polynomial k of degree at least 1
      whose roots are common roots therefore has |k(xi)| > xi/2.
    * G = gcd(a, b) over the integers divides a and b, so G(xi) divides
      gamma, and gamma > 0 since a(xi) and b(xi) are not both zero.  So
      2*gamma <= xi proves a and b coprime.
    * Otherwise gamma is read off in base xi with digits in
      [-xi/2, xi/2), the coefficients of a polynomial g with
      g(xi) = gamma, and h is the primitive part of g with a positive
      leading coefficient (:func:`_read_candidate`).  If h divides a and b
      over the integers, then G = c*h*k with c = cont(G), and
      G(xi) = c*h(xi)*k(xi) divides gamma = cont(g)*h(xi), so k(xi)
      divides cont(g), and |cont(g)| <= xi/2: k is a constant, and h is
      the primitive part of G.  If h does not divide both, None is
      returned, as SymPy's ``dup_zz_heu_gcd`` falls back, and the caller
      takes the modular route.

    Above the cut :data:`_HEURISTIC_MAX` on w, None is returned at once.
    Euclid modulo a prime costs n**2 small-int steps whatever the size of
    the coefficients, and the integer gcd (n*w)**2 steps in C, so the
    crossover depends on w alone.  The cut was fitted by timing :func:`gcd`
    with the cut forced both ways on five coprime pairs of degree n with
    random coefficients of w - 2 bits, so that w is as given: ms per gcd,
    heuristic / modular, best of 5 (CPython 3.11.7, x86-64, 2 CPUs):

    =====  ===========  ===========  ===========  ===========  ===========
    n      w=32         w=128        w=256        w=320        w=384
    =====  ===========  ===========  ===========  ===========  ===========
    20     0.025/0.155  0.048/0.156  0.142/0.252  0.185/0.241  0.244/0.248
    80     0.075/1.25   0.241/1.22   0.664/1.23   1.00/1.27    1.41/1.33
    320    0.348/17.5   2.65/17.3    9.39/21.2    15.1/17.7    20.2/17.1
    =====  ===========  ===========  ===========  ===========  ===========

    The integer gcd wins up to w = 320 at every n and loses from 384 on
    (at w = 1024: 0.71/0.19, 8.4/1.3 and 140/17 ms), hence the cut at
    320.  A pair with a nontrivial gcd favours it further, since the
    modular route then lifts over several primes.
    """
    size = _xi_bytes(min(max(map(abs, a)), max(map(abs, b))))
    if size is None:
        return None
    gamma = math.gcd(_value(a, 8 * size), _value(b, 8 * size))
    if 2 * gamma <= 1 << 8 * size:
        return [1], a, b
    return _divide_both(_read_candidate(gamma, size), a, b)


def _gcd_ints(a, b):
    """The primitive gcd h of the nonzero integer polynomials ``a`` and
    ``b``, ``a`` nonconstant, with the cofactors a/h and b/h: from
    :func:`_heuristic_gcd`, else from :func:`broughton.modular._gcd`."""
    found = _heuristic_gcd(a, b)
    if found is None:  # modular is loaded only here
        from .modular import _gcd

        found = _gcd(a, b)
    return found


def _divide_both(h, a, b):
    """``(h, a/h, b/h)`` if ``h`` divides both integer polynomials, else None."""
    cofactor_a = _exact_quotient(a, h)
    cofactor_b = None if cofactor_a is None else _exact_quotient(b, h)
    return None if cofactor_b is None else (h, cofactor_a, cofactor_b)


def _xi_bytes(norm):
    """The w of xi = 2**w in bytes for the norm M = ``norm``, as
    :func:`_heuristic_gcd` chooses it: the bit length of 2*M + 2 rounded
    up to whole bytes and at least 32; None past the cut
    :data:`_HEURISTIC_MAX`."""
    size = max(((2 * norm + 2).bit_length() + 7) // 8, 4)
    return None if 8 * size > _HEURISTIC_MAX else size


def _read_candidate(gamma, size):
    """The primitive part, with a positive leading coefficient, of the
    polynomial g whose digits in base xi = 256**size, each in
    [-xi/2, xi/2), are those of ``gamma`` > xi/2; g is not constant."""
    g = _unpack(gamma, size, gamma.bit_length() // (8 * size) + 2)
    while not g[-1]:
        g.pop()
    h = _primitive(g)
    return h if h[-1] > 0 else [-c for c in h]


def _value(ints, w):
    """The integer polynomial ``ints`` at 2**w.  Neighbours pair up, each
    round halving the list and doubling the shift, so the work is about
    n*w*log(n) bits where Horner's rule moves n**2*w."""
    values = list(ints)
    while len(values) > 1:
        if len(values) & 1:
            values.append(0)
        values = [x + (y << w) for x, y in zip(values[::2], values[1::2])]
        w *= 2
    return values[0]


def _x_split(ints):
    """``(v, ints[v:])`` for the power x**v that divides the nonzero integer
    polynomial ``ints``: the quotient by x**v has a nonzero constant term."""
    v = 0
    while not ints[v]:
        v += 1
    return v, ints[v:] if v else ints


def _primitive(ints):
    """Integer coefficients divided by their content, as a new list."""
    content = math.gcd(*ints)
    return [c // content for c in ints] if content != 1 else list(ints)


def _exact_quotient(a, d):
    """Quotient of the integer polynomial ``a`` by ``d`` over the integers,
    or None if a remainder appears.

    Coefficients are int lists, low to high, and ``d`` is nonzero with a
    nonzero leading entry.  For a primitive ``d`` a None also rules out
    division over the rationals (Gauss's lemma).  A quotient by 1, such as
    the cofactor of a constant gcd, is a copy.
    """
    if d == [1]:
        return list(a)
    rem = list(a)
    top = len(d) - 1
    lead = d[-1]
    low = d[:top]
    quotient = [0] * max(len(a) - top, 0)
    for i in range(len(a) - 1 - top, -1, -1):
        c, r = divmod(rem[i + top], lead)
        if r:
            return None
        if c:
            quotient[i] = c
            rem[i:i + top] = [x - c * y for x, y in zip(rem[i:i + top], low)]
    if any(rem[:top]):
        return None
    return quotient


#: Operands of at most this many entries multiply by schoolbook, longer
#: ones by Kronecker substitution; see :func:`_mul_ints`.
_SCHOOLBOOK_MAX = 6


def _mul_ints(a, b):
    """Product of the integer polynomials ``a`` and ``b`` (int sequences,
    low degree first, each with a nonzero last entry), as a list of ints.

    If an operand has a zero constant term, the lowest terms x**v_a and
    x**v_b come off first (:func:`_x_split`), the rests multiply as below,
    and the product starts with v_a + v_b zeros.  If the shorter rest has
    at most :data:`_SCHOOLBOOK_MAX` entries, their product is the
    schoolbook sum of shifted rows, one list comprehension per nonzero
    entry of the shorter one.  Otherwise it runs by Kronecker
    substitution.  Every coefficient of a*b is a sum of at most
    min(len a, len b) products, so its absolute value is at most
    bound = max|a| * max|b| * min(len a, len b).  A byte-aligned slot of w
    bits with 2**(w - 1) > bound holds each one in [0, 2**w) after adding
    the offset 2**(w - 1), so evaluating a and b at x = 2**w, one
    big-integer multiply and reading the product back in base 2**w give
    a*b exactly (von zur Gathen and Gerhard, *Modern Computer Algebra*,
    8.4; Harvey 2009, "Faster polynomial multiplication via multipoint
    Kronecker substitution").  Packing and unpacking go through
    ``int.to_bytes``/``int.from_bytes`` and cost time linear in the size
    of the integers.  A square (``b is a``) packs its operand once.

    Kronecker pays a fixed cost for the packing, the offset and the
    unpacking, which a short operand does not repay.  The cut was fitted
    by timing both routes of this function (setting ``_SCHOOLBOOK_MAX``
    to 0 and to a huge value) on a shorter operand of s random entries of
    the given bit size against one of 32: Kronecker time over schoolbook
    time, summed over five random pairs, best of 7 ``timeit`` repeats of
    300 calls each (CPython 3.11.7, x86-64, 2 CPUs):

    =====  ====  ====  ====  ====  ====  ====  ====  ====  ====
    bits   s=2   s=3   s=4   s=5   s=6   s=7   s=8   s=12  s=16
    =====  ====  ====  ====  ====  ====  ====  ====  ====  ====
    8      3.14  2.25  1.64  1.21  1.08  0.95  0.88  0.64  0.50
    64     2.90  2.19  1.37  1.22  1.07  0.93  0.89  0.68  0.55
    1000   2.72  2.34  2.22  1.72  1.79  1.64  1.62  1.41  1.39
    =====  ====  ====  ====  ====  ====  ====  ====  ====  ====

    Schoolbook wins up to s = 6 at every size and loses from s = 7 on
    small entries, hence the cut at 6.
    """
    if not a[0] or not b[0]:
        shift, rest = _x_split(a)
        v, b = (shift, rest) if b is a else _x_split(b)  # a square stays one operand
        return [0] * (shift + v) + _mul_ints(rest, b)
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= _SCHOOLBOOK_MAX:
        n = len(b)
        out = [a[0] * y for y in b]
        out.extend([0] * (len(a) - 1))
        for i in range(1, len(a)):
            c = a[i]
            if c:
                out[i:i + n] = [x + c * y for x, y in zip(out[i:i + n], b)]
        return out
    bound = max(map(abs, a)) * max(map(abs, b)) * len(a)
    size = bound.bit_length() // 8 + 1  # bytes; 2**(8*size - 1) > bound
    packed_a = _pack(a, size)
    packed_b = packed_a if b is a else _pack(b, size)
    return _unpack(packed_a * packed_b, size, len(a) + len(b) - 1)


def _pow_ints(rest, n):
    """The integer polynomial ``rest``, with a nonzero constant term, to
    the power n >= 2: a monomial in closed form, a square by
    :func:`_mul_ints`, a higher power by J. C. P. Miller's recurrence
    (:func:`_series_power`).  Square-and-multiply beats the recurrence
    only for many terms and a small exponent: 11x at t = 64, n = 4 and
    1.9x at t = 16, n = 3 on t + 1 random 4-bit entries, no faster at
    t = 8, n = 3 (best of 5, CPython 3.11.7, x86-64, 2 CPUs).  The package
    raises short bases, so n >= 3 always takes the recurrence."""
    if len(rest) == 1:
        return [rest[0] ** n]
    if n == 2:
        return _mul_ints(rest, rest)
    return _series_power(rest, n, 1, n * (len(rest) - 1) + 1)


def _series_power(a, num, den, count):
    """The first ``count`` coefficients of the power series
    (sum a[j] * x**j)**(num/den), that of x**k times den**(2*k), as a list
    of ints.

    ``a`` is a nonempty int sequence with a[0] != 0, ``num`` and ``den``
    are ints with den >= 1, and a[0] must be 1 unless den is 1: the
    constant term is a[0]**num.  J. C. P. Miller's recurrence for the
    coefficients c_k of C = A**alpha, from A*C' = alpha*A'*C,

        k * a_0 * c_k = sum_{j=1}^{min(d, k)} ((alpha + 1)*j - k) * a_j * c_(k-j)

    (Knuth, TAOCP vol. 2, 4.7), costs one product per nonzero a_j and
    coefficient, so a sparse base costs by its number of terms.  With
    alpha = num/den and e_k = den**(2*k) * c_k it reads

        k * a_0 * e_k = sum_j ((num + den)*j - den*k) * a_j * den**(2*j - 1) * e_(k-j),

    all on ints.  The division by k * a_0 is exact.  For den = 1 the e_k
    are the coefficients of the integer polynomial A**num.  For a_0 = 1,
    c_k is a sum of binomial(num/den, m) * [x**k] (A - 1)**m over m <= k,
    and den**(2*m) * binomial(num/den, m) is an integer: with num/den = u/v
    in lowest terms, the denominator of binomial(u/v, m) is v**m times the
    part of m! made of primes dividing v, which divides v**m, and v
    divides den.
    """
    lead = a[0]
    terms = []
    scale = den
    for j in range(1, min(len(a), count)):
        if a[j]:
            terms.append((j, a[j] * scale))
        scale *= den * den
    step = num + den
    out = [lead ** num]
    for k in range(1, count):
        total = 0
        for j, c in terms:
            if j > k:
                break
            total += (step * j - den * k) * c * out[k - j]
        out.append(total // (k * lead))
    return out


def _pack(ints, size):
    """The integer sum(c * 256**(size*i)) for the coefficients ``ints``,
    each of absolute value below 256**size: the positive and the negative
    parts are packed into bytes separately and then subtracted."""
    zero = bytes(size)
    positive = b"".join([c.to_bytes(size, "little") if c > 0 else zero for c in ints])
    negative = b"".join([(-c).to_bytes(size, "little") if c < 0 else zero for c in ints])
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _unpack(value, size, count):
    """The ``count`` digits of ``value`` in base 256**size, each in
    [-256**size/2, 256**size/2), low first: adding half the base at every
    digit makes each one a byte slot of ``value``'s bytes, with no carry."""
    half = 1 << (8 * size - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    digits = (value + offset).to_bytes(count * size, "little")
    from_bytes = int.from_bytes
    return [from_bytes(digits[k:k + size], "little") - half
            for k in range(0, count * size, size)]
