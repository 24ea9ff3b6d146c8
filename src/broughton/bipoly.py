"""Resultants in one variable of polynomials in two, for the connectivity
certificate.

This module is internal to :func:`broughton.decompose.connectivity_certificate`,
which checks every argument before anything here runs; nothing here
checks its inputs again.

A :class:`BiPoly` is a polynomial in two variables x and y with rational
coefficients, stored as a tuple of :class:`UniPoly` coefficients indexed by
the power of y (no trailing zero entry).  It is not a ring: it carries only
its degrees, which is all :func:`resultant_y` reads.

The certificate never builds its surface h = (p(x)*y - 1)**m + c*y**n.
Since h_x = m*p'*y*(p*y - 1)**(m - 1) factors, both eliminants of the
partials split by the multiplicativity of the resultant, Res(f*g, k) =
Res(f, k)*Res(g, k).  Res_y(h_x, h_y) is a constant times p'**N * p**e,
with no resultant left, and Res_x(h_x, h_y) a monomial in y times
Res_v(chi, G), where chi(v) = Res_x(p', v - p) / lc(p')**d has the
critical values of p as roots and G(p(x), y) = h_y.  So only two small
resultants run here, of Sylvester dimension 2d - 1 and d - 1 + m against
2md - 1 for Res_x(h_x, h_y) itself (d = deg p, N = max(m, n) - 1; the
formulas are in :func:`~broughton.decompose.connectivity_certificate`).
Both eliminants are nonzero for every accepted input: the first since
p' != 0, c != 0 and m >= 2, the second since each factor G(p(xi), y) of
Res_v(chi, G) has the constant term +-m*p(xi) in y, or is c*n*y**(n - 1)
where p(xi) = 0.

Elimination is by Sylvester resultants in y, computed by evaluation and
interpolation modulo one prime (Collins 1971; von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 6): denominators are cleared once, every
coefficient of the integer resultant is bounded by the Hadamard-type bound
H = (sum_i |A_i|_1**2)**(n/2) * (sum_j |B_j|_1**2)**(m/2) over the integer
y-coefficients A_i, B_j, and the work runs modulo the smallest Mersenne
prime 2**e - 1 above 2*H from a constant table of proven exponents (61, 89,
107, 127, 521, 607, 1279, 2203, ...), so no primality test runs; a bound
past the table's end raises ArithmeticError.  x runs over 0..D for the
degree bound D = n*deg_x a + m*deg_x b; at each point one Euclidean
remainder sequence mod the prime, at the formal degrees m and n, gives the
resultant of the specialized polynomials, also where a leading coefficient
vanishes there.  The values are interpolated mod the prime and lifted to
the symmetric range.  The result is exact by the bound alone: unlike a
gcd, a resultant has no cheap check, so a wrong bound would give a wrong
answer, not an error.
"""

from __future__ import annotations

import math
from operator import mul

from .unipoly import NEG_INF, UniPoly, _coerce, _integer_columns, _make


# BiPoly stays, where a tuple of coefficient lists would do for resultant_y,
# because perfbench/tracer.py reads ``a.coeffs`` and ``b.coeffs`` on every
# resultant_y call.
class BiPoly:
    """Polynomial in x and y, as y-power coefficients over Q[x]."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        items = []
        for c in coeffs:
            u = _coerce(c)
            if u is None:
                raise TypeError(f"coefficient {c!r} is not a polynomial in x")
            items.append(u)
        while items and not items[-1]:
            items.pop()
        self._coeffs = tuple(items)

    @property
    def coeffs(self) -> tuple:
        """UniPoly coefficients by y-power, no trailing zero."""
        return self._coeffs

    @property
    def degree_y(self):
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def degree_x(self):
        if not self._coeffs:
            return NEG_INF
        return max(c.degree for c in self._coeffs)


def resultant_y(a: BiPoly, b: BiPoly) -> UniPoly:
    """Resultant eliminating y, as a polynomial in x.

    Sylvester determinant with the a-block on top, taken over Q[x] itself.
    Vanishes identically exactly when a and b share a factor of positive
    y-degree.  When neither input involves y the Sylvester matrix is
    empty and the resultant is one.

    With m = deg_y a, n = deg_y b and a = A/L_a, b = B/L_b for integer A,
    B, Res(a, b) = Res(A, B) / (L_a**n * L_b**m).  Every entry of the
    Sylvester matrix has x-degree at most deg_x a or deg_x b, n rows of
    the one and m of the other, so Res(A, B) has degree at most
    D = n*deg_x a + m*deg_x b.  On the certificate's two calls D is d - 1
    and (d - 1)*N: chi always has degree d - 1, and Res_v(chi, G) reaches
    (d - 1)*N unless some G(p(xi), y) drops in degree in y.  Every
    coefficient of Res(A, B) is at most H = (sum_i |A_i|_1**2)**(n/2) *
    (sum_j |B_j|_1**2)**(m/2) in absolute value, where A_i and B_j are the
    integer y-coefficients: on |x| = 1 Hadamard's inequality bounds the
    determinant by H, and then Cauchy's estimate bounds each coefficient.
    :func:`integer_resultant` computes Res(A, B) modulo one Mersenne prime
    above 2*H from its values at x = 0..D, each by Euclid at the formal
    degrees m and n.
    """
    m = a.degree_y
    n = b.degree_y
    a_ints, scale_a = _integer_columns(a.coeffs)
    b_ints, scale_b = _integer_columns(b.coeffs)
    ints = integer_resultant(a_ints, b_ints, n * a.degree_x + m * b.degree_x)
    return _make(ints, scale_a ** n * scale_b ** m)


# -- the modular resultant kernel ---------------------------------------------
#
# Coefficient lists are ints, low degree first.  Mersenne primes are proven
# prime, so a constant table of their exponents replaces any primality test.

#: Exponents e >= 61 of the known Mersenne primes 2**e - 1, ascending.
#: Coefficients of thousands of digits already call for the 756839-bit
#: prime; the table runs to the largest known one so that no input which
#: fits in memory exhausts it.
MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
    756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917,
    20996011, 24036583, 25964951, 30402457, 32582657, 37156667, 42643801,
    43112609, 57885161, 74207281, 77232917, 82589933, 136279841,
)


def mersenne_exponent(bits: int) -> int:
    """The smallest table exponent e > bits, so that 2**e - 1 >= 2**bits.

    Raises ArithmeticError when the bound is past the table's end,
    2**136279841 - 1.
    """
    for e in MERSENNE_EXPONENTS:
        if e > bits:
            return e
    raise ArithmeticError(f"no table prime reaches 2**{bits}")


def hadamard_square(a, b) -> int:
    """H**2 for the bound H on every coefficient of Res_y(A, B).

    ``a`` and ``b`` hold the integer x-coefficient lists of A and B by
    power of y, with m = deg_y A and n = deg_y B.  On |x| = 1 each entry of
    the Sylvester matrix is at most the 1-norm of its polynomial, so by
    Hadamard's inequality on the n rows of A and the m rows of B,
    |Res(x)| <= H = (sum_i |A_i|_1**2)**(n/2) * (sum_j |B_j|_1**2)**(m/2)
    there, and by Cauchy's estimate every coefficient of Res is at most H.
    """
    m, n = len(a) - 1, len(b) - 1
    norm_a = sum(sum(map(abs, c)) ** 2 for c in a)
    norm_b = sum(sum(map(abs, c)) ** 2 for c in b)
    return norm_a ** n * norm_b ** m


def integer_resultant(a, b, degree: int) -> list:
    """Integer coefficients, low to high, of Res_y(A, B) in x.

    ``a`` and ``b`` are as for :func:`hadamard_square`, with nonzero
    leading entries, and ``degree`` bounds deg_x Res.  The modulus is the
    one table prime above 2*H, H the Hadamard bound, from
    :func:`mersenne_exponent`, so the symmetric residues are the
    coefficients themselves; the result is exact only by that bound, since
    a resultant has no cheap check the way a gcd has.
    """
    bits = (hadamard_square(a, b).bit_length() + 3) // 2  # 2**bits > 2*H
    return _resultant_modulo(a, b, degree, (1 << mersenne_exponent(bits)) - 1)


def _resultant_modulo(a, b, degree, prime):
    """The symmetric residues modulo ``prime`` of the coefficients of
    Res_y(A, B), interpolated from its values at x = 0..degree."""
    if degree < 0:  # only the zero polynomial has no degree >= 0
        return []
    image = _interpolate(*_resultant_values(a, b, degree + 1, prime), prime)
    half = prime >> 1
    return [c - prime if c > half else c for c in image]


def _resultant_values(a, b, count, prime):
    """Res_y(A, B) mod ``prime`` at x = 0, 1, ..., count - 1, as two
    tuples from ``zip``: the numerators and the denominators.

    Evaluation at a point is a ring homomorphism from Z[x] to Z/prime, so
    each value is the determinant of the Sylvester matrix of fixed shape
    with its entries evaluated there, which :func:`_euclid_resultant` takes
    at the formal degrees deg_y A and deg_y B, whether or not a leading
    entry vanishes at the point.
    """
    width = max(map(len, a + b))
    values = []
    for t in range(count):
        row = [t ** k for k in range(width)]
        values.append(_euclid_resultant([sum(map(mul, c, row)) % prime for c in a],
                                        [sum(map(mul, c, row)) % prime for c in b], prime))
    return zip(*values)


def _euclid_resultant(a, b, prime):
    """Res(a, b) mod ``prime`` at the formal degrees m = len(a) - 1 and
    n = len(b) - 1, the determinant of the Sylvester matrix of the reduced
    lists ``a`` and ``b``, as a pair (num, den) with Res = num/den.

    Euclid's remainder sequence without inverses, on Poisson's formula
    Res(a, b) = lc(a)**n * prod b(alpha) over the roots alpha of a, which
    holds at formal degrees (von zur Gathen and Gerhard, ch. 6):

    - Res(a, b) = (-1)**(mn) * Res(b, a), which puts the longer list first.
    - A zero leading entry of b costs a factor lc(a), and one of a costs
      (-1)**n * lc(b); with both zero, the matrix's first column is zero
      and so is Res.
    - Res(a, c) = c**m for b = c of formal degree 0.
    - Otherwise the pseudo-remainder r = lc(b)**s * a mod b, s = m - n + 1,
      of formal degree n - 1 gives Res(a, b) = (-1)**(mn) *
      lc(b)**(s - s*n) * Res(b, r), since Res is of degree n in r.  Each
      of r's zero leading entries then costs lc(b), folded into the same
      power, and r = 0 gives Res = 0.
    """
    num = den = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        if m < n:
            a, b = b, a
            if m & n & 1:
                num = -num
            continue
        lead = b[-1]
        if not lead:
            if not a[-1]:
                return 0, 1
            b.pop()
            num = num * a[-1] % prime
            continue
        if not a[-1]:
            a.pop()
            num = num * (-lead if n & 1 else lead) % prime
            continue
        # Every step scales all of a by lead.  Entry i joins the window at
        # step i, so it takes the powers of the steps before at once.
        power = 1
        for i in range(m - n, -1, -1):
            c = a[i + n]
            for j in range(i + 1, i + n):
                a[j] = (lead * a[j] - c * b[j - i]) % prime
            power = power * lead % prime
            a[i] = (power * a[i] - c * b[0]) % prime
        del a[n:]
        excess = -(m - n + 1) * (n - 1)
        while a and not a[-1]:
            a.pop()
            excess += 1
        if not a:
            return 0, 1
        if excess > 0:
            num = num * pow(lead, excess, prime) % prime
        elif excess:
            den = den * pow(lead, -excess, prime) % prime
        if m & n & 1:
            num = -num
        a, b = b, a
    return num * pow(b[0], len(a) - 1, prime) % prime, den


def _interpolate(nums, dens, prime):
    """Coefficients mod ``prime``, low to high, of the polynomial f of
    degree below ``len(nums)`` with f(t) = nums[t]/dens[t] at x = t.

    Newton's forward-difference form sum_k (Delta^k f(0) / k!) *
    x(x-1)...(x-k+1).  One modular inverse serves every denominator and
    (len - 1)! (Montgomery's batch inversion: prefix products, then back),
    the differences stay exact ints and are reduced once, and the falling
    factorials are expanded by a Horner pass from the highest nonzero
    Newton coefficient down.
    """
    count = len(nums)
    prefix = [1]
    for d in dens:
        prefix.append(prefix[-1] * d % prime)
    factorial = math.factorial(count - 1) % prime
    inverse = pow(prefix[-1] * factorial, -1, prime)
    scale = inverse * prefix[-1] % prime  # 1/(count - 1)!
    inverse = inverse * factorial % prime  # 1/(dens[0] * ... * dens[-1])
    row = [0] * count
    for t in range(count - 1, -1, -1):
        row[t] = nums[t] * inverse * prefix[t] % prime
        inverse = inverse * dens[t] % prime
    newton = []
    for _ in range(count):
        newton.append(row[0] % prime)
        row = [y - x for x, y in zip(row, row[1:])]
    for k in range(count - 1, 1, -1):
        newton[k] = newton[k] * scale % prime
        scale = scale * k % prime
    while newton and not newton[-1]:
        newton.pop()
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + newton[k]
        coeffs = [(x - k * y) % prime for x, y in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] = (coeffs[0] + newton[k]) % prime
    return coeffs
