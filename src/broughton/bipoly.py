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
107, 127, 521, 607, 1279, 2203, ...; past its end, a product of table
primes joined by the Chinese remainder theorem), so no primality test runs.
x runs over 0..D for the degree bound D = n*deg_x a + m*deg_x b; at each
point the resultant of the specialized polynomials comes from Euclid mod
the prime where both leading coefficients survive, and from Gaussian
elimination on the fixed-shape Sylvester matrix where one vanishes (or
where Euclid's remainder drops in degree at that point alone).  The values
are interpolated mod the prime and lifted to the symmetric range.  The
result is exact by the bound alone: unlike a gcd, a resultant has no cheap
check, so a wrong bound would give a wrong answer, not an error.
"""

from __future__ import annotations

import math
from operator import mul

from .modular import _crt
from .unipoly import NEG_INF, UniPoly, _coerce, _integer_columns, _make


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
    :func:`integer_resultant` computes Res(A, B) modulo a Mersenne prime
    above 2*H from its values at x = 0..D.
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


def mersenne_exponents(bits: int) -> list:
    """Exponents of table primes whose product is at least 2**bits.

    One prime 2**e - 1 >= 2**bits, the smallest with e > bits, when the
    table has one.  Otherwise the table's primes from the largest down
    until the product covers 2**bits, which it does once the e - 1 sum to
    ``bits`` since 2**e - 1 >= 2**(e - 1).  Raises ArithmeticError if
    even the whole table falls short.
    """
    for e in MERSENNE_EXPONENTS:
        if e > bits:
            return [e]
    chosen = []
    covered = 0
    for e in reversed(MERSENNE_EXPONENTS):
        chosen.append(e)
        covered += e - 1
        if covered >= bits:
            return chosen
    raise ArithmeticError(f"no product of table primes reaches 2**{bits}")


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
    leading entries, and ``degree`` bounds deg_x Res.  A modulus above
    2*H, H the Hadamard bound, comes from :func:`mersenne_exponents`, so
    the symmetric residues are the coefficients themselves; the result is
    exact only by that bound, since a resultant has no cheap check the way
    a gcd has.
    """
    bits = (hadamard_square(a, b).bit_length() + 3) // 2  # 2**bits > 2*H
    return _resultant_by_primes(a, b, degree, mersenne_exponents(bits))


def _resultant_by_primes(a, b, degree, exponents):
    """Res_y(A, B) from its images modulo 2**e - 1 for each exponent, lifted
    by the Chinese remainder theorem to the symmetric range of their
    product."""
    lift, modulus = [], 1
    if degree < 0:  # only the zero polynomial has no degree >= 0
        return lift
    for e in exponents:
        prime = (1 << e) - 1
        image = _interpolate(*_resultant_values(a, b, degree + 1, prime), prime)
        lift += [0] * (len(image) - len(lift))
        image += [0] * (len(lift) - len(image))
        lift = _crt(lift, modulus, image, prime)
        modulus *= prime
    while lift and not lift[-1]:
        lift.pop()
    return lift


def _resultant_values(a, b, count, prime):
    """Res_y(A, B) mod ``prime`` at x = 0, 1, ..., count - 1, as lists of
    numerators and of denominators.

    Evaluation at a point is a ring homomorphism from Z[x] to Z/prime, so
    each value is the determinant of the Sylvester matrix of fixed shape
    with its entries evaluated there.  Where both leading entries survive,
    that determinant is the resultant of the two specialized polynomials,
    which :func:`_euclid_resultants` takes at all such points at once.  The
    points it leaves, and those where a leading entry vanishes, take
    :func:`_sylvester_determinant` on the matrix itself.
    """
    width = max(map(len, a + b))
    powers = [[t ** k for k in range(width)] for t in range(count)]
    a = [[sum(map(mul, c, row)) % prime for row in powers] for c in a]
    b = [[sum(map(mul, c, row)) % prime for row in powers] for c in b]
    nums, dens = [None] * count, [1] * count
    points = [t for t in range(count) if a[-1][t] and b[-1][t]]
    for t, num, den in _euclid_resultants(_take(a, points), _take(b, points), points, prime):
        nums[t], dens[t] = num, den
    for t in range(count):
        if nums[t] is None:
            nums[t], dens[t] = _sylvester_determinant(
                [c[t] for c in a], [c[t] for c in b], prime)
    return nums, dens


def _take(columns, keep):
    """The entries at the positions ``keep`` of each column."""
    return [[column[i] for i in keep] for column in columns]


def _euclid_resultants(a, b, points, prime):
    """Res(a, b) mod ``prime`` at many points at once, by the Euclidean
    remainder sequence without inverses.

    ``a`` and ``b`` are lists of columns, column j holding the reduced
    coefficient of y**j at each of the ``points``, with nonzero leading
    columns.  Returns (point, num, den) triples, Res = num/den there.  A
    point whose remainder drops in degree where the others' does not is
    left out.

    With r = a mod b of degree k, Res(a, b) = (-1)**(mn) * lc(b)**(m - k) *
    Res(b, r), and Res(a, c) = c**m for a constant c.  Each of the
    m - n + 1 reduction steps scales ``a`` by lc(b) (pseudo-division), so it
    ends as lc(b)**s * r, and Res(b, lc(b)**s * r) = lc(b)**(s*n) *
    Res(b, r).
    """
    num, den, sign = [1] * len(points), [1] * len(points), 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        lead = b[-1]
        # Step i scales the columns below i by lc(b) before it reaches
        # them; apply those powers at once.
        power = lead
        for j in range(m - n - 1, -1, -1):
            a[j] = [p * x % prime for p, x in zip(power, a[j])]
            if j:
                power = [p * l % prime for p, l in zip(power, lead)]
        for i in range(m - n, -1, -1):
            c = a[i + n]
            for j in range(i, i + n):
                a[j] = [(l * x - q * y) % prime
                        for l, x, q, y in zip(lead, a[j], c, b[j - i])]
        del a[n:]
        while a and not any(a[-1]):
            a.pop()
        if not a:
            return zip(points, [0] * len(points), den)
        if not all(a[-1]):
            keep = [i for i, v in enumerate(a[-1]) if v]
            a, b, (num, den, points) = _take(a, keep), _take(b, keep), _take([num, den, points], keep)
            lead = b[-1]
        # lc(b)**(m - k) over lc(b)**(s*n), as one power.
        excess = m + 1 - len(a) - max(m - n + 1, 0) * n
        if excess > 0:
            num = [x * pow(l, excess, prime) % prime for x, l in zip(num, lead)]
        elif excess:
            den = [x * pow(l, -excess, prime) % prime for x, l in zip(den, lead)]
        if m & n & 1:
            sign = -sign
        a, b = b, a
    m = len(a) - 1
    return zip(points, [x * pow(c, m, prime) * sign % prime for x, c in zip(num, b[0])], den)


def _sylvester_determinant(a, b, prime):
    """Determinant mod ``prime`` of the Sylvester matrix of the reduced
    lists ``a`` and ``b`` (a-block on top, shape from their lengths), as a
    pair (num, den), by Gaussian elimination with row swaps and without
    inverses: scaling a row by the pivot scales the determinant by it."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    num = den = 1
    for k in range(m + n):
        pivot = next((i for i in range(k, m + n) if rows[i][k]), None)
        if pivot is None:
            return 0, 1
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            num = -num
        top = rows[k]
        lead = top[k]
        num = num * lead % prime
        for row in rows[k + 1:]:
            c = row[k]
            if c:
                row[k:] = [(lead * x - c * y) % prime for x, y in zip(row[k:], top[k:])]
                den = den * lead % prime
    return num, den


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
