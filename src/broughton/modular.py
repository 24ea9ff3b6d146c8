"""Kernels that compute modulo primes: the gcd's word-size primes and the
resultant's Mersenne primes.

Nothing here is loaded until a gcd or a resultant runs, so a command that
needs neither, or a parse error, never compiles it.  Coefficient lists are
ints, low degree first.

:func:`integer_resultant` computes Res_y(A, B) of integer polynomials in x
and y modulo one Mersenne prime 2**e - 1 above twice a Hadamard-type bound
on its coefficients (Collins 1971; von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 6).  Mersenne primes are proven prime, so a constant
table of their exponents replaces any primality test.
"""

from __future__ import annotations

import math
from operator import mul

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


_PRIMES = []


def _prime(index: int) -> int:
    """The ``index``-th prime below 2**62, counting down from the largest.

    Found on first use and kept, so importing the module costs nothing.
    """
    while len(_PRIMES) <= index:
        n = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[index]


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 37 with the twelve prime bases up to 37,
    which no composite below 3.18e23 passes."""
    d = n - 1
    s = 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gcd_mod(a, b, p):
    """Monic gcd modulo the prime p by Euclid.

    ``a`` and ``b`` are coefficient lists, low to high, reduced mod p and
    with nonzero leading entries; ``a`` is overwritten.
    """
    while b:
        inverse = pow(b[-1], -1, p)
        b = [c * inverse % p for c in b]
        top = len(b) - 1
        for i in range(len(a) - 1 - top, -1, -1):
            c = a[i + top]
            if c:
                a[i:i + top] = [(x - c * y) % p for x, y in zip(a[i:i + top], b)]
        del a[top:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _crt(lift, modulus, image, p):
    """The symmetric residues mod modulus*p that agree with ``lift``
    (symmetric mod ``modulus``) and with ``image`` mod the prime p."""
    inverse = pow(modulus, -1, p)
    combined_modulus = modulus * p
    half = combined_modulus // 2
    out = []
    for h, r in zip(lift, image):
        c = h + modulus * ((r - h) * inverse % p)
        out.append(c - combined_modulus if c > half else c)
    return out
