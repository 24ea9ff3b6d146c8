"""The one resultant the connectivity certificate computes, taken as a norm.

This module is internal to :func:`broughton.decompose.connectivity_certificate`,
which checks every argument before anything here runs; nothing here
checks its inputs again.

The certificate never builds its surface h = (p(x)*y - 1)**m + c*y**n.
Since h_x = m*p'*y*(p*y - 1)**(m - 1) factors, both eliminants of the
partials split by the multiplicativity of the resultant, Res(f*g, k) =
Res(f, k)*Res(g, k).  Res_y(h_x, h_y) is a constant times p'**N * p**e,
with no resultant left, and Res_x(h_x, h_y) a monomial in y times
Res_v(chi, G), where chi(v) = prod (v - p(xi)) over the roots xi of p',
with multiplicity, and G(p(x), y) = h_y (d = deg p, N = max(m, n) - 1; the
formulas, which run on ints, are in
:func:`~broughton.decompose.connectivity_certificate`).  Since chi is
monic, Res_v(chi, G) = prod G(p(xi), y), the norm of G(p(x), y) from
Q(y)[x]/(p') down to Q(y): the determinant of multiplication by G(p(x), y)
on that space of dimension delta = d - 1 (von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 6; Cohen, *A Course in Computational
Algebraic Number Theory*, ch. 3-4).  :func:`critical_norm` takes it as one
determinant over Q[y], of size at most delta; chi is never formed, and no
bound, prime or interpolation enters.  It is nonzero for every accepted input,
since each G(p(xi), y) has the constant term +-m*p(xi) in y, or is
c*n*y**(n - 1) where p(xi) = 0.
"""

from __future__ import annotations

import math

from .unipoly import ONE, ZERO, UniPoly, _make, _x_split, exact_div


def critical_norm(ints, den: int, m: int, n: int, cn: int, cd: int) -> UniPoly:
    """prod G(p(xi), y) over the roots xi of p', with multiplicity, for
    G(v, y) = m*v*(v*y - 1)**(m - 1) + (cn/cd)*y**(n - 1) and p = A/L, where
    ``ints`` holds the integer coefficients of A, low first, and L = ``den``.

    All of it runs on ints up to the matrix entries.  With d = deg A,
    l = d*lc(A) = lc(A') and z = l*x, a(z) = l**(d - 2) * A'(z/l) is monic
    of degree d - 1 with integer coefficients, and its roots are the l*xi.
    beta = l**d * A(z/l) has beta(l*xi) = l**d * A(xi), so
    p(xi) = beta(l*xi)/s with s = l**d * L, and the product is the norm of
    G(beta/s, y) from Q(y)[z]/(a) down to Q(y).  The norm is multiplicative,
    so a = z**v * b splits it into G(beta(0)/s, y)**v times the norm
    modulo b (:func:`_norm`): a critical point xi = 0 of multiplicity v
    costs no matrix rows.  For d = 1, a = 1 and the norm is one.
    """
    d = len(ints) - 1
    lead = d * ints[-1]
    # a without its leading one: a_i = (i + 1)*A_(i+1) * l**(d - 2 - i).
    monic = [(i + 1) * ints[i + 1] * lead ** (d - 2 - i) for i in range(d - 1)]
    shift, rest = _x_split(monic + [1])
    scaled = [c * lead ** (d - i) for i, c in enumerate(ints)]
    s = lead ** d * den
    norm = _norm(scaled, rest[:-1], s, m, n, cn, cd)
    return norm * _norm(scaled, [0], s, m, n, cn, cd) ** shift if shift else norm


def _norm(scaled, monic, s, m, n, cn, cd) -> UniPoly:
    """The norm of G(beta/s, y) from Q(y)[z]/(b) down to Q(y), for the monic
    b = z**k + sum monic[i]*z**i, k = len(monic), and beta = scaled mod b.

    The content beta and s share is divided out of both.  Then
    gamma = cd*s**m * G(beta/s, y) = sum_{j=1..m} cd*m*C(m - 1, j - 1) *
    (-s)**(m - j) * beta**j * y**(j - 1) + cn*s**m * y**(n - 1), with the
    powers of beta taken mod b, is an integer polynomial in z and y.
    Column i of the matrix of multiplication by gamma/(cd*s**m) on
    Q(y)[z]/(b) is gamma*z**i mod b over cd*s**m, one UniPoly in y per
    entry, and its determinant is the norm.  Fraction-free Bareiss with row
    swaps takes it over Q[y]; for k <= 2 it divides nothing.  For k = 0 the
    matrix is empty and the norm is one.
    """
    k = len(monic)
    if not k:
        return ONE
    beta = _reduce(scaled, monic)
    common = math.gcd(s, *beta)
    s //= common
    beta = [c // common for c in beta]

    width = max(m, n)
    gamma = [[0] * width for _ in range(k)]
    power = [1]
    for j in range(1, m + 1):
        power = _reduce(_mul(power, beta), monic)
        scale = cd * m * math.comb(m - 1, j - 1) * (-s) ** (m - j)
        for row, c in zip(gamma, power):
            row[j - 1] = scale * c
    gamma[0][n - 1] += cn * s ** m

    columns = [gamma]
    for _ in range(k - 1):  # times z: shift up, and z**k = -(b - z**k)
        column = columns[-1]
        top = column[-1]
        columns.append([[-monic[0] * t for t in top]] + [
            [u - a * t for u, t in zip(below, top)]
            for a, below in zip(monic[1:], column)])
    scale = cd * s ** m
    return _determinant([[_make(column[i], scale) for column in columns]
                         for i in range(k)])


def _mul(a, b):
    """Schoolbook product of two int lists, low first, which unlike
    :func:`~broughton.unipoly._mul_ints` may end in zeros or be all zero."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _reduce(a, monic):
    """The int list ``a`` modulo the monic z**k + sum monic[i]*z**i,
    k = len(monic), as a list of length k."""
    k = len(monic)
    a = a + [0] * (k - len(a))
    for top in range(len(a) - 1, k - 1, -1):
        t = a[top]
        if t:
            for i, c in enumerate(monic):
                a[top - k + i] -= t * c
    return a[:k]


def _determinant(rows) -> UniPoly:
    """Determinant of a square matrix of UniPolys, at least 1 x 1, by
    fraction-free Bareiss with row swaps; each division is exact."""
    size = len(rows)
    sign = 1
    for k in range(size - 1):
        if not rows[k][k]:
            for i in range(k + 1, size):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            head = row[k]
            for j in range(k + 1, size):
                entry = row[j] * pivot - head * pivot_row[j]
                row[j] = exact_div(entry, previous) if k else entry
        previous = pivot
    det = rows[-1][-1]
    return -det if sign < 0 else det
