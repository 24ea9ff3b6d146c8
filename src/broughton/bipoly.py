"""The auxiliary surface of the connectivity certificate and its
eliminants.

This module is internal to :func:`broughton.decompose.connectivity_certificate`,
which checks every argument before anything here runs; nothing here
checks its inputs again.

A :class:`BiPoly` is a polynomial in two variables x and y with rational
coefficients, stored as a tuple of :class:`UniPoly` coefficients indexed by
the power of y (no trailing zero entry).  It is not a ring: it carries only
what the certificate runs, namely degrees, the two partial derivatives and
the exchange of variables.  Everything of interest here is shallow in y
and the eliminations all project onto the x-line.

The one construction is ``build_h(p, m, n, c)``, the auxiliary polynomial
h = (p(x)*y - 1)**m + c*y**n whose singular locus certifies that the
generic fiber of a candidate decomposition map stays connected.  Its
y-coefficients come straight from the binomial theorem,
C(m, k) * (-1)**(m - k) * p**k at y**k for k <= m, with c added at y**n.
The arrangement curves f and g are never built: every invariant of the
arrangement is read off p and q directly.

Elimination is by Sylvester resultants in y, computed by evaluation and
interpolation modulo one prime (Collins 1971): denominators are cleared
once, every coefficient of the integer resultant is bounded by the
Hadamard-type bound H = (sum_i |A_i|_1**2)**(n/2) * (sum_j |B_j|_1**2)**(m/2)
over the integer y-coefficients A_i, B_j, and the work runs modulo the
smallest Mersenne prime 2**e - 1 above 2*H from a constant table of proven
exponents (61, 89, 107, 127, 521, 607, 1279, 2203, ...; past its end, a
product of table primes joined by the Chinese remainder theorem).  x runs
over 0..D for a degree bound D; at each point the resultant of the
specialized polynomials comes from Euclid mod the prime where both leading
coefficients survive, and from Gaussian elimination on the fixed-shape
Sylvester matrix where one vanishes (or where Euclid's remainder drops in
degree at that point alone).  The values are interpolated mod the
prime and lifted to the symmetric range.  The result is exact by the bound
alone: unlike a gcd, a resultant has no cheap check, so a wrong bound would
give a wrong answer, not an error.  The kernels live in
:mod:`broughton.modular`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .modular import integer_resultant
from .unipoly import (
    NEG_INF,
    ONE,
    UniPoly,
    ZERO,
    _clear_denominators,
    _coerce,
)


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

    def partial_x(self) -> "BiPoly":
        return BiPoly([c.derivative() for c in self._coeffs])

    def partial_y(self) -> "BiPoly":
        return BiPoly([j * c for j, c in enumerate(self._coeffs) if j])

    def swap_vars(self) -> "BiPoly":
        """Exchange the two variables: returns b with b(x, y) = self(y, x)."""
        if not self._coeffs:
            return BiPoly()
        width = 1 + max(c.degree for c in self._coeffs if c)
        swapped = []
        for i in range(width):
            swapped.append(UniPoly([c.coefficient(i) for c in self._coeffs]))
        return BiPoly(swapped)


def build_h(p: UniPoly, m: int, n: int, c: Fraction) -> BiPoly:
    """The auxiliary polynomial h = (p(x)*y - 1)**m + c*y**n.

    By the binomial theorem the coefficient of y**k is
    C(m, k) * (-1)**(m - k) * p**k for k <= m, and c is added at y**n.
    The arguments are taken as the certificate has checked them.
    """
    coeffs = [ZERO] * (max(m, n) + 1)
    power = ONE
    for k in range(m + 1):
        coeffs[k] = power * ((-1) ** (m - k) * math.comb(m, k))
        if k < m:
            power = power * p
    coeffs[n] = coeffs[n] + c
    return BiPoly(coeffs)


def _x_degree_bound(a: BiPoly, b: BiPoly) -> int:
    """Upper bound on deg_x Res_y(a, b), with m = deg_y a, n = deg_y b.

    If deg_x a_i <= alpha + w*i and deg_x b_j <= gamma + w*j for the
    coefficients a_i, b_j of y**i, y**j, then every term of the Sylvester
    determinant has x-degree at most n*alpha + m*gamma + w*m*n: the
    y-weights its entries carry sum to m*n whatever the permutation.  The
    least such bound over integers |w| <= max(deg_x a, deg_x b) is
    returned; w = 0 gives n*deg_x a + m*deg_x b.  The bound is a convex
    function of w, a sum of maxima of affine ones, so a walk from w = 0
    that stops at the first step which does not lower it finds the least.
    """
    m, n = a.degree_y, b.degree_y
    degrees_a = [(i, c.degree) for i, c in enumerate(a.coeffs) if c]
    degrees_b = [(j, c.degree) for j, c in enumerate(b.coeffs) if c]
    width = max(a.degree_x, b.degree_x)

    def bound(w):
        return (n * max([d - w * i for i, d in degrees_a])
                + m * max([d - w * j for j, d in degrees_b])
                + w * m * n)

    best = bound(0)
    for step in (1, -1):
        w = step
        while abs(w) <= width and (value := bound(w)) < best:
            best = value
            w += step
        if w != step:
            break
    return best


def resultant_y(a: BiPoly, b: BiPoly) -> UniPoly:
    """Resultant eliminating y, as a polynomial in x.

    Sylvester determinant with the a-block on top, taken over Q[x] itself.
    Vanishes identically exactly when a and b share a factor of positive
    y-degree.  When neither input involves y the Sylvester matrix is
    empty and the resultant is one.

    With m = deg_y a, n = deg_y b and a = A/L_a, b = B/L_b for integer A,
    B, Res(a, b) = Res(A, B) / (L_a**n * L_b**m).  Every coefficient of
    Res(A, B) is at most H = (sum_i |A_i|_1**2)**(n/2) *
    (sum_j |B_j|_1**2)**(m/2) in absolute value, where A_i and B_j are the
    integer y-coefficients: on |x| = 1 Hadamard's inequality bounds the
    determinant by H, and then Cauchy's estimate bounds each coefficient.
    Res(A, B) is computed modulo the smallest
    Mersenne prime 2**e - 1 above 2*H, e from a constant table of proven
    exponents (61, 89, 107, 127, 521, 607, 1279, ...; a product of the
    largest ones by the Chinese remainder theorem past its end), and lifted
    to the symmetric range, so the result is exact only by that bound.
    Res(A, B) has degree at most D = ``_x_degree_bound(a, b)``.  At each
    x = 0..D the value is the resultant of the specialized y-polynomials
    by Euclid mod the prime where both leading coefficients survive, and
    otherwise the determinant of the fixed-shape Sylvester matrix by
    Gaussian elimination mod the prime, which is exact because evaluation
    is a ring homomorphism.  Newton interpolation mod the prime gives the
    coefficients (Collins 1971).  See :mod:`broughton.modular`.
    """
    m = a.degree_y
    n = b.degree_y
    a_ints, scale_a = _clear_denominators([c.coeffs for c in a.coeffs])
    b_ints, scale_b = _clear_denominators([c.coeffs for c in b.coeffs])
    ints = integer_resultant(a_ints, b_ints, _x_degree_bound(a, b))
    scale = scale_a ** n * scale_b ** m
    return UniPoly([Fraction(c, scale) for c in ints])
