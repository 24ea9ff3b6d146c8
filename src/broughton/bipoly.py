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
interpolation on integers: denominators are cleared once, x runs over the
integers 0..D for a degree bound D, each point takes one integer Bareiss
determinant, and the values are interpolated back to a polynomial in x.
Nothing is rounded, so a resultant of polynomials over Q[x] lands in Q[x]
exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _sylvester_rows(a_coeffs, b_coeffs):
    """Integer Sylvester matrix rows, a-block first, coefficients high to low.

    The shape comes from the sequence lengths alone, so a vanishing leading
    entry keeps its place.
    """
    m = len(a_coeffs) - 1
    n = len(b_coeffs) - 1
    dim = m + n
    rows = []
    high_a = list(reversed(a_coeffs))
    high_b = list(reversed(b_coeffs))
    for shift in range(n):
        row = [0] * dim
        row[shift:shift + m + 1] = high_a
        rows.append(row)
    for shift in range(m):
        row = [0] * dim
        row[shift:shift + n + 1] = high_b
        rows.append(row)
    return rows


def _bareiss_determinant(rows) -> int:
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


def _horner(coeffs, t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _interpolate_naturals(values) -> list:
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
    return coeffs


def _x_degree_bound(a: BiPoly, b: BiPoly) -> int:
    """Upper bound on deg_x Res_y(a, b), with m = deg_y a, n = deg_y b.

    If deg_x a_i <= alpha + w*i and deg_x b_j <= gamma + w*j for the
    coefficients a_i, b_j of y**i, y**j, then every term of the Sylvester
    determinant has x-degree at most n*alpha + m*gamma + w*m*n: the
    y-weights its entries carry sum to m*n whatever the permutation.  The
    least such bound over integers |w| <= max(deg_x a, deg_x b) is
    returned; w = 0 gives n*deg_x a + m*deg_x b.
    """
    m, n = a.degree_y, b.degree_y
    degrees_a = [(i, c.degree) for i, c in enumerate(a.coeffs) if c]
    degrees_b = [(j, c.degree) for j, c in enumerate(b.coeffs) if c]
    width = max(a.degree_x, b.degree_x)
    return min(
        n * max(d - w * i for i, d in degrees_a)
        + m * max(d - w * j for j, d in degrees_b)
        + w * m * n
        for w in range(-width, width + 1)
    )


def resultant_y(a: BiPoly, b: BiPoly) -> UniPoly:
    """Resultant eliminating y, as a polynomial in x.

    Sylvester determinant with the a-block on top, taken over Q[x] itself.
    Vanishes identically exactly when a and b share a factor of positive
    y-degree.  When neither input involves y the Sylvester matrix is
    empty and the resultant is one.

    Computed by evaluation and interpolation (Collins 1971).  With
    m = deg_y a, n = deg_y b and a = A/L_a, b = B/L_b for integer A, B,
    Res(a, b) = Res(A, B) / (L_a**n * L_b**m).  Res(A, B) has degree at
    most D = ``_x_degree_bound(a, b)``, and its values at x = 0..D are
    integer Bareiss determinants of the fixed-shape Sylvester matrix with
    entries evaluated at the point.  Evaluation is a ring homomorphism, so
    this is exact even where a leading y-coefficient vanishes at the point
    (the pointwise resultant of the specialized polynomials would drop
    there, which is why the matrix shape stays fixed).
    """
    m = a.degree_y
    n = b.degree_y
    a_ints, scale_a = _clear_denominators([c.coeffs for c in a.coeffs])
    b_ints, scale_b = _clear_denominators([c.coeffs for c in b.coeffs])
    bound = _x_degree_bound(a, b)
    values = [
        _bareiss_determinant(_sylvester_rows(
            [_horner(c, t) for c in a_ints], [_horner(c, t) for c in b_ints]))
        for t in range(bound + 1)
    ]
    scale = scale_a ** n * scale_b ** m
    return UniPoly(Fraction(c, scale) for c in _interpolate_naturals(values))

