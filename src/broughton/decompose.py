"""Functional decomposition of univariate polynomials, with the
connectivity certificate that rules decompositions out for the arrangement
maps.

A decomposition P = H(Q) with deg H >= 2 and deg Q >= 2 is what makes the
generic fiber of the polynomial map P disconnected; certifying that no such
decomposition exists is therefore a connectivity statement.  Decomposition
is computed exactly: in characteristic zero, once the inner degree e and
the normalization (Q monic, Q(0) = 0) are fixed, the inner polynomial is
pinned down by the top coefficients of P alone, and the outer one falls out
of the Q-adic digit expansion.  Every digit is split off by an exact
division, so the expansion itself proves P = H(Q): a returned pair is
correct by construction, and an inexact division is a proof that no pair
exists at that inner degree.

The certificate route does not decompose anything.  For the arrangement
family the candidate obstruction is captured by the auxiliary surface
h = (p(x)*y - 1)**m + c*y**n: when its affine singular locus is finite the
generic fiber is connected and no decomposition can appear.  Finiteness is
checked by the two resultant eliminants of the partial derivatives, which
factor because h_x = m*p'*y*(p*y - 1)**(m - 1) does: r_x is p'**N * p**e
times a nonzero constant, and r_y a nonzero monomial times the product of
G(p(xi), y) over the critical points xi of p, where G(p(x), y) = h_y.  Both
are nonzero for every accepted input: p' != 0 for a nonconstant p, and each
G(p(xi), y) has the constant term +-m*p(xi) in y, or is c*n*y**(n - 1)
where p(xi) = 0.  So the verdict is always "connected-certified", and
only the eliminants are computed.  :func:`connectivity_certificate` gives
the formulas.  It is the one public entry to the bivariate layer
(``bipoly``), which computes the one resultant left as a norm, and the
one place its inputs are checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .unipoly import UniPoly, _exact_quotient, _make, _primitive, _scalar, _series_power

CONNECTED_CERTIFIED = "connected-certified"


class Decomposition(NamedTuple):
    """P = outer(inner) with inner monic, inner(0) = 0, both degrees >= 2."""

    outer: UniPoly
    inner: UniPoly


class ConnectivityCertificate(NamedTuple):
    """Verdict of the singular-locus route, with the eliminants as witness."""

    eliminants: tuple

    # Both eliminants are nonzero for every accepted input (see
    # connectivity_certificate), so the verdict is one and the same.
    status = CONNECTED_CERTIFIED
    # Nonzero eliminants confine the singular locus to a finite grid.
    singular_finite = True
    # The verdict in words; it depends on no input either.
    notes = (
        "both partial-derivative eliminants are nonzero, so the singular "
        "locus of the auxiliary surface is finite and the generic fiber "
        "is connected"
    )


def uni_decompose_at(p: UniPoly, e: int):
    """Find H, Q with p = H(Q), deg Q = e, Q monic and Q(0) = 0.

    Returns a :class:`Decomposition` or None when no such pair exists.  The
    inner degree must be a proper divisor of deg p with 2 <= e <= deg p / 2,
    so deg p >= 4 is required.  Under that normalization the solution is
    unique, which is why a single candidate per degree suffices:

    >>> uni_decompose_at(UniPoly([1, 0, 2, 0, 1]), 2)
    Decomposition(outer=UniPoly(x^2 + 2*x + 1), inner=UniPoly(x^2))
    """
    if not isinstance(e, int) or isinstance(e, bool):
        raise ValueError("inner degree must be an integer")
    if not isinstance(p, UniPoly) or p.degree < 4:
        raise ValueError("decomposition needs deg p >= 4")
    degree = p.degree
    if e < 2 or e > degree // 2 or degree % e:
        raise ValueError(
            f"inner degree {e} is not a proper divisor of {degree} in [2, {degree // 2}]"
        )
    r = degree // e

    # Q is pinned down by the top e coefficients of p.  With the reversals
    # P~(x) = x^n p(1/x) / lc p and Q~(x) = x^e Q(1/x), Q**r has the same
    # top e coefficients as p / lc p exactly when Q~**r = P~ mod x^e, that
    # is, Q~ = P~**(1/r) mod x^e, since P~(0) = Q~(0) = 1.  On the primitive
    # numerator A of p with lead L, P~(L*x) has the integer coefficient
    # A_(n-j) * L**(j-1) at x^j.  Miller's recurrence gives the one of its
    # r-th root at x^k times r**(2k), which is that of Q~ times (r*r*L)**k.
    ints = _primitive(p._num)
    lead = ints[-1]
    series = [1]
    power = 1
    for j in range(1, e):
        series.append(ints[degree - j] * power)
        power *= lead
    root = _series_power(series, 1, r, e)
    base = r * r * lead
    q_ints = [0] * (e + 1)
    power = 1  # base**(e - 1 - k) at step k
    for k in range(e - 1, 0, -1):
        q_ints[e - k] = root[k] * power
        power *= base
    q_ints[e] = power
    inner = _make(q_ints, power)

    # Q-adic digit expansion of p.  p = H(Q) forces every digit to be a
    # constant, the matching coefficient of H, and since Q(0) = 0 it is the
    # constant term of what is left.  Taking it off must leave a multiple
    # of Q, so an inexact division proves that no H exists.  Each division
    # lowers the degree by e >= 2, so the loop ends, and when every one is
    # exact, p = sum digit_i * Q**i = H(Q) holds with no further check.
    # It runs on ints: Q = x*B/b for the primitive B, b = lc B, and the
    # k-th rest is R * b**k / D for the numerator R and p = A/D.  Taking
    # the digit R[0] off leaves x times R[1:], and by Gauss's lemma B
    # divides R[1:] over the rationals exactly when it does over the ints.
    divisor = _primitive(inner._num)[1:]  # B
    lead, scale = divisor[-1], 1  # b, b**k
    digits = []
    rest = list(p._num)
    while rest:
        digits.append(rest[0] * scale)
        rest = _exact_quotient(rest[1:], divisor)
        if rest is None:
            return None
        scale *= lead
    return Decomposition(outer=_make(digits, p._den), inner=inner)


def is_decomposable(p: UniPoly) -> bool:
    """Whether p = H(Q) for some pair with deg H >= 2 and deg Q >= 2.

    Tries every divisor of deg p in the admissible range.  Polynomials of
    prime degree have no admissible inner degree and are indecomposable.
    """
    if not isinstance(p, UniPoly) or p.is_constant():
        raise ValueError("decomposability needs a nonconstant polynomial")
    degree = p.degree
    for e in range(2, degree // 2 + 1):
        if degree % e == 0 and uni_decompose_at(p, e) is not None:
            return True
    return False


def connectivity_certificate(
    p: UniPoly, m: int, n: int, c: Fraction
) -> ConnectivityCertificate:
    """Certify connectivity of the generic fiber of the map behind
    h = (p(x)*y - 1)**m + c*y**n.

    Only the exponent range m >= 2, n >= 2 is accepted: the certificate
    argument needs both branch exponents genuinely plural, and the
    remaining cases are settled by direct classification rather than by
    this computation.

    The eliminants are r_x = Res_y(h_x, h_y) and r_y = Res_x(h_x, h_y).
    Common zeros of the partials project into their zero sets, so when both
    are nonzero the singular locus sits inside a finite grid.  Neither is
    taken from h itself.  With d = deg p, N = max(m, n) - 1 and
    e = (m - 1)*(N - n + 1) + 1, the factorization
    h_x = m*p'*y*(p*y - 1)**(m - 1) gives

        r_x = (-1)**(m - 1) * m**(N + 1) * (c*n)**(m - 1) * p'**N * p**e,
        r_y = (m*lc(p')*y)**(m*d) * ((lc(p)*y)**(m*d) * (c*n*y**(n - 1))**d)**(m - 1)
              * Res_v(chi, G),

    where chi(v) = prod (v - p(xi)) over the roots xi of p', with
    multiplicity, and G(v, y) = m*v*(v*y - 1)**(m - 1) + c*n*y**(n - 1)
    with h_y(x, y) = G(p(x), y).  Only Res_v(chi, G) = prod G(p(xi), y) is
    computed, as a norm from Q(y)[x]/(p') by
    :func:`broughton.bipoly.critical_norm`, and chi is never formed.

    All of it runs on ints: p = A/L for the integer numerator A, and
    c*n = cn/cd.  r_x is K * A'**N * A**e / (cd**(m - 1) * L**(N + e)) for
    an int K, and the monomial's coefficient an int over an int.

    Both eliminants are nonzero for every accepted input.  r_x is, because
    p' is nonzero for a nonconstant p, c is nonzero and m, n >= 2.  r_y is a
    nonzero monomial times Res_v(chi, G) = prod G(p(xi), y), and each factor
    is nonzero: where p(xi) != 0 its constant term in y is
    (-1)**(m - 1) * m * p(xi), since n >= 2, and where p(xi) = 0 it is
    c*n*y**(n - 1).  So the verdict is always "connected-certified", and
    the certificate's status, finiteness and notes are constants.
    """
    if not isinstance(p, UniPoly) or p.is_constant():
        raise ValueError("connectivity certificate needs a nonconstant p")
    if not isinstance(m, int) or not isinstance(n, int) or m < 2 or n < 2:
        raise ValueError("connectivity certificate needs integer exponents >= 2")
    scale = _scalar(c)
    if scale is None or not scale:
        raise ValueError("connectivity certificate needs a nonzero rational c")
    # Imported here so that decompose never loads the bivariate layer.
    from .bipoly import critical_norm

    d = p.degree
    top = max(m, n) - 1
    exponent = (m - 1) * (top - n + 1) + 1
    ints, den = list(p._num), p._den  # p = A/L
    slope = [i * a for i, a in enumerate(ints) if i]  # A'
    lead = slope[-1]  # L*lc(p')
    cn, cd = scale.numerator * n, scale.denominator  # c*n = cn/cd
    power = (_make(slope) ** top * _make(ints) ** exponent)._num
    factor = (-1) ** (m - 1) * m ** (top + 1) * cn ** (m - 1)
    r_x = _make([factor * a for a in power], cd ** (m - 1) * den ** (top + exponent))
    res = critical_norm(ints, den, m, n, cn, cd)  # Res_v(chi, G)
    shift = m * d + (m - 1) * (m * d + (n - 1) * d)
    unit = (m * lead) ** (m * d) * (ints[-1] ** (m * d) * cn ** d) ** (m - 1)
    r_y = _make([0] * shift + [unit * a for a in res._num],
                den ** (m * m * d) * cd ** (d * (m - 1)) * res._den)
    return ConnectivityCertificate(eliminants=(r_x, r_y))
