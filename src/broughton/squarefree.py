"""Squarefree structure of rational polynomials.

Everything the arrangement layer needs to know about a defining polynomial
``p`` reduces to its squarefree decomposition

    p = unit * f1**m1 * f2**m2 * ... * fk**mk

with monic, squarefree, pairwise coprime ``fi`` and strictly increasing
multiplicities ``mi``.  The radical f1*f2*...*fk has one simple root per
distinct root of ``p``, and the power index d = gcd(m1, ..., mk) measures
how far ``p`` is a perfect power: over the complex numbers
p = (unit root adjusted) base**d with d maximal, and d is what drives both
the multiple-fiber multiplicity and the orbifold group of the associated
pencil.

The power x**v that divides ``p`` comes off first.  What is left is
prime to x and is decomposed as below; x then joins the part of
multiplicity v, as x times it, or becomes a part of its own in
multiplicity order.  So c*x**v, such as p = x**a of the paper's standard
pair, draws no prime at all.

Let A be the primitive integer part of the rest.  One gcd of
:func:`broughton.unipoly._gcd_ints`, the gcd of :func:`broughton.unipoly.gcd`,
gives h = gcd(A, A') with the cofactors R = A/h, the radical up to a
constant, and Y = A'/h.  A constant h proves A squarefree, and ``p`` is
its own single part: that settles the q = x*(x+2)*...*(x+b) of the
paper's standard pair, by one integer gcd up to b = 67.  Otherwise Yun's
loop finds the parts (Yun 1976; von zur Gathen and Gerhard, *Modern
Computer Algebra*, 14.6):

* With A = c * f1**1 * f2**2 * ..., the f_i squarefree and pairwise
  coprime, Y = R * sum i * f_i'/f_i, so Y - k*R' = R * sum (i - k) *
  f_i'/f_i, and f_i divides Y - k*R' exactly when i = k: f_i divides each
  term j != i, and the term i only when it vanishes.  So with W = R
  divided by the parts found below k, f_k = gcd(W, Y - k*R'), and W/f_k
  is the next W.
* One part left stops the loop.  Let m = (deg A - sum k*deg f_k) / deg W
  over the parts found.  A part of W divides Y - m*R' exactly when its
  multiplicity is m, so if m is an integer and W divides Y - m*R', W is
  the last part, of multiplicity m.  The test runs at the start and after
  each part, so a pure power takes no gcd after gcd(A, A'), and no gcd
  with a constant result follows the last part.  Y - k*R' is zero only
  when every part has multiplicity k, a pure power, so the loop never
  meets a zero one.
* If max|R| is within the cut of :func:`broughton.unipoly._heuristic_gcd`,
  R, R' and Y are evaluated once, at a xi = 2**w chosen from max|R| by
  the same rule, and gamma_k = gcd(W(xi), Y(xi) - k*R'(xi)).  A common
  root of W and Y - k*R' is a root of R, so Cauchy's bound on R alone
  carries the GCDHEU argument to every k: 2*gamma_k <= xi proves that no
  part has multiplicity k, and otherwise the candidate read off gamma_k
  is f_k once it divides W and Y - k*R'.  The stop divides only when
  W(xi) divides Y(xi) - m*R'(xi).  So a high power of small coefficients
  draws no prime.
* Otherwise, past the cut or when the candidate fails its division, f_k
  and W/f_k come from :func:`broughton.unipoly._gcd_ints` of W and the
  primitive part of Y - k*R', for that k alone.

Only that gcd draws primes, in :mod:`broughton.modular`, and only the
pieces it lifts are lifted: for (1000*x + 1)**1200, the constant cofactor
of A'.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .unipoly import (ONE, X, UniPoly, _divide_both, _exact_quotient, _gcd_ints, _make,
                      _polynomial, _primitive, _read_candidate, _value, _x_split, _xi_bytes)


class SquarefreeDecomposition(NamedTuple):
    """Unit and (factor, multiplicity) parts, multiplicities increasing."""

    unit: Fraction
    parts: tuple

    def reconstruct(self) -> UniPoly:
        """Multiply the decomposition back out, exactly."""
        acc = UniPoly.constant(self.unit)
        for factor, multiplicity in self.parts:
            acc = acc * factor ** multiplicity
        return acc

    def radical(self) -> UniPoly:
        """Monic product of the distinct factors; ONE for a constant."""
        if not self.parts:
            return ONE
        acc = self.parts[0][0]
        for factor, _ in self.parts[1:]:
            acc = acc * factor
        return acc

    @property
    def multiplicity_gcd(self) -> int:
        """The power index: gcd of the multiplicities, 0 for a constant."""
        return math.gcd(*[multiplicity for _, multiplicity in self.parts])


def squarefree_decompose(a) -> SquarefreeDecomposition:
    """Squarefree decomposition by Yun's loop on the package gcd, whose
    gcds are integer gcds of values when the coefficients are small (see
    the module docstring).

    Returns the unit (the leading coefficient) and the list of monic
    squarefree factors with their multiplicities, strictly increasing and
    with constant factors dropped.  A constant input, a rational scalar
    included, has empty parts.

    >>> squarefree_decompose(UniPoly([0, 0, 2, 1])).parts
    ((UniPoly(x + 2), 1), (UniPoly(x), 2))
    """
    poly = _polynomial(a)
    if not poly:
        raise ValueError("squarefree decomposition needs a nonzero polynomial")
    shift, num = _x_split(poly._num)
    parts = _x_free_parts(_primitive(num)) if len(num) > 1 else {}
    if shift:  # x joins the part of multiplicity shift, or is a part of its own
        parts[shift] = X * parts[shift] if shift in parts else X
    return SquarefreeDecomposition(unit=poly.leading_coefficient,
                                   parts=tuple((f, m) for m, f in sorted(parts.items())))


def _x_free_parts(ints):
    """The monic parts of the nonconstant integer polynomial ``ints``,
    which x does not divide, by multiplicity."""
    h, R, Y = _gcd_ints(ints, [i * c for i, c in enumerate(ints) if i])
    if h == [1]:
        return {1: _make(list(ints), ints[-1])}
    return _yun(R, Y, len(ints) - 1)


def _yun(R, Y, degree):
    """The monic parts by multiplicity of a primitive integer polynomial A
    of degree ``degree``, given R = A/h and Y = A'/h for h = gcd(A, A')
    nonconstant, by Yun's loop (see the module docstring)."""
    dR = [i * c for i, c in enumerate(R) if i]
    size = _xi_bytes(max(map(abs, R)))
    if size is not None:
        w = 8 * size
        wv, dr, y = _value(R, w), _value(dR, w), _value(Y, w)
    parts, W, left, k = {}, R, degree, 0
    while True:
        m, rest = divmod(left, len(W) - 1)
        if (not rest and (size is None or not (y - m * dr) % wv)
                and _exact_quotient(_difference(Y, dR, m), W) is not None):
            parts[m] = _make(W, W[-1])
            return parts
        k += 1
        found = None
        if size is not None:
            gamma = math.gcd(wv, y - k * dr)
            if 2 * gamma <= 1 << w:  # no part of multiplicity k
                continue
            found = _divide_both(_read_candidate(gamma, size), W, _difference(Y, dR, k))
        if found is None:
            found = _gcd_ints(W, _primitive(_difference(Y, dR, k)))
            if found[0] == [1]:  # no part of multiplicity k
                continue
        f, W, _ = found
        parts[k] = _make(f, f[-1])
        left -= k * (len(f) - 1)
        if size is not None:
            wv //= _value(f, w)


def _difference(Y, dR, k):
    """Y - k*R' with no trailing zero, for Y and R' of one length."""
    Z = [a - k * b for a, b in zip(Y, dR)]
    while Z and not Z[-1]:
        Z.pop()
    return Z
