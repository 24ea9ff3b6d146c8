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

Let A be the primitive integer part of the rest.  Unless its
coefficients are past the cut of :func:`broughton.unipoly._heuristic_gcd`,
one integer gcd of the values of A and A' at a power of two first tries
to prove gcd(A, A') = 1: then A is squarefree, ``p`` is its own single
part, and no prime is drawn.  That settles the q = x*(x+2)*...*(x+b) of
the paper's standard pair up to b = 67.  A failed test proves nothing,
and then the rest is decomposed modulo primes and lifted, never over the
rationals.  The parts are small even when gcd(p, p') = f2 * f3**2 * ...
is huge, as for a high power, so only the parts are lifted:

* For each prime p that exceeds deg A and does not divide the leading
  coefficient of A, Yun's algorithm runs on A modulo p (Yun 1976; von
  zur Gathen and Gerhard, *Modern Computer Algebra*, 14.6).  It is exact
  there because p > deg A; a prime at most deg A is skipped.
* A squarefree image proves gcd(A, A') = 1, since that gcd keeps its
  degree modulo p: ``p`` is its own single part.  Otherwise the monic
  parts modulo p go to the lift of :mod:`broughton.modular`, ranked by
  the radical's degree modulo p, which is at most the true radical's,
  with equality exactly when the images are the true parts.
* A lift is accepted only by a certificate over the integers.  Let P_i be
  the primitive integer parts, W = P_1 * ... * P_k and
  V = sum m_i * P_i' * W / P_i.  If A' * W == A * V, then the logarithmic
  derivatives of A and of B = P_1**m1 * ... * P_k**mk agree, so
  (A / B)' = 0 and A = c * B.  The P_i are squarefree and pairwise coprime
  because their images modulo a prime that divides no lc(P_i) are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .unipoly import (ONE, X, UniPoly, _heuristic_gcd, _make, _mul_ints, _polynomial, _primitive,
                      _x_split)


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
        acc = ONE
        for factor, _ in self.parts:
            acc = acc * factor
        return acc

    @property
    def multiplicity_gcd(self) -> int:
        """The power index: gcd of the multiplicities, 0 for a constant."""
        return math.gcd(*[multiplicity for _, multiplicity in self.parts])


def squarefree_decompose(a) -> SquarefreeDecomposition:
    """Squarefree decomposition, by one integer gcd when that proves the
    input squarefree, else by Yun's algorithm modulo primes and a
    certified lift (see the module docstring).

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
        parts[shift] = X * parts.get(shift, ONE)
    return SquarefreeDecomposition(unit=poly.leading_coefficient,
                                   parts=tuple((f, m) for m, f in sorted(parts.items())))


def _x_free_parts(ints):
    """The monic parts of the nonconstant integer polynomial ``ints``,
    which x does not divide, by multiplicity, from Yun's algorithm modulo
    primes and a certified lift, unless one integer gcd proves it
    squarefree."""
    derivative = [i * c for i, c in enumerate(ints) if i]
    if _heuristic_gcd(ints, derivative, coprime_only=True) == [1]:
        return {1: _make(list(ints), ints[-1])}
    from .modular import _lift, _yun_mod

    def image(p):
        if p < len(ints) or not ints[-1] % p:  # p <= deg A or p | lc A
            return None
        parts, multiplicities = zip(*_yun_mod([c % p for c in ints], p))
        radical_degree = sum(len(f) - 1 for f in parts)
        return radical_degree, multiplicities, [] if multiplicities == (1,) else parts

    def accept(multiplicities, parts):
        if parts and not _certified(ints, parts, multiplicities):
            return None
        # No parts: A is squarefree, its own single part, and nothing was lifted.
        return {m: _make(P, P[-1]) for P, m in zip(parts or [ints], multiplicities)}

    return _lift(image, accept)


def _certified(A, parts, multiplicities):
    """Whether A' * W == A * V for W = P_1 * ... * P_k and
    V = sum m_i * P_i' * W / P_i, that is whether the integer polynomial A
    is a constant times P_1**m_1 * ... * P_k**m_k."""
    W = [1]
    for P in parts:
        W = _mul_ints(W, P)
    V = [0] * (len(W) - 1)
    for i, (P, m) in enumerate(zip(parts, multiplicities)):
        term = [j * m * c for j, c in enumerate(P) if j]
        for Q in parts[:i] + parts[i + 1:]:
            term = _mul_ints(term, Q)
        V = [x + y for x, y in zip(V, term)]
    derivative = [j * c for j, c in enumerate(A) if j]
    return _mul_ints(derivative, W) == _mul_ints(A, V)
