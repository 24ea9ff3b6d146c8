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

The decomposition is read off a coprime base of the factors ``p`` was
written as (:func:`broughton.unipoly._written_factors`): two pieces that
are neither equal nor coprime give way to their gcd, with the sum of
their exponents, and their cofactors, until all are pairwise coprime
(factor refinement: Bach, Driscoll and Shallit, *J. Algorithms* 15, 1993).
Distinct linear pieces are coprime, and so are x and the rest; other
pairs are screened by GCDHEU's first step (:func:`broughton.unipoly._heuristic_gcd`)
at the xi of the largest norm of a nonlinear piece, which bounds every
common root.  So c*x**v and products of linear factors, as in the
paper's pairs, take no gcd.  Yun's loop splits a nonlinear piece A of
exponent k into parts of multiplicity m in A, m*k in ``p``.  It begins
with h = gcd(A, A') by :func:`broughton.unipoly._gcd_ints`, the gcd of
:func:`broughton.unipoly.gcd`, with the cofactors R = A/h, the radical
up to a constant, and Y = A'/h.  A constant h proves A squarefree, its
own single part.  Otherwise the loop finds the parts (Yun 1976; von zur
Gathen and Gerhard, *Modern Computer Algebra*, 14.6):

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

Each k takes :func:`broughton.unipoly._gcd_ints` of W and the primitive
part of Y - k*R'; a constant gcd means no part has multiplicity k.  Only
that gcd draws primes, in :mod:`broughton.modular`, and only the pieces
it lifts are lifted: for (1000*x + 1)**1200 expanded, the constant
cofactor of A' (written as that power, it takes no gcd).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .unipoly import (ONE, UniPoly, _exact_quotient, _gcd_ints, _make, _mul_ints, _polynomial,
                      _positive, _primitive, _value, _written_factors, _xi_bytes)


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
    """Squarefree decomposition from the factors ``a`` was written as, by
    Yun's loop on the package gcd (see the module docstring).

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
    unit, parts = poly.leading_coefficient, {}
    for f, m in _squarefree_base(poly):
        parts.setdefault(m, []).append(f)
    if list(parts) == [1]:  # a squarefree poly is its own part
        return SquarefreeDecomposition(unit=unit, parts=((poly.monic(), 1),))
    return SquarefreeDecomposition(unit=unit, parts=tuple(
        [(_make(reduce(_mul_ints, fs, [1]), 1).monic(), m) for m, fs in sorted(parts.items())]))


def _coprime_base(poly):
    """The written factors of the nonzero ``poly`` refined into pairwise
    coprime pieces, mapped to their exponents (see the module docstring)."""
    todo = list(_written_factors(poly)[1])
    norms = [max(map(abs, a)) for a, _ in todo if len(a) > 2]
    w = 8 * (norms and _xi_bytes(max(norms)) or 0)  # 0: nothing to screen, or no screen
    base, groups = {}, ({}, {})  # linear pieces but x, and the others, with values at xi
    while todo:
        a, k = todo.pop()
        if a in base or a == (0, 1):
            base[a] = base.get(a, 0) + k
            continue
        va = w and _value(a, w)
        for b in [b for group in groups[len(a) == 2:] for b, vb in group.items()
                  if not w or 2 * math.gcd(va, vb) > 1 << w]:
            g, rest_a, rest_b = _gcd_ints(list(a), list(b))
            if len(g) > 1:
                kb = base.pop(b)
                del groups[len(b) > 2][b]
                todo += [(_positive(f), e) for f, e in ((g, k + kb), (rest_a, k), (rest_b, kb))
                         if len(f) > 1]
                break
        else:
            base[a] = k
            groups[len(a) > 2][a] = va
    return base


def _squarefree_base(poly):
    """The coprime base of ``poly`` with each nonlinear piece A split into
    its parts by Yun's loop, as (part, multiplicity in ``poly``) pairs."""
    pieces = []
    for a, k in _coprime_base(poly).items():
        parts = {1: a}
        if len(a) > 2:  # a constant gcd(A, A') proves A squarefree
            h, R, Y = _gcd_ints(list(a), [i * c for i, c in enumerate(a) if i])
            parts = parts if h == [1] else _yun(R, Y, len(a) - 1)
        pieces += [(f, m * k) for m, f in parts.items()]
    return pieces


def _yun(R, Y, degree):
    """The primitive parts by multiplicity of a primitive integer polynomial A
    of degree ``degree``, given R = A/h and Y = A'/h for h = gcd(A, A')
    nonconstant, by Yun's loop (see the module docstring)."""
    dR = [i * c for i, c in enumerate(R) if i]
    parts, W, left, k = {}, R, degree, 0
    while True:
        m, rest = divmod(left, len(W) - 1)
        if not rest and _exact_quotient(_difference(Y, dR, m), W) is not None:
            parts[m] = W
            return parts
        f = [1]
        while f == [1]:  # a constant gcd: no part of multiplicity k
            k += 1
            f, W, _ = _gcd_ints(W, _primitive(_difference(Y, dR, k)))
        parts[k] = f
        left -= k * (len(f) - 1)


def _difference(Y, dR, k):
    """Y - k*R' with no trailing zero, for Y and R' of one length."""
    Z = [a - k * b for a, b in zip(Y, dR)]
    while Z and not Z[-1]:
        Z.pop()
    return Z
