"""Squarefree structure of rational polynomials.

Everything the arrangement layer needs to know about a defining polynomial
``p`` reduces to its squarefree decomposition

    p = unit * f1**m1 * f2**m2 * ... * fk**mk

with monic, squarefree, pairwise coprime ``fi`` and strictly increasing
multiplicities ``mi``.  Yun's algorithm computes it with gcds alone; in
characteristic zero it recovers every multiplicity exactly.  The radical
f1*f2*...*fk has one simple root per distinct root of ``p``, and the power
index d = gcd(m1, ..., mk) measures how far ``p`` is a perfect power: over
the complex numbers p = (unit root adjusted) base**d with d maximal, and d
is what drives both the multiple-fiber multiplicity and the orbifold group
of the associated pencil.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .unipoly import ONE, UniPoly, exact_div, gcd


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


def squarefree_decompose(a: UniPoly) -> SquarefreeDecomposition:
    """Yun's squarefree decomposition.

    Returns the unit (the leading coefficient) and the list of monic
    squarefree factors with their multiplicities, strictly increasing and
    with constant factors dropped.  A constant input has empty parts.

    >>> squarefree_decompose(UniPoly([0, 0, 2, 1])).parts
    ((UniPoly(x + 2), 1), (UniPoly(x), 2))
    """
    if not a:
        raise ValueError("squarefree decomposition needs a nonzero polynomial")
    unit = a.leading_coefficient
    if a.is_constant():
        return SquarefreeDecomposition(unit=unit, parts=())
    w0 = a.monic()
    g = gcd(w0, w0.derivative())
    w = exact_div(w0, g)
    z = exact_div(w0.derivative(), g) - w.derivative()
    parts = []
    multiplicity = 1
    while w.degree > 0:
        # At this step z = sum over the remaining parts f_i of
        # (i - multiplicity) * f_i' * w / f_i.  The parts are coprime and
        # squarefree, so z = c * w' for a constant c exactly when one part
        # is left, of multiplicity multiplicity + c; stop there instead of
        # stepping through c gcds with a constant (c = 0 when z vanishes).
        dw = w.derivative()
        ratio = z.leading_coefficient / dw.leading_coefficient
        if z == dw * ratio:
            parts.append((w.monic(), multiplicity + int(ratio)))
            break
        f = gcd(w, z)
        if f.degree > 0:
            parts.append((f, multiplicity))
        w = exact_div(w, f)
        z = exact_div(z, f) - w.derivative()
        multiplicity += 1
    return SquarefreeDecomposition(unit=unit, parts=tuple(parts))
