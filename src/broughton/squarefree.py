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
A is decomposed over the integers first, by one integer gcd for
gcd(A, A') and then one per multiplicity:

* That gcd is read off gamma = gcd(A(xi), A'(xi)) at a power of two xi.
  If 2*gamma <= xi, A is squarefree, ``p`` is its own single part, and
  nothing more is done: that settles the q = x*(x+2)*...*(x+b) of the
  paper's standard pair up to b = 67.  Otherwise the candidate h read off
  gamma is gcd(A, A') once it divides A and A' (GCDHEU); R = A/h is
  then the radical, up to a constant, and Y = A'/h.
* With A = c * f1**1 * f2**2 * ..., the f_i squarefree and pairwise
  coprime, Y = R * sum i * f_i'/f_i, so Y - k*R' = R * sum (i - k) *
  f_i'/f_i, and gcd(R, Y - k*R') is f_k, the product of the parts of
  multiplicity k: f_i divides each term j != i, and the term i only
  when i = k, where it vanishes (Yun 1976).  R, R' and Y are evaluated
  once, at a xi2 = 2**w2 chosen from max|R| by the same rule, and
  gamma_k = gcd(R(xi2), Y(xi2) - k*R'(xi2)) for k = 1, 2, ...  A common
  root of R and Y - k*R' is a root of R, so Cauchy's bound on R alone
  carries the GCDHEU argument to every k: 2*gamma_k <= xi2 proves that
  no part has multiplicity k, and otherwise the candidate read off
  gamma_k is f_k once it divides R and Y - k*R'.  The loop stops when the
  parts found reach deg R.

So a high power of small coefficients draws no prime.  A candidate that
fails its division proves nothing, and then, as past the cut, the rest is
decomposed modulo primes and lifted, never over the rationals.  The parts
are small even when gcd(p, p') = f2 * f3**2 * ... is huge, as for a high
power, so only the parts are lifted:

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

from .unipoly import (ONE, X, UniPoly, _exact_quotient, _heuristic_gcd, _make, _mul_ints,
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
    """Squarefree decomposition, by integer gcds when the coefficients are
    small, else by Yun's algorithm modulo primes and a certified lift (see
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
    which x does not divide, by multiplicity: from integer gcds below the
    cut of :func:`broughton.unipoly._heuristic_gcd`, else from Yun's
    algorithm modulo primes and a certified lift."""
    derivative = [i * c for i, c in enumerate(ints) if i]
    found = _heuristic_gcd(ints, derivative)
    if found is not None:
        h, R, Y = found
        if h == [1]:
            return {1: _make(list(ints), ints[-1])}
        parts = _integer_yun(R, Y)
        if parts is not None:
            return parts
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


def _integer_yun(R, Y):
    """The monic parts by multiplicity of A, given R = A/h and Y = A'/h
    for h = gcd(A, A'), from one integer gcd per multiplicity, or None
    when a candidate fails its division (see the module docstring)."""
    size = _xi_bytes(max(map(abs, R)))
    if size is None:
        return None
    w = 8 * size
    dR = [i * c for i, c in enumerate(R) if i]
    r, dr, y = _value(R, w), _value(dR, w), _value(Y, w)
    parts, left, k = {}, len(R) - 1, 0
    while left:
        k += 1
        gamma = math.gcd(r, y - k * dr)
        if 2 * gamma <= 1 << w:  # no part of multiplicity k
            continue
        f = _read_candidate(gamma, size)
        if (_exact_quotient(R, f) is None
                or _exact_quotient([a - k * b for a, b in zip(Y, dR)], f) is None):
            return None
        parts[k] = _make(f, f[-1])
        left -= len(f) - 1
    return parts


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
