"""Topological invariants of the plane-curve arrangement attached to a
pair of one-variable polynomials.

The pair (p, q) defines two affine plane curves,

    C0 = { g = 0 }   with  g = q(x)*y - 1
    C1 = { f = 0 }   with  f = p(x)*q(x)*y - (p(x) + 1),

and M is the complement of their union in the affine plane.  The functions
here compute the invariants of M that are decided by elementary exact
computations on p and q alone:

  * the admissibility hypotheses (p and q share a root, p + 1 and q do
    not), under which C0 and C1 are disjoint smooth rational curves;
  * the Betti numbers b1 = 2 and b2 = s + t, with s and t the distinct
    root counts of q and p*q;
  * the multiple-fiber divisor of the pencil of f at its special value -1,
    whose component multiplicities all share the power index d of p;
  * the orbifold group of that pencil, cyclic of order d;
  * the positive-dimensional part of the first characteristic variety
    inside the character torus (C*)^2: one translated subtorus
    { exp(2*pi*i*j/d) } x C* for each j = 1, ..., d - 1, encoded exactly
    by the torsion character (j/d, 0) and the direction (0, 1).

Everything is exact; torsion characters are rational points of the
character torus and stay rational.

The report derives every invariant of an admissible pair from one
squarefree decomposition each of p and q: the hypotheses from gcds of the
radicals, s = deg rad q, t = deg rad p + deg rad q - deg gcd(rad p, rad q),
and the divisor and d from the parts of p.  On admissible pairs the
irreducibility flags follow from hypothesis 2 rather than being computed
separately.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .squarefree import SquarefreeDecomposition, squarefree_decompose
from .unipoly import UniPoly, gcd


class HypothesesViolated(ValueError):
    """The admissibility hypotheses on (p, q) fail."""


def _make_checked(cls, iterable):
    """``_make`` of a checked record, through its checking ``__new__``;
    the named tuple's ``_replace`` builds through ``_make``."""
    return cls(*iterable)


class _HypothesesFields(NamedTuple):
    common_root_pq: bool
    no_common_root_p1_q: bool
    satisfied: bool


class Hypotheses(_HypothesesFields):
    """Admissibility of the pair: both clauses and their conjunction.

    Like every checked record here, it validates its fields in its own
    ``__new__``, by position or keyword, and ``_make`` and ``_replace``
    go through it: a failing check raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, common_root_pq, no_common_root_p1_q, satisfied):
        if satisfied != (common_root_pq and no_common_root_p1_q):
            raise ValueError("satisfied must be the conjunction of the clauses")
        return tuple.__new__(cls, (common_root_pq, no_common_root_p1_q, satisfied))

    _make = classmethod(_make_checked)


class BettiNumbers(NamedTuple):
    b0: int
    b1: int
    b2: int
    s: int
    t: int


class FiberDivisor(NamedTuple):
    """Divisor of the special fiber of the pencil of f at value -1.

    Components are the squarefree factors of p with their multiplicities;
    the unit makes the reconstruction unit * prod(factor**multiplicity) = p
    exact.  divisor_multiplicity is the gcd of the multiplicities.
    """

    value: Fraction
    unit: Fraction
    components: tuple
    divisor_multiplicity: int


class _TorsionCharacterFields(NamedTuple):
    a0: Fraction
    a1: Fraction


class TorsionCharacter(_TorsionCharacterFields):
    """A torsion point (exp(2*pi*i*a0), exp(2*pi*i*a1)) of the torus;
    both coordinates are Fractions in [0, 1), checked in ``__new__``."""

    __slots__ = ()

    def __new__(cls, a0, a1):
        # 0 <= a < 1, read off the numerator and the positive denominator
        # without Fraction comparisons.
        if isinstance(a0, Fraction) and isinstance(a1, Fraction):
            (n0, d0), (n1, d1) = a0.as_integer_ratio(), a1.as_integer_ratio()
            if 0 <= n0 < d0 and 0 <= n1 < d1:
                return tuple.__new__(cls, (a0, a1))
        raise ValueError("torsion coordinates live in [0, 1)")

    _make = classmethod(_make_checked)


class _TranslatedTorusFields(NamedTuple):
    torsion: TorsionCharacter
    direction: tuple


class TranslatedTorus(_TranslatedTorusFields):
    """A torsion translate of a one-parameter subtorus of (C*)^2; the
    direction, checked in ``__new__``, is a primitive integer vector."""

    __slots__ = ()

    def __new__(cls, torsion, direction):
        n0, n1 = direction
        if math.gcd(n0, n1) != 1:  # gcd(0, 0) = 0
            raise ValueError("direction must be a primitive integer vector")
        return tuple.__new__(cls, (torsion, direction))

    _make = classmethod(_make_checked)


class _CharVarietyReportFields(NamedTuple):
    hypotheses: Hypotheses
    betti: BettiNumbers
    divisor: FiberDivisor
    orbifold_order: int
    components: tuple
    resonance_trivial: bool
    irreducibility_flags: tuple


class CharVarietyReport(_CharVarietyReportFields):
    """Every invariant of an admissible pair; ``__new__`` checks that
    there are orbifold_order - 1 components."""

    __slots__ = ()

    def __new__(cls, hypotheses, betti, divisor, orbifold_order, components,
                resonance_trivial, irreducibility_flags):
        if len(components) != orbifold_order - 1:
            raise ValueError("component count must be orbifold order minus one")
        return tuple.__new__(cls, (hypotheses, betti, divisor, orbifold_order, components,
                                   resonance_trivial, irreducibility_flags))

    _make = classmethod(_make_checked)


def _require_nonconstant(value, name):
    if not isinstance(value, UniPoly) or value.is_constant():
        raise ValueError(f"{name} must be a nonconstant polynomial")


def check_hypotheses(p: UniPoly, q: UniPoly) -> Hypotheses:
    """Admissibility of the pair: p, q share a root; p + 1, q share none.

    Shared roots are read off gcd degrees, so no root is ever extracted.
    """
    _require_nonconstant(p, "p")
    _require_nonconstant(q, "q")
    common = gcd(p, q).degree >= 1
    clean_shift = gcd(p + 1, q).degree == 0
    return Hypotheses(
        common_root_pq=common,
        no_common_root_p1_q=clean_shift,
        satisfied=common and clean_shift,
    )


def _fiber_divisor(decomposition: SquarefreeDecomposition) -> FiberDivisor:
    return FiberDivisor(
        value=Fraction(-1),
        unit=decomposition.unit,
        components=decomposition.parts,
        divisor_multiplicity=decomposition.multiplicity_gcd,
    )


_ADMISSIBLE = Hypotheses(common_root_pq=True, no_common_root_p1_q=True, satisfied=True)


def _admissible_invariants(p: UniPoly, q: UniPoly):
    """Betti numbers and fiber divisor of an admissible pair, or raise.

    One squarefree decomposition each of p and q carries everything: p and
    q share a root iff their radicals do, p + 1 and q share none iff
    gcd(rad q, p + 1) is constant, and rad(p*q) is the lcm of the two
    radicals, so t needs no decomposition of the product.
    """
    _require_nonconstant(p, "p")
    _require_nonconstant(q, "q")
    p_parts = squarefree_decompose(p)
    rad_p = p_parts.radical()
    rad_q = squarefree_decompose(q).radical()
    shared = gcd(rad_p, rad_q).degree
    if shared == 0 or gcd(rad_q, p + 1).degree != 0:
        raise HypothesesViolated(
            "the pair (p, q) is not admissible: need a common root of p and "
            "q and no common root of p + 1 and q"
        )
    s = rad_q.degree
    t = rad_p.degree + s - shared
    return BettiNumbers(b0=1, b1=2, b2=s + t, s=s, t=t), _fiber_divisor(p_parts)


def betti(p: UniPoly, q: UniPoly) -> BettiNumbers:
    """Betti numbers of the complement M for an admissible pair.

    b1 counts the two curves; b2 = s + t where s is the number of distinct
    roots of q and t the number of distinct roots of p*q.
    """
    return _admissible_invariants(p, q)[0]


def special_fiber_divisor(p: UniPoly) -> FiberDivisor:
    """Divisor of the fiber of the pencil of f over its special value -1.

    The fiber decomposes into the vertical lines carried by the squarefree
    factors of p, each with its multiplicity; the fiber curve itself is
    reduced and does not contribute to the divisor gcd beyond the lines.
    """
    _require_nonconstant(p, "p")
    return _fiber_divisor(squarefree_decompose(p))


def orbifold_group(p: UniPoly) -> int:
    """Order of the cyclic orbifold group of the pencil of f.

    The only orbifold point is the special value -1 with multiplicity the
    power index d of p, so the group is Z/d.
    """
    _require_nonconstant(p, "p")
    return squarefree_decompose(p).multiplicity_gcd


def characteristic_variety(p: UniPoly, q: UniPoly) -> CharVarietyReport:
    """Positive-dimensional components of the first characteristic variety.

    For an admissible pair they are exactly the translates

        W_j = { exp(2*pi*i*j/d) } x C*,   j = 1, ..., d - 1,

    of the second-coordinate subtorus, where d is the power index of p.
    Each is stored exactly: torsion character (j/d, 0), direction (0, 1).
    For d = 1 the list is empty.
    """
    betti_numbers, divisor = _admissible_invariants(p, q)
    hypotheses = _ADMISSIBLE
    d = divisor.divisor_multiplicity
    zero, direction = Fraction(0), (0, 1)
    components = tuple(
        TranslatedTorus(TorsionCharacter(Fraction(j, d), zero), direction)
        for j in range(1, d)
    )
    flags = (
        # f is irreducible iff gcd(p*q, p + 1) = gcd(q, p + 1) = 1: hypothesis 2.
        hypotheses.no_common_root_p1_q,
        # g = q*y - 1 has coprime coefficients q and -1: always irreducible.
        True,
    )
    return CharVarietyReport(
        hypotheses=hypotheses,
        betti=betti_numbers,
        divisor=divisor,
        orbifold_order=d,
        components=components,
        resonance_trivial=True,
        irreducibility_flags=flags,
    )
