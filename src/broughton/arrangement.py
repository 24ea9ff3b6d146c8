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

Every fact is read off the factors p and q were written as
(:func:`broughton.unipoly._written_factors`; an expanded polynomial is
its own one factor).  A factor f of q shares deg gcd(p, f) roots with p,
and none with p + 1 iff gcd(p + 1, f) = 1; for a linear f both are read
off p at its root, factor by factor, with no gcd.  ``check_hypotheses``
reads q's factors as written, the report the squarefree parts of their
coprime base: s is their degree, t = deg rad p + s - (shared roots), and
p's parts give the divisor and d (:class:`CharVarietyReport`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .squarefree import SquarefreeDecomposition, _squarefree_base, squarefree_decompose
from .unipoly import UniPoly, _make, _written_factors, _written_value, gcd


class HypothesesViolated(ValueError):
    """The admissibility hypotheses on (p, q) fail."""


class Hypotheses(NamedTuple):
    """Admissibility of the pair: both clauses and their conjunction."""

    common_root_pq: bool
    no_common_root_p1_q: bool
    satisfied: bool


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

    unit: Fraction
    components: tuple
    divisor_multiplicity: int

    value = Fraction(-1)  # the special value of the pencil, for every p


class TorsionCharacter(NamedTuple):
    """A torsion point (exp(2*pi*i*a0), exp(2*pi*i*a1)) of the torus,
    both coordinates Fractions in [0, 1)."""

    a0: Fraction
    a1: Fraction


class TranslatedTorus(NamedTuple):
    """A torsion translate of a one-parameter subtorus of (C*)^2 with a
    primitive integer direction."""

    torsion: TorsionCharacter
    direction: tuple


_PRIME = (1 << 61) - 1  # see _shared_roots
_ADMISSIBLE = Hypotheses(common_root_pq=True, no_common_root_p1_q=True, satisfied=True)


class CharVarietyReport(NamedTuple):
    """Every invariant of an admissible pair, from its Betti numbers and
    the fiber divisor of p; the rest is constant or read off the divisor."""

    betti: BettiNumbers
    divisor: FiberDivisor

    # characteristic_variety raises on any other pair.
    hypotheses = _ADMISSIBLE
    # The resonance varieties vanish on every admissible pair (cited).
    resonance_trivial = True
    # f is irreducible iff gcd(p*q, p + 1) = gcd(q, p + 1) = 1, which is
    # hypothesis 2; g = q*y - 1 has coprime coefficients q and -1.
    irreducibility_flags = (True, True)

    @property
    def orbifold_order(self) -> int:
        """The power index d of p: the orbifold group is Z/d."""
        return self.divisor.divisor_multiplicity

    @property
    def components(self) -> tuple:
        """The d - 1 translated tori W_j, j = 1, ..., d - 1."""
        d = self.divisor.divisor_multiplicity
        zero, direction = Fraction(0), (0, 1)
        return tuple(
            TranslatedTorus(TorsionCharacter(Fraction(j, d), zero), direction)
            for j in range(1, d)
        )


def _require_nonconstant(value, name):
    if not isinstance(value, UniPoly) or value.is_constant():
        raise ValueError(f"{name} must be a nonconstant polynomial")


def _shared_roots(p: UniPoly, pieces):
    """The roots p shares with the int tuples ``pieces`` of factors, once
    each, and whether p + 1 shares none (see the module docstring)."""
    written = _written_factors(p)
    own = {f for f, _ in written[1]}
    shared, clean_shift = 0, True
    for f in pieces:
        if tuple(f) in own:  # a factor of p: p vanishes at each root of f
            shared += len(f) - 1
        elif len(f) == 2:  # p at r = -f[0]/f[1], first modulo a prime
            top, bottom = _written_value(written, -f[0], f[1], _PRIME)
            if top % _PRIME and (top + bottom) % _PRIME:
                continue  # p(r) is neither 0 nor -1
            top, bottom = _written_value(written, -f[0], f[1])
            shared += not top
            clean_shift = clean_shift and top != -bottom
        else:
            f = _make(list(f))
            shared += gcd(p, f).degree
            clean_shift = clean_shift and gcd(p + 1, f).degree == 0
    return shared, clean_shift


def check_hypotheses(p: UniPoly, q: UniPoly) -> Hypotheses:
    """Admissibility of the pair: p, q share a root; p + 1, q share none.

    Both are read off the pieces of q's factors; no root is extracted.
    """
    _require_nonconstant(p, "p")
    _require_nonconstant(q, "q")
    shared, clean_shift = _shared_roots(p, [f for f, _ in _written_factors(q)[1]])
    common = shared > 0
    return Hypotheses(
        common_root_pq=common,
        no_common_root_p1_q=clean_shift,
        satisfied=common and clean_shift,
    )


def _fiber_divisor(decomposition: SquarefreeDecomposition) -> FiberDivisor:
    return FiberDivisor(
        unit=decomposition.unit,
        components=decomposition.parts,
        divisor_multiplicity=decomposition.multiplicity_gcd,
    )


def betti(p: UniPoly, q: UniPoly) -> BettiNumbers:
    """Betti numbers of the complement M for an admissible pair.

    b1 counts the two curves; b2 = s + t where s is the number of distinct
    roots of q and t the number of distinct roots of p*q.
    """
    return characteristic_variety(p, q).betti


def special_fiber_divisor(p: UniPoly) -> FiberDivisor:
    """Divisor of the fiber of the pencil of f over its special value -1.

    The fiber decomposes into the vertical lines carried by the squarefree
    factors of p, each with its multiplicity; the fiber curve itself is
    reduced and does not contribute to the divisor gcd beyond the lines.
    """
    _require_nonconstant(p, "p")
    return _fiber_divisor(squarefree_decompose(p))


def characteristic_variety(p: UniPoly, q: UniPoly) -> CharVarietyReport:
    """Positive-dimensional components of the first characteristic variety.

    For an admissible pair they are exactly the translates

        W_j = { exp(2*pi*i*j/d) } x C*,   j = 1, ..., d - 1,

    of the second-coordinate subtorus, where d is the power index of p.
    Each is read off exactly: torsion character (j/d, 0), direction (0, 1).
    For d = 1 the list is empty.

    One squarefree decomposition of p and the squarefree parts of q's
    coprime base carry everything, or HypothesesViolated is raised.
    """
    _require_nonconstant(p, "p")
    _require_nonconstant(q, "q")
    p_parts = squarefree_decompose(p)
    q_parts = [f for f, _ in _squarefree_base(q)]
    shared, clean_shift = _shared_roots(p, q_parts)
    if not shared or not clean_shift:
        raise HypothesesViolated(
            "the pair (p, q) is not admissible: need a common root of p and "
            "q and no common root of p + 1 and q"
        )
    s = sum([len(f) - 1 for f in q_parts])
    t = sum([factor.degree for factor, _ in p_parts.parts]) + s - shared
    return CharVarietyReport(
        betti=BettiNumbers(b0=1, b1=2, b2=s + t, s=s, t=t),
        divisor=_fiber_divisor(p_parts),
    )
