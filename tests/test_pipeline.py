"""The one-pass report pipeline against the separate public calls.

``characteristic_variety`` and ``betti`` read every invariant off one
squarefree decomposition each of p and q.  Here they are compared, on
random pairs with planted rational roots and multiplicities, with what
the standalone entry points compute on their own, with the planted root
data itself, and with the independent oracles: trial division for the
root counts, a Euclid gcd over the rationals for the irreducibility of
the two curves.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from broughton.arrangement import (
    HypothesesViolated,
    betti,
    characteristic_variety,
    check_hypotheses,
    special_fiber_divisor,
)
from broughton.unipoly import UniPoly
from oracles import (
    b_build_f,
    b_build_g,
    b_is_irreducible_y_linear,
    l_eval,
    l_from_roots,
    l_mul,
    trial_root_count,
)

roots = st.fractions(min_value=-4, max_value=4, max_denominator=3)
units = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
rooted = st.lists(st.tuples(roots, st.integers(1, 4)), min_size=0, max_size=3)


def merge(pairs):
    """Root -> total multiplicity, so repeated draws of a root add up."""
    out = {}
    for root, multiplicity in pairs:
        out[root] = out.get(root, 0) + multiplicity
    return out


@st.composite
def planted_pairs(draw, kind):
    """(p, q, p_roots, q_roots) with rational roots planted by ``kind``.

    "admissible": p and q share a root and no root of q is a root of p + 1.
    "disjoint": p and q share no root.
    "shifted": p and q share a root and q also has a root t with p(t) = -1,
    planted by choosing the unit of p.
    """
    shared = draw(roots)
    p_roots = merge([(shared, draw(st.integers(1, 4)))] + draw(rooted))
    q_roots = merge([(shared, draw(st.integers(1, 3)))] + draw(rooted))
    unit = draw(units)
    if kind == "disjoint":
        q_roots = {r: m for r, m in q_roots.items() if r not in p_roots}
        if not q_roots:
            q_roots = {max(p_roots) + 1: 1}
    if kind == "shifted":
        t = draw(roots.filter(lambda r: r not in p_roots))
        unit = -1 / math.prod((t - r) ** m for r, m in p_roots.items())
        q_roots[t] = q_roots.get(t, 0) + 1
    p_coeffs = l_from_roots(list(p_roots.items()), unit)
    if kind == "admissible":
        # The shared root is never dropped: p vanishes there.
        q_roots = {r: m for r, m in q_roots.items() if l_eval(p_coeffs, r) != -1}
    q_coeffs = l_from_roots(list(q_roots.items()), draw(units))
    return UniPoly(p_coeffs), UniPoly(q_coeffs), p_roots, q_roots


@settings(max_examples=120, deadline=None)
@given(planted_pairs("admissible"))
def test_pipeline_equals_separate_calls(planted):
    p, q, p_roots, q_roots = planted
    report = characteristic_variety(p, q)

    assert report.hypotheses == check_hypotheses(p, q)
    assert report.hypotheses.satisfied
    # Every root is planted and rational, so trial division finds them all.
    candidates = set(p_roots) | set(q_roots)
    s = trial_root_count(q.coeffs, candidates)
    t = trial_root_count(l_mul(p.coeffs, q.coeffs), candidates)
    numbers = report.betti
    assert (numbers.s, numbers.t, numbers.b2) == (s, t, s + t)
    assert numbers.b0 - numbers.b1 + numbers.b2 == s + t - 1
    assert betti(p, q) == numbers
    assert report.divisor == special_fiber_divisor(p)

    # The planted roots are an oracle of their own.
    assert s == len(q_roots)
    assert t == len(set(p_roots) | set(q_roots))
    assert report.orbifold_order == math.gcd(*p_roots.values())


@settings(max_examples=120, deadline=None)
@given(planted_pairs("admissible"))
def test_irreducibility_flags_match_oracle(planted):
    p, q, _, _ = planted
    p_coeffs, q_coeffs = list(p.coeffs), list(q.coeffs)
    assert characteristic_variety(p, q).irreducibility_flags == (
        b_is_irreducible_y_linear(b_build_f(p_coeffs, q_coeffs)),
        b_is_irreducible_y_linear(b_build_g(q_coeffs)),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["disjoint", "shifted"]).flatmap(planted_pairs))
def test_pipeline_rejects_inadmissible_pairs(planted):
    p, q, _, _ = planted
    assert not check_hypotheses(p, q).satisfied
    with pytest.raises(HypothesesViolated):
        characteristic_variety(p, q)
    with pytest.raises(HypothesesViolated):
        betti(p, q)


dense = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=2, max_size=5
).map(UniPoly).filter(lambda a: not a.is_constant())
any_planted = st.sampled_from(["admissible", "disjoint", "shifted"]).flatmap(
    planted_pairs
).map(lambda planted: planted[:2])


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_planted, st.tuples(dense, dense)))
def test_f_irreducible_iff_second_hypothesis(pair):
    # The report's f flag relies on this identity; it holds for every
    # nonconstant pair, admissible or not.
    p, q = pair
    f = b_build_f(list(p.coeffs), list(q.coeffs))
    assert b_is_irreducible_y_linear(f) is check_hypotheses(p, q).no_common_root_p1_q
