"""Squarefree decomposition, its radical and its power index."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from broughton import squarefree
from broughton.arrangement import orbifold_group
from broughton.squarefree import squarefree_decompose
from broughton.unipoly import ONE, UniPoly, X, ZERO, gcd
from oracles import l_from_roots

F = Fraction


def P(*coeffs):
    return UniPoly(coeffs)


def radical(a):
    return squarefree_decompose(a).radical()


def power_index(a):
    return squarefree_decompose(a).multiplicity_gcd


def planted(rng, max_roots=4, max_multiplicity=4, unit_choices=(1,)):
    """Random product unit * prod (x - a_i)**m_i with distinct integer roots."""
    count = rng.randint(1, max_roots)
    roots = rng.sample(range(-5, 6), count)
    multiplicities = [rng.randint(1, max_multiplicity) for _ in roots]
    unit = F(rng.choice(unit_choices))
    pairs = list(zip(roots, multiplicities))
    return pairs, unit, UniPoly(l_from_roots(pairs, unit=unit))


class TestExamples:
    def test_x_cubed_plus_two_x_squared(self):
        result = squarefree_decompose(P(0, 0, 2, 1))
        assert result.unit == 1
        assert result.parts == ((P(2, 1), 1), (X, 2))

    def test_linear(self):
        result = squarefree_decompose(P(-5, 1))
        assert result.unit == 1
        assert result.parts == ((P(-5, 1), 1),)

    def test_scaled_cube(self):
        quad = P(0, 1, 1)
        result = squarefree_decompose(4 * quad ** 3)
        assert result.unit == 4
        assert result.parts == ((quad, 3),)

    def test_constant_has_empty_parts(self):
        result = squarefree_decompose(P(7))
        assert result.unit == 7
        assert result.parts == ()

    def test_radical(self):
        assert radical(X ** 2 * P(2, 1)) == P(0, 2, 1)
        assert radical(P(-1, 1) ** 4) == P(-1, 1)
        assert radical(3 * P(0, 1, 1) ** 3) == P(0, 1, 1)

    def test_distinct_root_count(self):
        # The radical has one simple root per distinct root.
        assert radical(X ** 3).degree == 1
        assert radical(X ** 2 * P(2, 1)).degree == 2
        assert radical(P(1, 0, 1)).degree == 2
        assert radical(P(9)).degree == 0

    def test_power_index(self):
        assert power_index(X ** 6) == 6
        assert power_index(P(0, 1, 1) ** 3) == 3
        assert power_index(X ** 2 * P(2, 1)) == 1
        assert power_index(X ** 4 * P(2, 1) ** 2) == 2
        assert power_index(-4 * X ** 4 * P(2, 1) ** 2) == 2


class TestErrors:
    def test_zero_inputs(self):
        with pytest.raises(ValueError):
            squarefree_decompose(ZERO)
        with pytest.raises(ValueError):
            orbifold_group(ZERO)

    def test_constant_inputs(self):
        # A constant has no parts: radical one, multiplicity gcd zero, and
        # the entry point that returns the power index rejects it.
        assert radical(P(3)) == ONE
        assert power_index(P(3)) == 0
        with pytest.raises(ValueError):
            orbifold_group(P(3))


def test_planted_profile_recovery_and_reconstruction():
    # 200 random planted products: the decomposition must recover the exact
    # grouped factors and multiplicities, and reconstruct bit for bit.
    rng = random.Random(515)
    for _ in range(200):
        pairs, unit, poly = planted(rng, unit_choices=(1, 2, -3, F(1, 2)))
        result = squarefree_decompose(poly)
        assert result.unit == unit

        by_multiplicity = {}
        for root, multiplicity in pairs:
            by_multiplicity.setdefault(multiplicity, []).append(root)
        expected_parts = tuple(
            (UniPoly(l_from_roots([(root, 1) for root in sorted(roots)])), m)
            for m, roots in sorted(by_multiplicity.items())
        )
        assert len(result.parts) == len(expected_parts)
        for (factor, m), (expected_factor, expected_m) in zip(
            result.parts, expected_parts
        ):
            assert m == expected_m
            assert factor == expected_factor

        assert result.reconstruct() == poly


def test_last_part_ends_the_loop_without_constant_gcds(monkeypatch):
    # Once one part is left, Yun's loop stops instead of taking one
    # gcd with a constant per remaining multiplicity level.
    calls = []
    real_gcd = squarefree.gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(squarefree, "gcd", counting_gcd)
    assert squarefree_decompose(X ** 120).parts == ((X, 120),)
    assert len(calls) <= 3

    half = F(1, 2)
    pinned = (
        (3 * (X - 1) ** 3 * (X + 2) ** 7 * (X ** 2 + 1),
         ((X ** 2 + 1, 1), (X - 1, 3), (X + 2, 7))),
        (X ** 2 * (X ** 2 - half) ** 5, ((X, 2), (X ** 2 - half, 5))),
        (-(X ** 2 - 1) ** 4, ((X ** 2 - 1, 4),)),
        (X * (X + half) ** 2 * (X - 3) ** 40, ((X, 1), (X + half, 2), (X - 3, 40))),
    )
    for poly, parts in pinned:
        assert squarefree_decompose(poly).parts == parts


def test_parts_invariants():
    rng = random.Random(626)
    for _ in range(80):
        _, _, poly = planted(rng)
        parts = squarefree_decompose(poly).parts
        multiplicities = [m for _, m in parts]
        assert multiplicities == sorted(set(multiplicities))
        for factor, _ in parts:
            assert factor.leading_coefficient == 1
            assert gcd(factor, factor.derivative()) == ONE
        for i, (fi, _) in enumerate(parts):
            for fj, _ in parts[i + 1:]:
                assert gcd(fi, fj) == ONE


def test_radical_is_idempotent_and_monic():
    rng = random.Random(737)
    for _ in range(60):
        pairs, _, poly = planted(rng)
        rad = radical(poly)
        assert rad.leading_coefficient == 1
        assert radical(rad) == rad
        assert rad.degree == len(pairs)


def test_power_index_maximality_and_consistency():
    rng = random.Random(848)
    for _ in range(60):
        pairs, _, poly = planted(rng, max_roots=3, max_multiplicity=3)
        decomposition = squarefree_decompose(poly)
        d = decomposition.multiplicity_gcd
        assert d == math.gcd(*(m for _, m in pairs))
        base = ONE
        for factor, multiplicity in decomposition.parts:
            base = base * factor ** (multiplicity // d)
        assert base ** d * decomposition.unit == poly
        assert power_index(base) == 1

        k = rng.randint(2, 4)
        assert power_index(poly ** k) % k == 0


def test_power_index_of_explicit_powers():
    base = P(3, 1) * P(-2, 1)
    for d in (1, 2, 3, 5, 8):
        assert power_index(base ** d) == d
    assert power_index(5 * X ** 6) == 6
