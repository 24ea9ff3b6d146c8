"""Invariants of the two-curve complement: hypotheses, Betti numbers,
fiber divisor, orbifold order, and the characteristic-variety components."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from broughton.arrangement import (
    BettiNumbers,
    CharVarietyReport,
    FiberDivisor,
    Hypotheses,
    HypothesesViolated,
    TorsionCharacter,
    TranslatedTorus,
    betti,
    characteristic_variety,
    check_hypotheses,
    special_fiber_divisor,
)
from broughton.unipoly import UniPoly, X, gcd
from oracles import (
    b_build_f,
    b_is_irreducible_y_linear,
    l_from_roots,
    random_fraction,
    trial_root_count,
)

F = Fraction


def P(*coeffs):
    return UniPoly(coeffs)


def from_roots(pairs, unit=1):
    return UniPoly(l_from_roots(pairs, F(unit)))


def random_admissible_pair(rng):
    """Planted admissible pair: p and q share the root 0, and q's other
    roots are kept away from the roots of p + 1 by construction.  Every
    root lies in ``CANDIDATES``.  Returns p, q and the planted (root,
    multiplicity) pairs of p."""
    shared = F(0)
    p_extra = [(F(rng.randint(1, 4)), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    p_parts = [(shared, rng.randint(1, 3))] + p_extra
    p = from_roots(p_parts)
    # The roots of p + 1 are not controlled, so retry q until the second
    # clause holds; misses are rare.
    for _ in range(100):
        q_extra = [(F(-rng.randint(1, 5)), 1) for _ in range(rng.randint(0, 2))]
        q = from_roots([(shared, 1)] + q_extra)
        if gcd(p + 1, q).degree == 0:
            return p, q, p_parts
    raise AssertionError("could not plant an admissible pair")


CANDIDATES = range(-5, 5)


def planted_power_index(pairs):
    """gcd of the planted multiplicities, a root drawn twice counted once."""
    totals = {}
    for root, multiplicity in pairs:
        totals[root] = totals.get(root, 0) + multiplicity
    return math.gcd(*totals.values())


class TestHypotheses:
    def test_frozen_truth_table(self):
        good = check_hypotheses(P(0, 0, 1), P(0, 2, 1))
        assert (good.common_root_pq, good.no_common_root_p1_q) == (True, True)
        assert good.satisfied is True

        same = check_hypotheses(X, X)
        assert same.satisfied is True

        disjoint = check_hypotheses(X, X + 1)
        assert disjoint.common_root_pq is False
        assert disjoint.satisfied is False

        tangled = check_hypotheses(X, X * (X + 1))
        assert tangled.common_root_pq is True
        assert tangled.no_common_root_p1_q is False
        assert tangled.satisfied is False

    def test_consistency_field_is_enforced(self):
        with pytest.raises(ValueError):
            Hypotheses(common_root_pq=True, no_common_root_p1_q=True, satisfied=False)

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            check_hypotheses(P(3), X)
        with pytest.raises(ValueError):
            check_hypotheses(X, P(0))

    def test_violations_raise_for_downstream_invariants(self):
        for func in (betti, characteristic_variety):
            with pytest.raises(HypothesesViolated):
                func(X, X + 1)

    def test_hypotheses_decide_f_irreducibility(self):
        # f = p*q*y - (p + 1) is irreducible exactly when the second
        # admissibility clause holds, whatever the first clause does.
        rng = random.Random(404)
        for _ in range(60):
            p = UniPoly([random_fraction(rng) for _ in range(rng.randint(1, 3))] + [F(1)])
            q = UniPoly([random_fraction(rng) for _ in range(rng.randint(1, 3))] + [F(1)])
            if p.is_constant() or q.is_constant():
                continue
            expect = gcd(p + 1, q).degree == 0
            f = b_build_f(list(p.coeffs), list(q.coeffs))
            assert b_is_irreducible_y_linear(f) is expect
            assert check_hypotheses(p, q).no_common_root_p1_q is expect


class TestBetti:
    def test_frozen_values(self):
        assert betti(P(0, 0, 1), P(0, 2, 1)) == BettiNumbers(b0=1, b1=2, b2=4, s=2, t=2)
        assert betti(X, X) == BettiNumbers(b0=1, b1=2, b2=2, s=1, t=1)
        p = from_roots([(F(0), 3), (F(1), 3)])
        assert betti(p, X) == BettiNumbers(b0=1, b1=2, b2=3, s=1, t=2)

    def test_distinct_root_bounds(self):
        rng = random.Random(414)
        for _ in range(60):
            p, q, _ = random_admissible_pair(rng)
            numbers = betti(p, q)
            assert numbers.b0 == 1 and numbers.b1 == 2
            assert numbers.b2 == numbers.s + numbers.t
            s = trial_root_count(q.coeffs, CANDIDATES)
            t = trial_root_count((p * q).coeffs, CANDIDATES)
            assert (numbers.s, numbers.t) == (s, t)
            # Euler characteristic of the complement.
            assert numbers.b0 - numbers.b1 + numbers.b2 == s + t - 1
            # p*q sees every root of q, plus at most the extra roots of p.
            p_roots = trial_root_count(p.coeffs, CANDIDATES)
            assert numbers.s <= numbers.t <= numbers.s + p_roots

    def test_scaling_q_by_a_unit_changes_nothing(self):
        p, q = P(0, 0, 1), P(0, 2, 1)
        assert betti(p, F(7) * q) == betti(p, q)


class TestFiberDivisor:
    def test_frozen_example(self):
        divisor = special_fiber_divisor(F(4) * X ** 4 * (X + 2) ** 2)
        assert divisor.value == F(-1)
        assert divisor.unit == F(4)
        assert divisor.components == ((X + 2, 2), (X, 4))
        assert divisor.divisor_multiplicity == 2

    def test_squarefree_p_has_reduced_fiber(self):
        divisor = special_fiber_divisor(X * (X + 1))
        assert divisor.components == ((X * (X + 1), 1),)
        assert divisor.divisor_multiplicity == 1

    def test_reconstruction_and_gcd_invariants(self):
        rng = random.Random(424)
        for _ in range(60):
            parts = [
                (F(rng.randint(-3, 3)), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            unit = random_fraction(rng)
            if not unit:
                unit = F(2)
            p = from_roots(parts, unit)
            divisor = special_fiber_divisor(p)
            rebuilt = UniPoly.constant(divisor.unit)
            for factor, multiplicity in divisor.components:
                assert factor.leading_coefficient == 1
                assert multiplicity % divisor.divisor_multiplicity == 0
                rebuilt = rebuilt * factor ** multiplicity
            assert rebuilt == p
            assert divisor.divisor_multiplicity == planted_power_index(parts)


class TestOrbifold:
    """The orbifold order d is the divisor's multiplicity gcd, and the
    report reads it off its divisor."""

    def test_frozen_orders(self):
        def order(p):
            return special_fiber_divisor(p).divisor_multiplicity

        assert order(X ** 5) == 5
        assert order(X * (X + 1)) == 1
        assert order(P(0, 1, 1) ** 3) == 3
        assert order(F(-2) * X ** 4 * (X + 1) ** 2) == 2

    def test_matches_divisor_multiplicity(self):
        rng = random.Random(434)
        for _ in range(40):
            parts = [
                (F(rng.randint(-3, 3)), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            p = from_roots(parts)
            d = special_fiber_divisor(p).divisor_multiplicity
            assert d == planted_power_index(parts)
            # q = x - r for a root r of p is admissible: p(r) + 1 = 1.
            report = characteristic_variety(p, X - parts[0][0])
            assert report.orbifold_order == d
            assert len(report.components) == d - 1


class TestCharacteristicVariety:
    def test_cubed_example(self):
        report = characteristic_variety(X ** 3, X)
        assert report.orbifold_order == 3
        assert len(report.components) == 2
        first, second = report.components
        assert first.torsion == TorsionCharacter(F(1, 3), F(0))
        assert second.torsion == TorsionCharacter(F(2, 3), F(0))
        assert first.direction == (0, 1)
        assert report.resonance_trivial is True
        assert report.irreducibility_flags == (True, True)

    def test_squarefree_p_gives_empty_variety(self):
        report = characteristic_variety(X, X)
        assert report.orbifold_order == 1
        assert report.components == ()

    def test_component_count_tracks_power_index(self):
        rng = random.Random(444)
        for _ in range(40):
            p, q, p_parts = random_admissible_pair(rng)
            report = characteristic_variety(p, q)
            d = planted_power_index(p_parts)
            assert report.orbifold_order == d
            assert len(report.components) == d - 1
            for j, torus in enumerate(report.components, start=1):
                assert torus.torsion == TorsionCharacter(F(j, d), F(0))
                assert torus.direction == (0, 1)
            assert report.betti == betti(p, q)
            assert report.divisor == special_fiber_divisor(p)
            assert report.hypotheses.satisfied is True
            assert report.irreducibility_flags[1] is True

    def test_torsion_validation(self):
        with pytest.raises(ValueError):
            TorsionCharacter(F(3, 2), F(0))
        with pytest.raises(ValueError):
            TorsionCharacter(F(-1, 3), F(0))
        with pytest.raises(ValueError):
            TranslatedTorus(TorsionCharacter(F(0), F(0)), (0, 2))
        with pytest.raises(ValueError):
            TranslatedTorus(TorsionCharacter(F(0), F(0)), (0, 0))

        # Every validated record checks its fields however it is built:
        # by position, by keyword, and through _make and _replace.
        report = characteristic_variety(X ** 3, X)
        torus = report.components[0]
        bad_fields = (
            (Hypotheses, report.hypotheses, {"satisfied": False}),
            (TorsionCharacter, torus.torsion, {"a1": F(1)}),
            (TorsionCharacter, torus.torsion, {"a0": 0}),
            (TranslatedTorus, torus, {"direction": (2, 4)}),
        )
        for cls, good, change in bad_fields:
            assert cls(*good) == good
            assert cls(**good._asdict()) == good
            fields = {**good._asdict(), **change}
            with pytest.raises(ValueError):
                cls(*fields.values())
            with pytest.raises(ValueError):
                cls(**fields)
            with pytest.raises(ValueError):
                cls._make(fields.values())
            with pytest.raises(ValueError):
                good._replace(**change)

    def test_torsion_coordinates_are_fractions_in_the_unit_interval(self):
        # Each coordinate is checked on its own: an int 0 has numerator 0
        # and denominator 1, yet it is not a Fraction.
        for bad in (0, 0.5, F(1), F(-1, 2), None):
            with pytest.raises(ValueError):
                TorsionCharacter(F(1, 2), bad)
            with pytest.raises(ValueError):
                TorsionCharacter(bad, F(1, 2))

    def test_records_store_only_what_they_compute(self):
        # The rest of the report is constant on admissible pairs or read
        # off the divisor, so it is no field and needs no check.
        assert CharVarietyReport._fields == ("betti", "divisor")
        assert "value" not in FiberDivisor._fields
        report = characteristic_variety(X ** 4 * (X - 1) ** 2, X * (X + 2))
        assert report.divisor.value == F(-1)
        assert report.hypotheses == Hypotheses(True, True, True)
        assert report.resonance_trivial is True
        assert report.irreducibility_flags == (True, True)
        assert report.orbifold_order == report.divisor.divisor_multiplicity == 2
        assert report.components == (TranslatedTorus(TorsionCharacter(F(1, 2), F(0)), (0, 1)),)
        assert report == CharVarietyReport(report.betti, report.divisor)

    def test_records_are_frozen_and_hash_by_value(self):
        p, q = X ** 2 * (X - 1) ** 2, X * (X + 2)
        first, second = characteristic_variety(p, q), characteristic_variety(p, q)
        records = (
            (first, second),
            (first.hypotheses, second.hypotheses),
            (first.betti, second.betti),
            (first.divisor, second.divisor),
            (first.components[0], second.components[0]),
            (first.components[0].torsion, second.components[0].torsion),
        )
        for record, twin in records:
            assert record == twin and hash(record) == hash(twin)
            assert record == tuple(record)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], twin[0])
            with pytest.raises(AttributeError):
                record.extra = 1


def test_resonance_is_trivial_for_admissible_pairs():
    assert characteristic_variety(X ** 2, X).resonance_trivial is True
    rng = random.Random(454)
    for _ in range(20):
        p, q, _ = random_admissible_pair(rng)
        assert characteristic_variety(p, q).resonance_trivial is True
