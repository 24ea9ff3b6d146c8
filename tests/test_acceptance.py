"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is exact (no tolerances); the timed ones assert their
stated budget.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from broughton.arrangement import (
    betti,
    characteristic_variety,
    check_hypotheses,
    orbifold_group,
    special_fiber_divisor,
)
from broughton.decompose import (
    CONNECTED_CERTIFIED,
    connectivity_certificate,
    is_decomposable,
    uni_decompose_at,
)
from broughton.parser import ParseError, parse_uni
from broughton.report import build_report, zahid_polynomials
from broughton.squarefree import squarefree_decompose
from broughton.unipoly import ONE, UniPoly, X, ZERO, gcd
from oracles import (
    b_build_f,
    b_is_irreducible_y_linear,
    brute_decompose,
    l_compose,
    l_from_roots,
    random_coeffs,
    random_fraction,
    trial_root_count,
)

F = Fraction

GOLDEN = Path(__file__).parent / "golden" / "zahid_table.json"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def from_roots(pairs, unit=1):
    return UniPoly(l_from_roots(pairs, F(unit)))


def planted_admissible(rng, squarefree_p=False):
    """Admissible pair with integer roots; p and q share the root 0."""
    if squarefree_p:
        extra = rng.sample(range(1, 9), rng.randint(0, 3))
        p = from_roots([(F(0), 1)] + [(F(r), 1) for r in extra])
    else:
        p = from_roots(
            [(F(0), rng.randint(1, 3))]
            + [(F(r), rng.randint(1, 3)) for r in rng.sample(range(1, 9), rng.randint(0, 2))]
        )
    for _ in range(200):
        q_roots = [F(0)] + [F(-r) for r in rng.sample(range(1, 9), rng.randint(0, 3))]
        q = from_roots([(r, 1) for r in q_roots])
        if gcd(p + 1, q).degree == 0:
            return p, q, q_roots
    raise AssertionError("failed to plant an admissible pair")


def test_criterion_1_family_grid():
    with criterion(1, "family grid reproduces the closed form"):
        table = json.loads(GOLDEN.read_text())["grid"]
        assert len(table) == 24
        start = time.perf_counter()
        for entry in table:
            a, b = entry["p_exponent"], entry["q_factors"]
            report = characteristic_variety(*zahid_polynomials(a, b))
            assert report.orbifold_order == entry["orbifold_order"]
            assert len(report.components) == entry["component_count"]
            torsions = [
                f"{t.torsion.a0.numerator}/{t.torsion.a0.denominator}"
                for t in report.components
            ]
            assert torsions == entry["component_torsions"]
            for torus in report.components:
                assert torus.torsion.a1 == 0
                assert torus.direction == (0, 1)
            numbers = report.betti
            assert {
                "b0": numbers.b0, "b1": numbers.b1, "b2": numbers.b2,
                "s": numbers.s, "t": numbers.t,
            } == entry["betti"]
            assert report.divisor.divisor_multiplicity == entry["divisor_multiplicity"]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"grid took {elapsed:.3f}s"


def test_criterion_2_squarefree_p_has_no_components():
    with criterion(2, "squarefree p yields an empty component list"):
        rng = random.Random(1002)
        start = time.perf_counter()
        for _ in range(100):
            p, q, _ = planted_admissible(rng, squarefree_p=True)
            report = characteristic_variety(p, q)
            assert report.components == ()
            assert report.orbifold_order == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"batch took {elapsed:.3f}s"


def test_criterion_3_betti_formula_against_trial_division():
    with criterion(3, "b2 = s + t against the trial-division counter"):
        rng = random.Random(1003)
        candidates = [F(r) for r in range(-9, 10)]
        for _ in range(100):
            p, q, _ = planted_admissible(rng)
            numbers = betti(p, q)
            s = trial_root_count(list(q.coeffs), candidates)
            t = trial_root_count(list((p * q).coeffs), candidates)
            assert numbers.s == s
            assert numbers.t == t
            assert numbers.b2 == s + t


def test_criterion_4_squarefree_profile_recovery():
    with criterion(4, "squarefree decomposition recovers planted profiles"):
        rng = random.Random(1004)
        for _ in range(200):
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            pairs = [(F(r), rng.randint(1, 5)) for r in roots]
            unit = random_fraction(rng)
            if not unit:
                unit = F(3)
            poly = from_roots(pairs, unit)
            decomposition = squarefree_decompose(poly)
            expected = {}
            for root, multiplicity in pairs:
                expected.setdefault(multiplicity, []).append(root)
            profile = {}
            for factor, multiplicity in decomposition.parts:
                profile[multiplicity] = factor
            assert set(profile) == set(expected)
            for multiplicity, group in expected.items():
                assert profile[multiplicity] == from_roots(
                    [(r, 1) for r in group]
                )
            assert decomposition.unit == unit
            assert decomposition.reconstruct() == poly
            d = decomposition.multiplicity_gcd
            assert d == math.gcd(*(m for _, m in pairs))
            base = ONE
            for factor, multiplicity in decomposition.parts:
                base = base * factor ** (multiplicity // d)
            assert decomposition.unit * base ** d == poly


def test_criterion_5_divisor_orbifold_consistency():
    with criterion(5, "divisor multiplicity = power index = orbifold order"):
        rng = random.Random(1005)
        for _ in range(150):
            roots = rng.sample(range(-5, 6), rng.randint(1, 3))
            pairs = [(F(r), rng.randint(1, 6)) for r in roots]
            poly = from_roots(pairs)
            d = math.gcd(*(m for _, m in pairs))
            assert special_fiber_divisor(poly).divisor_multiplicity == d
            assert orbifold_group(poly) == d


def test_criterion_6_decomposition_roundtrip():
    with criterion(6, "decomposition round-trip, prime degrees, brute force"):
        rng = random.Random(1006)
        for _ in range(100):
            outer_degree = rng.randint(2, 4)
            inner_degree = rng.randint(2, 4)
            outer = random_coeffs(rng, outer_degree)
            inner = [F(0)] + [random_fraction(rng) for _ in range(inner_degree - 1)] + [F(1)]
            composite = UniPoly(l_compose(outer, inner))
            result = uni_decompose_at(composite, inner_degree)
            assert result is not None
            assert result.outer == UniPoly(outer)
            assert result.inner == UniPoly(inner)
        for degree in (5, 7, 11):
            for _ in range(5):
                assert is_decomposable(UniPoly(random_coeffs(rng, degree))) is False
        for _ in range(40):
            degree = rng.choice([4, 6, 8])
            coeffs = random_coeffs(rng, degree)
            for e in range(2, degree // 2 + 1):
                if degree % e:
                    continue
                mine = uni_decompose_at(UniPoly(coeffs), e)
                oracle = brute_decompose(coeffs, e)
                if oracle is None:
                    assert mine is None
                else:
                    assert mine is not None
                    assert mine.outer == UniPoly(oracle[0])
                    assert mine.inner == UniPoly(oracle[1])


def test_criterion_7_connectivity_grid():
    with criterion(7, "connectivity certificates on the parameter grid"):
        start = time.perf_counter()
        for p in (X, X ** 2, X * (X + 1)):
            for m in (2, 3):
                for n in (2, 3):
                    for c in (F(1), F(-2)):
                        certificate = connectivity_certificate(p, m, n, c)
                        assert certificate.status == CONNECTED_CERTIFIED
                        r_x, r_y = certificate.eliminants
                        assert r_x != ZERO and r_y != ZERO
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"grid took {elapsed:.3f}s"


def test_criterion_8_hypothesis_matches_irreducibility():
    with criterion(8, "f irreducible iff p + 1 and q share no root"):
        rng = random.Random(1008)
        for _ in range(200):
            p = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            q = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            expect = gcd(p + 1, q).degree == 0
            f = b_build_f(list(p.coeffs), list(q.coeffs))
            assert b_is_irreducible_y_linear(f) is expect
            assert check_hypotheses(p, q).no_common_root_p1_q is expect


def test_criterion_9_parser_roundtrip_and_fuzz():
    with criterion(9, "parser round-trip and fuzz totality"):
        rng = random.Random(1009)
        for _ in range(250):
            poly = UniPoly(random_coeffs(rng, rng.randint(0, 6)))
            assert parse_uni(str(poly)) == poly
        alphabet = "xyz0123456789+-*/^()., #\t"
        for _ in range(10_000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 32))
            )
            try:
                parse_uni(text)
            except ParseError:
                pass


def test_criterion_10_unverified_claims_are_stated():
    with criterion(10, "reports state the cited-only claims explicitly"):
        document = build_report(*zahid_polynomials(3, 2))
        notes = "\n".join(document.notes)
        assert notes.count("(cited, not verified)") == 3
        assert "dimension >= 1" in notes
        assert "finitely many" in notes
        assert "cup product" in notes
        assert "resonance" in notes
        assert "isolated" in notes
