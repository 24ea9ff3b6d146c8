"""Core exact-arithmetic layer: ring operations, division, gcd."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broughton.unipoly import (
    NEG_INF,
    ONE,
    UniPoly,
    X,
    ZERO,
    _prime,
    exact_div,
    gcd,
)
from oracles import l_gcd, l_mul, random_coeffs

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
polys = st.lists(rationals, max_size=6).map(UniPoly)
nonzero_polys = polys.filter(bool)


def P(*coeffs):
    """Shorthand: P(c0, c1, ...) low degree first."""
    return UniPoly(coeffs)


class TestExamples:
    def test_add(self):
        assert P(1, 1) + P(0, -1) == ONE
        assert ZERO + P(2, 3, 4) == P(2, 3, 4)
        assert P(-1, 0, 1) + P(1, 0, 1) == P(0, 0, 2)

    def test_mul(self):
        assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)
        assert P(5, 1) * ZERO == ZERO
        assert P(2, 1) * P(3, 1) == P(6, 5, 1)

    def test_divrem(self):
        assert divmod(P(1, 0, 0, 1), P(1, 1)) == (P(1, -1, 1), ZERO)
        assert divmod(X, X * X) == (ZERO, X)
        assert divmod(P(1, 0, 1), X) == (X, ONE)

    def test_gcd(self):
        assert gcd(P(-1, 1) * P(1, 1), P(-1, 1) ** 2) == P(-1, 1)
        assert gcd(P(4, 6), ZERO) == P(F(2, 3), 1)
        assert gcd(P(1, 0, 1), X) == ONE

    def test_derivative(self):
        assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)
        assert P(7).derivative() == ZERO
        assert P(6, 5, 1).derivative() == P(5, 2)

    def test_eval(self):
        assert P(-1, 0, 1)(2) == F(3)
        assert ZERO(F(11, 7)) == 0
        assert P(6, 5, 1)(-2) == 0

    def test_compose(self):
        assert P(0, 0, 1).compose(P(1, 0, 1)) == P(1, 0, 2, 0, 1)
        assert X.compose(P(2, 3, 4)) == P(2, 3, 4)
        assert P(9).compose(P(1, 2, 3)) == P(9)

    def test_pow(self):
        assert P(1, 1) ** 2 == P(1, 2, 1)
        assert P(3, 1, 4) ** 0 == ONE
        assert X ** 6 == P(0, 0, 0, 0, 0, 0, 1)

    def test_degree_of_zero_is_a_sentinel(self):
        assert ZERO.degree is NEG_INF
        assert NEG_INF < 0
        assert not isinstance(ZERO.degree, int)
        assert (ZERO * P(1, 2)).degree == NEG_INF + 1


class TestErrors:
    def test_division_by_zero_polynomial(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 2), ZERO)

    def test_gcd_of_two_zeros(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    def test_negative_power(self):
        with pytest.raises(ValueError):
            X ** -1

    def test_monic_of_zero(self):
        with pytest.raises(ValueError):
            ZERO.monic()

    def test_inexact_division_detected(self):
        with pytest.raises(ArithmeticError):
            exact_div(P(1, 0, 1), X)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert a - a == ZERO


@given(polys, polys)
@settings(deadline=None)
def test_degree_laws(a, b):
    assert (a * b).degree == a.degree + b.degree
    assert (a + b).degree <= max(a.degree, b.degree)


@given(polys, nonzero_polys)
@settings(max_examples=200, deadline=None)
def test_divrem_roundtrip(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(nonzero_polys, polys)
@settings(deadline=None)
def test_gcd_divides_both_and_is_monic(a, b):
    d = gcd(a, b)
    assert d.leading_coefficient == 1
    assert a % d == ZERO
    assert b % d == ZERO


def test_gcd_sees_planted_common_factor():
    rng = random.Random(101)
    for _ in range(60):
        common = UniPoly(random_coeffs(rng, rng.randint(1, 3)))
        a = common * UniPoly(random_coeffs(rng, rng.randint(0, 3)))
        b = common * UniPoly(random_coeffs(rng, rng.randint(0, 3)))
        if not a or not b:
            continue
        d = gcd(a, b)
        assert d % common.monic() == ZERO


def check_gcd_against_oracle(a, b):
    """gcd equals Fraction Euclid on (a, b) and on (b, a)."""
    for left, right in ((a, b), (b, a)):
        assert gcd(left, right) == UniPoly(l_gcd(left.coeffs, right.coeffs))


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_gcd_matches_fraction_euclid(a, b):
    if a or b:
        check_gcd_against_oracle(a, b)


large_polys = st.lists(st.integers(-10**30, 10**30), min_size=2, max_size=4).map(UniPoly)


@given(large_polys.filter(lambda w: w.degree >= 1),
       st.one_of(polys, large_polys), st.one_of(polys, large_polys))
@settings(deadline=None)
def test_gcd_matches_fraction_euclid_on_large_planted_factors(w, a, b):
    # A common factor with 100-bit coefficients takes several 62-bit
    # primes to lift; zero cofactors give a zero side.
    a, b = w * a, w * b
    if a or b:
        check_gcd_against_oracle(a, b)


@given(polys, st.one_of(st.just(ZERO), rationals.filter(bool).map(UniPoly.constant)))
@settings(deadline=None)
def test_gcd_matches_fraction_euclid_with_a_zero_or_constant_side(a, c):
    if a or c:
        check_gcd_against_oracle(a, c)


def test_gcd_matches_fraction_euclid_at_unlucky_primes():
    # Planted on the first primes the modular gcd draws.
    p, p2 = _prime(0), _prime(1)
    cases = [
        # Coprime, but the image at p has degree 1.
        (X + p, X),
        # The image at p has degree 2, later ones the true degree 1.
        ((X + p) * (X + 1), X * (X + 1)),
        # The image at p2 has degree 2 after p gave 1, and is dropped.
        ((X + p2) * (X + 1), X * (X + 1)),
        # p divides a leading coefficient, so it is skipped.
        (p * X ** 2 + 1, X),
        # The gcd p*x + 1 is the constant 1 mod p: without the skip, the
        # images at p would be coprime and the degree-0 exit wrong.
        ((p * X + 1) * X, (p * X + 1) * (X + 2)),
        # p and p2 both give x(x - 3), a stable lift that the trial
        # division has to reject.
        ((X + p * p2) * (X - 3), X * (X - 3)),
    ]
    for a, b in cases:
        check_gcd_against_oracle(a, b)


@given(polys, polys, rationals)
@settings(deadline=None)
def test_eval_is_a_ring_homomorphism(a, b, t):
    assert (a + b)(t) == a(t) + b(t)
    assert (a * b)(t) == a(t) * b(t)


@given(polys, polys, rationals)
@settings(deadline=None)
def test_compose_evaluates_pointwise(a, c, t):
    assert a.compose(c)(t) == a(c(t))


def test_multiplication_against_schoolbook_oracle():
    rng = random.Random(404)
    for _ in range(50):
        a_coeffs = random_coeffs(rng, rng.randint(0, 5))
        b_coeffs = random_coeffs(rng, rng.randint(0, 5))
        product = UniPoly(a_coeffs) * UniPoly(b_coeffs)
        assert list(product.coeffs) == l_mul(a_coeffs, b_coeffs)


def test_immutability_and_hash():
    p = P(1, 2, 3)
    assert hash(p) == hash(P(1, 2, 3))
    assert p == P(1, 2, 3)
    assert P(5) == 5 and hash(P(5)) == hash(5)
    with pytest.raises(AttributeError):
        p.coeffs = ()
