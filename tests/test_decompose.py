"""Functional decomposition and the connectivity certificate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from broughton import decompose
from broughton.decompose import (
    CONNECTED_CERTIFIED,
    connectivity_certificate,
    is_decomposable,
    uni_decompose_at,
)
from broughton.unipoly import UniPoly, X, ZERO
from oracles import (
    b_add,
    b_build_g,
    b_partial_x,
    b_partial_y,
    b_pow,
    b_resultant_y,
    b_swap,
    brute_decompose,
    l_add,
    l_compose,
    l_decompose_at,
    l_mul,
    l_pow,
    random_coeffs,
    random_fraction,
)

F = Fraction


def P(*coeffs):
    return UniPoly(coeffs)


def planted_pair(rng, outer_degree, inner_degree):
    """Random normalized pair (H, Q): Q monic, Q(0) = 0, both nonlinear."""
    inner = [F(0)] + [random_fraction(rng) for _ in range(inner_degree - 1)] + [F(1)]
    outer = random_coeffs(rng, outer_degree)
    return outer, inner


class TestExamples:
    def test_biquadratic(self):
        result = uni_decompose_at(P(1, 0, 2, 0, 1), 2)
        assert result is not None
        assert result.outer == P(1, 2, 1)
        assert result.inner == P(0, 0, 1)

    def test_pure_power_both_ways(self):
        result = uni_decompose_at(X ** 6, 2)
        assert (result.outer, result.inner) == (X ** 3, X ** 2)
        result = uni_decompose_at(X ** 6, 3)
        assert (result.outer, result.inner) == (X ** 2, X ** 3)

    def test_no_decomposition(self):
        assert uni_decompose_at(P(1, 1, 0, 0, 1), 2) is None

    def test_is_decomposable(self):
        assert is_decomposable(X ** 6) is True
        assert is_decomposable(P(1, 0, 2, 0, 1)) is True
        assert is_decomposable(P(1, 1, 0, 0, 1)) is False
        assert is_decomposable(P(0, 1)) is False

    def test_invalid_inner_degree(self):
        quartic = P(1, 0, 2, 0, 1)
        for e in (0, 1, 3, 4, 8):
            with pytest.raises(ValueError):
                uni_decompose_at(quartic, e)
        with pytest.raises(ValueError):
            uni_decompose_at(P(1, 1, 1), 2)

    def test_nonconstant_required(self):
        with pytest.raises(ValueError):
            is_decomposable(P(5))
        with pytest.raises(ValueError):
            is_decomposable(ZERO)
        for p in ([0, 1], "x", F(1), None, [1, 0, 2, 0, 1]):
            with pytest.raises(ValueError):
                is_decomposable(p)
            with pytest.raises(ValueError):
                uni_decompose_at(p, 2)


def test_planted_roundtrips_recover_the_unique_pair():
    # Composites built with the independent schoolbook compose; the
    # normalized decomposition is unique, so recovery must be exact.
    rng = random.Random(909)
    for _ in range(120):
        outer_degree = rng.randint(2, 4)
        inner_degree = rng.randint(2, 4)
        outer, inner = planted_pair(rng, outer_degree, inner_degree)
        composite = UniPoly(l_compose(outer, inner))
        result = uni_decompose_at(composite, inner_degree)
        assert result is not None
        assert result.outer == UniPoly(outer)
        assert result.inner == UniPoly(inner)
        assert result.inner.leading_coefficient == 1
        assert result.inner(0) == 0
        assert l_compose(result.outer.coeffs, result.inner.coeffs) == list(composite.coeffs)
        assert is_decomposable(composite) is True


def test_prime_degree_is_never_decomposable():
    rng = random.Random(919)
    for degree in (5, 7, 11, 13):
        for _ in range(10):
            poly = UniPoly(random_coeffs(rng, degree))
            assert is_decomposable(poly) is False


def test_against_brute_force_coefficient_solver():
    # Three routes for deg <= 8: the production path (Q as a root of the
    # reversed p, then the digit expansion by exact division), the oracle
    # that solves the full coefficient system equation by equation, and the
    # oracle that expands the digits by long division.  Mixed diet: random
    # polynomials (mostly indecomposable) and planted composites (always
    # decomposable).
    rng = random.Random(929)
    cases = []
    for _ in range(60):
        degree = rng.choice([4, 6, 8])
        cases.append(random_coeffs(rng, degree))
    for _ in range(60):
        e = rng.choice([2, 3, 4])
        r = rng.choice([f for f in (2, 3, 4) if e * f <= 8])
        outer, inner = planted_pair(rng, r, e)
        cases.append(l_compose(outer, inner))
    for coeffs in cases:
        poly = UniPoly(coeffs)
        degree = poly.degree
        for e in range(2, degree // 2 + 1):
            if degree % e:
                continue
            mine = uni_decompose_at(poly, e)
            oracle = brute_decompose(coeffs, e)
            assert l_decompose_at(coeffs, e) == oracle
            if oracle is None:
                assert mine is None
            else:
                assert mine is not None
                h_coeffs, q_coeffs = oracle
                assert mine.outer == UniPoly(h_coeffs)
                assert mine.inner == UniPoly(q_coeffs)


def test_root_matches_the_solve_by_full_powers():
    # Q from the r-th root of the reversed p, against the oracle's solve
    # with one full power of Q per coefficient, on planted composites of
    # rational coefficients up to inner degree 16; the last one per inner
    # degree has its coefficient of x changed, which leaves Q as it was
    # and no decomposition.
    rng = random.Random(949)
    for e in (2, 3, 5, 8, 13, 16):
        for r, changed in ((2, False), (2, False), (3, False), (2, True)):
            outer, inner = planted_pair(rng, r, e)
            coeffs = l_compose(outer, [F(rng.randint(1, 9), rng.randint(1, 9)) * c for c in inner])
            if changed:
                coeffs[1] += 1
            expected = l_decompose_at(coeffs, e)
            result = uni_decompose_at(UniPoly(coeffs), e)
            if changed:
                assert expected is None and result is None
            else:
                assert (result.outer, result.inner) == tuple(map(UniPoly, expected))


def test_late_digit_failure(monkeypatch):
    # H(Q) + c*x^k*Q^j with 1 <= k < e and 1 <= j <= r - 2 keeps the top
    # coefficients that fix Q, and its first j digits are those of H, so
    # the division after digit j is the first inexact one.  For Q = x^e the
    # extra term is the monomial c*x^(k + e*j).
    real = decompose._exact_quotient
    calls = []
    monkeypatch.setattr(decompose, "_exact_quotient",
                        lambda a, b: calls.append(a) or real(a, b))
    rng = random.Random(939)
    for trial in range(60):
        e = rng.choice([2, 3])
        r = rng.choice([3, 4])
        outer, inner = planted_pair(rng, r, e)
        if trial % 3 == 0:
            inner = [F(0)] * e + [F(1)]
        k, j = rng.randint(1, e - 1), rng.randint(1, r - 2)
        term = l_mul([F(0)] * k + [random_fraction(rng) or F(1)], l_pow(inner, j))
        coeffs = l_add(l_compose(outer, inner), term)
        calls.clear()
        result = uni_decompose_at(UniPoly(coeffs), e)
        assert result is None
        assert len(calls) == j + 1
        assert brute_decompose(coeffs, e) is None
        assert l_decompose_at(coeffs, e) is None


@st.composite
def scaled_planted_pairs(draw):
    """(H, Q, c): H rational, Q monic with Q(0) = 0 and a numerator that is
    not monic once primitive, and c a rational of up to 10**6."""
    e, r = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    inner = [F(0)] + [draw(rationals) for _ in range(e - 1)] + [F(1)]
    assume(any(a.denominator > 1 for a in inner))
    outer = [draw(rationals) for _ in range(r)] + [draw(rationals.filter(bool))]
    c = F(draw(st.integers(-10 ** 6, 10 ** 6).filter(bool)), draw(st.integers(1, 10 ** 6)))
    return outer, inner, c


@given(scaled_planted_pairs(), st.fractions(min_value=-5, max_value=5).filter(bool),
       st.booleans())
@settings(deadline=None, max_examples=80)
def test_digits_on_ints_match_long_division(case, t, perturb):
    # c*H(Q) decomposes as (c*H)(Q).  Adding t*x to it keeps the top e
    # coefficients, hence Q, and leaves a difference of degree 1, which is
    # not a polynomial in Q: no decomposition at all.
    outer, inner, c = case
    e = len(inner) - 1
    coeffs = [c * a for a in l_compose(outer, inner)]
    if perturb:
        coeffs[1] += t
    expected = l_decompose_at(coeffs, e)
    result = uni_decompose_at(UniPoly(coeffs), e)
    if perturb:
        assert expected is None and result is None
    else:
        assert expected == ([c * a for a in outer], inner)
        assert (result.outer, result.inner) == (UniPoly(expected[0]), UniPoly(inner))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def certificate_inputs(draw):
    """(p, m, n, c): p of degree 1 or 2 as a coefficient list, 2 <= m, n <= 3,
    c a nonzero rational."""
    degree = draw(st.integers(1, 2))
    p = draw(st.lists(small_rationals, min_size=degree, max_size=degree))
    p.append(draw(small_rationals.filter(bool)))
    return p, draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(small_rationals.filter(bool))


class TestConnectivityCertificate:
    def test_spec_grid_samples(self):
        for p, m, n, c in (
            (P(0, 1), 2, 2, F(1)),
            (P(0, 1), 3, 2, F(-2)),
            (P(0, 0, 1), 2, 3, F(1)),
        ):
            certificate = connectivity_certificate(p, m, n, c)
            assert certificate.status == CONNECTED_CERTIFIED
            assert certificate.singular_finite is True
            r_x, r_y = certificate.eliminants
            assert r_x != ZERO and r_y != ZERO
            assert certificate.notes

    def test_rejected_parameters(self):
        x = P(0, 1)
        with pytest.raises(ValueError):
            connectivity_certificate(x, 1, 2, F(1))
        with pytest.raises(ValueError):
            connectivity_certificate(x, 2, 1, F(1))
        with pytest.raises(ValueError):
            connectivity_certificate(x, 2, 2, F(0))
        with pytest.raises(ValueError):
            connectivity_certificate(P(3), 2, 2, F(1))
        # The certificate is the one check; bipoly takes what it passes.
        for m, n in ((2.0, 2), (2, 3.0), (True, 2), (2, True)):
            with pytest.raises(ValueError):
                connectivity_certificate(x, m, n, F(1))
        for c in (1.5, "1", "3/2", True, None):
            with pytest.raises(ValueError):
                connectivity_certificate(x, 2, 2, c)
        for p in ([0, 1], "x", F(1), None):
            with pytest.raises(ValueError):
                connectivity_certificate(p, 2, 2, F(1))

    def test_status_vocabulary(self):
        assert CONNECTED_CERTIFIED == "connected-certified"

    @given(certificate_inputs())
    @example(([1, 1], 2, 3, F(1)))  # d = 1: chi is the constant 1
    @example(([0, 1, 1], 3, 3, F(-2)))  # m = n
    @example(([1, 0, 1], 4, 2, F(1, 2)))  # m > n
    @example(([2, -1, 1], 2, 4, F(3)))  # n > m
    @example(([0, 0, 1], 3, 2, F(1)))  # p = x^2: critical value 0, G(0, y) = c*n*y^(n-1)
    @example(([0, 0, 0, 1], 2, 3, F(-1)))  # p = x^3: a repeated critical point
    @example(([1, F(-1, 3), F(2, 5)], 3, 2, F(-3, 2)))  # rational lc(p)
    # L = 12, a negative lead and a negative rational c, at d = 3 and d = 2
    @example(([F(1, 6), F(2, 3), 0, F(-5, 4)], 2, 3, F(-7, 3)))
    @example(([F(1, 6), F(2, 3), F(-5, 4)], 3, 4, F(-7, 3)))
    @example(([F(-5), F(3, 2)], 3, 2, 2))  # linear p and an int c
    @settings(max_examples=40, deadline=None)
    def test_whole_path_matches_bivariate_oracle(self, inputs):
        # h = (p y - 1)^m + c y^n expanded by the oracle's own ring, then
        # both eliminants by its Fraction Bareiss over Q[x] and Q[y].
        p, m, n, c = inputs
        h = b_add(b_pow(b_build_g(p), m), {(0, n): c})
        hx, hy = b_partial_x(h), b_partial_y(h)
        certificate = connectivity_certificate(UniPoly(p), m, n, c)
        r_x, r_y = certificate.eliminants
        assert list(r_x.coeffs) == b_resultant_y(hx, hy)
        assert list(r_y.coeffs) == b_resultant_y(b_swap(hx), b_swap(hy))
        assert r_x and r_y


nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@st.composite
def accepted_inputs(draw):
    """(p, m, n, c): p of degree 1 to 3 with rational coefficients, a
    nonzero leading one, 2 <= m, n <= 8, c a nonzero rational."""
    degree = draw(st.integers(1, 3))
    coefficients = st.one_of(st.just(F(0)), nonzero_rationals)
    p = draw(st.lists(coefficients, min_size=degree, max_size=degree))
    p.append(draw(nonzero_rationals))
    return p, draw(st.integers(2, 8)), draw(st.integers(2, 8)), draw(nonzero_rationals)


@given(accepted_inputs())
@example(([0, 0, 1], 8, 2, F(1)))  # critical value 0
@example(([0, 0, 0, -1], 2, 8, F(-1)))  # repeated critical point at 0
@example(([0, 3, 0, 1], 8, 8, F(-1)))  # critical values +-2i, m = n
@settings(max_examples=60, deadline=None)
def test_every_accepted_input_is_certified(inputs):
    # Both eliminants are nonzero for every input the certificate accepts
    # (the proof is in its docstring), which makes its verdict a constant.
    p, m, n, c = inputs
    r_x, r_y = connectivity_certificate(UniPoly(p), m, n, c).eliminants
    assert r_x != ZERO and r_y != ZERO
