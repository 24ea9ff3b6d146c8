"""Core exact-arithmetic layer: ring operations, division, gcd."""

from __future__ import annotations

import contextlib
import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broughton.unipoly import (
    NEG_INF,
    ONE,
    UniPoly,
    X,
    ZERO,
    exact_div,
    gcd,
)
from broughton import modular, unipoly
from broughton.modular import _prime
from broughton.parser import parse_uni
from oracles import (
    l_divmod,
    l_exact_div,
    l_eval,
    l_gcd,
    l_mul,
    l_pow,
    random_coeffs,
)

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


@given(nonzero_polys, polys)
@settings(deadline=None)
def test_gcd_divides_both_and_is_monic(a, b):
    d = gcd(a, b)
    assert d.leading_coefficient == 1
    # exact_div raises on any remainder.
    assert exact_div(a, d) * d == a
    assert exact_div(b, d) * d == b


def test_gcd_sees_planted_common_factor():
    rng = random.Random(101)
    for _ in range(60):
        common = UniPoly(random_coeffs(rng, rng.randint(1, 3)))
        a = common * UniPoly(random_coeffs(rng, rng.randint(0, 3)))
        b = common * UniPoly(random_coeffs(rng, rng.randint(0, 3)))
        if not a or not b:
            continue
        d = gcd(a, b)
        exact_div(d, common.monic())  # raises unless common divides d


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
    # A common factor with 100-bit coefficients takes several 30-bit
    # primes to lift; zero cofactors give a zero side.
    a, b = w * a, w * b
    if a or b:
        check_gcd_against_oracle(a, b)
        with modular_route():
            check_gcd_against_oracle(a, b)


@given(polys, st.one_of(st.just(ZERO), rationals.filter(bool).map(UniPoly.constant)))
@settings(deadline=None)
def test_gcd_matches_fraction_euclid_with_a_zero_or_constant_side(a, c):
    if a or c:
        check_gcd_against_oracle(a, c)


def test_gcd_matches_fraction_euclid_at_unlucky_primes():
    # Planted on the first primes the modular gcd draws, in y = x + 1,
    # since a factor x**v is split off before any prime is drawn.
    p, p2 = _prime(0), _prime(1)
    y = X + 1
    cases = [
        # Coprime, but the image at p has degree 1.
        (y + p, y),
        # The image at p has degree 2, later ones the true degree 1.
        ((y + p) * (y + 1), y * (y + 1)),
        # The image at p2 has degree 2 after p gave 1, and is dropped.
        ((y + p2) * (y + 1), y * (y + 1)),
        # p divides a leading coefficient, so it is skipped.
        (p * y ** 2 + 1, y),
        # The gcd p*y + 1 is the constant 1 mod p: without the skip, the
        # images at p would be coprime and the degree-0 exit wrong.
        ((p * y + 1) * y, (p * y + 1) * (y + 2)),
        # p and p2 both give y(y - 3), a stable lift that the trial
        # division has to reject.
        ((y + p * p2) * (y - 3), y * (y - 3)),
    ]
    for a, b in cases:
        check_gcd_against_oracle(a, b)
        with modular_route():
            check_gcd_against_oracle(a, b)


@contextlib.contextmanager
def recorded(name):
    """The arguments of each call to ``modular.<name>`` while the block
    runs, in order."""
    calls = []
    real = getattr(modular, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(modular, name, recording):
        yield calls


def modular_route():
    """Within the block, every gcd and squarefree test skips the integer
    gcd of :func:`unipoly._heuristic_gcd` and draws primes."""
    return mock.patch.object(unipoly, "_HEURISTIC_MAX", 0)


def test_gcd_tries_the_first_image_at_once():
    # A gcd with coefficients inside one prime's symmetric range passes
    # the trial division at the first prime, with no second one to
    # confirm the lift.
    common = 3 * X ** 2 - F(5, 7)
    with modular_route(), recorded("_gcd_mod") as calls:
        assert gcd(common * (X + 1), common * (2 * X - 9)) == common.monic()
    assert [p for _, _, p in calls] == [_prime(0)]


# A gcd or cofactor of 60-digit integers needs about 400 bits of modulus,
# 14 primes, to recover as fractions; small ones need one prime.
huge_polys = st.lists(st.integers(-10**60, 10**60), min_size=2, max_size=5).map(UniPoly)


def x_free_degree(f):
    """The degree of the nonzero f over the highest power of x dividing
    it, which the gcd splits off before it draws a prime."""
    return f.degree - next(i for i, c in enumerate(f.coeffs) if c)


@given(huge_polys.filter(lambda w: w.degree >= 2), polys, polys)
@settings(deadline=None, max_examples=60)
@example(P(0, 0, 10 ** 59 + 7, -3 * 10 ** 58), P(1, 1), P(2, 1))
@example(P(0, 0, 5), ONE, P(1, 1))
def test_gcd_lifts_the_small_cofactor_of_a_large_gcd(w, u, v):
    a, b = w * u, w * v
    if not a or not b:
        return
    with modular_route(), recorded("_gcd_mod") as calls:
        check_gcd_against_oracle(a, b)
    # Both orders ran; each drew one prime when a cofactor is the piece of
    # least degree, since the cofactors' coefficients are small.  The
    # pieces are those of the x-free parts: the first example lifts the
    # large gcd, and the second, x**2 against x**2*(x + 1), draws no prime.
    g = x_free_degree(gcd(a, b))
    if min(x_free_degree(a), x_free_degree(b)) - g < g:
        assert len(calls) == 2


@given(polys, polys, st.integers(0, 6), st.integers(0, 6))
@settings(deadline=None)
def test_gcd_splits_off_powers_of_x(a, b, i, j):
    # gcd(x**i * A, x**j * B) is x**min(i, j) * gcd(A, B) for A and B prime
    # to x; a side with a constant x-free part draws no prime.
    a, b = X ** i * a, X ** j * b
    if not a and not b:
        return
    with recorded("_gcd_mod") as calls:
        check_gcd_against_oracle(a, b)
    if a and b and min(x_free_degree(a), x_free_degree(b)) == 0:
        assert calls == []


@given(polys.filter(lambda w: w.degree >= 1), huge_polys, huge_polys)
@settings(deadline=None, max_examples=60)
def test_gcd_lifts_a_small_gcd_of_large_cofactors(w, u, v):
    a, b = w * u, w * v
    if a or b:
        with modular_route():
            check_gcd_against_oracle(a, b)


@given(huge_polys.filter(lambda w: w.degree >= 1), huge_polys, huge_polys)
@example(w=X, u=X, v=X)  # x**v splits off and the rests are constants: no prime
@settings(deadline=None, max_examples=30)
def test_gcd_of_large_pieces_tries_when_the_modulus_doubles(w, u, v):
    # Each try calls _rational once, on the one lifted piece, and a try
    # waits until the modulus has doubled in bit length, so the tries grow
    # with the log of the primes drawn.  A gcd that draws no prime tries
    # nothing.
    a, b = w * u, w * v
    if not a or not b:
        return
    with modular_route(), recorded("_gcd_mod") as primes, recorded("_rational") as tries:
        assert gcd(a, b) == UniPoly(l_gcd(a.coeffs, b.coeffs))
    if not primes:
        assert not tries
    else:
        assert len(tries) <= math.log2(len(primes)) + 1


def test_gcd_of_large_dense_pieces_draws_many_primes():
    # G and both cofactors of degree 5 with 1000-bit coefficients: the
    # one route that lifts over many primes.
    rng = random.Random(1989)

    def dense():
        return UniPoly([rng.getrandbits(1000) - 2 ** 999 for _ in range(5)] + [2 ** 999])

    w, u, v = dense(), dense(), dense()
    with recorded("_gcd_mod") as primes, recorded("_rational") as tries:
        assert gcd(w * u, w * v) == w.monic()
    assert len(primes) > 60
    assert len(tries) <= math.log2(len(primes)) + 1


def test_gcd_of_a_high_power_and_its_derivative_draws_one_prime():
    # The cofactor of the derivative is a constant, lifted at once; the
    # gcd itself has 1499 coefficients of about 15 000 bits.
    p = parse_uni("(1000*x+1)^1500")
    with recorded("_gcd_mod") as primes:
        assert gcd(p, p.derivative()) == (X + F(1, 1000)) ** 1499
    assert len(primes) == 1


def test_gcd_cofactor_lift_at_unlucky_primes():
    # In Y = x + 1, since a factor x**v is split off before any prime is
    # drawn.  W has degree 2, so the cofactors of degree 1 are the pieces
    # lifted.
    p, p2 = _prime(0), _prime(1)
    y = X + 1
    w = y ** 2 + 3 * y - 5
    cases = [
        # Modulo p, y + p is y: the image gcd is y*W, its cofactor the
        # constant 1, and (y + p)*W, exact over it, does not divide y*W.
        ((y + p) * w, y * w),
        (y * w, (y + p) * w),
        # The same unlucky image at p2, after a true one at p, is dropped.
        ((y + p2) * w, y * w),
        # Modulo p and p*p2 the cofactor y + p*p2 + 3 reconstructs as
        # y + 3, which does not divide (y + p*p2 + 3)*W over the integers.
        ((y + p * p2 + 3) * w, y * w),
        (y * w, (y + p * p2 + 3) * w),
    ]
    for a, b in cases:
        with modular_route(), recorded("_gcd_mod") as calls:
            check_gcd_against_oracle(a, b)
        assert len(calls) > 2


# Rational coefficients whose numerators put w below and above the
# integer gcd's cut of 320 bits.
def sized_polys(bits, max_size=5):
    numerators = st.integers(-2 ** bits, 2 ** bits)
    coefficients = st.builds(Fraction, numerators, st.integers(1, 9))
    return st.lists(coefficients, max_size=max_size).map(UniPoly)


mixed_polys = st.sampled_from([3, 40, 300, 400]).flatmap(sized_polys)


@pytest.mark.parametrize("cut", [0, 10 ** 6])
@given(mixed_polys.filter(bool), mixed_polys, mixed_polys,
       st.integers(0, 3), st.integers(0, 3))
@example(X + 2, X + 1, X + 3, 0, 0)  # coprime cofactors around a common factor
@example(-F(3, 2) * X + 1, ONE, X, 2, 0)
@settings(deadline=None, max_examples=60)
def test_gcd_matches_fraction_euclid_on_both_routes(cut, w, u, v, i, j):
    # The cut forced to 0 sends every gcd to the modular lift, and forced
    # past every input, to the integer gcd (with the lift as its fallback).
    # Random u and v are mostly coprime, so a constant w gives coprime
    # pairs and any other w a nontrivial gcd; x**i and x**j split off.
    a, b = w * u * X ** i, w * v * X ** j
    with mock.patch.object(unipoly, "_HEURISTIC_MAX", cut):
        if a or b:
            check_gcd_against_oracle(a, b)


def int_polys(bits, min_size=1, max_size=4):
    """Integer coefficient lists, low degree first, with a nonzero last
    entry."""
    return st.lists(st.integers(-2 ** bits, 2 ** bits), min_size=min_size,
                    max_size=max_size).filter(lambda c: c[-1])


def planted_pair(g, u, v):
    return unipoly._mul_ints(g, u), unipoly._mul_ints(g, v)


def power_and_derivative(f, k):
    a = list((UniPoly(f) ** k)._num)
    return a, [i * c for i, c in enumerate(a) if i]


int_pairs = st.one_of(
    st.tuples(int_polys(8, min_size=2), int_polys(8)),  # mostly coprime
    # A large gcd with small cofactors: the modular lift lifts a cofactor.
    st.builds(planted_pair, int_polys(200, min_size=2), int_polys(8), int_polys(8)),
    # A small gcd of large dense cofactors: the modular lift lifts g.
    st.builds(planted_pair, int_polys(8, min_size=2, max_size=3),
              int_polys(200, min_size=4, max_size=5), int_polys(200, min_size=4, max_size=5)),
    st.builds(power_and_derivative, int_polys(20, min_size=2, max_size=3), st.integers(2, 30)),
)


@pytest.mark.parametrize("cut", [0, 10 ** 6])
@given(int_pairs)
@example(([7, 10 ** 100], [10 ** 100]))  # a linear A against its constant derivative
@settings(deadline=None, max_examples=60)
def test_gcd_ints_returns_the_primitive_gcd_and_both_cofactors(cut, pair):
    # The cut forced to 0 sends every pair to the modular lift, and forced
    # past every input, to the integer gcd; both return the cofactors that
    # their division check computes.
    a, b = pair
    with mock.patch.object(unipoly, "_HEURISTIC_MAX", cut):
        h, cofactor_a, cofactor_b = unipoly._gcd_ints(a, b)
    assert unipoly._mul_ints(h, cofactor_a) == a
    assert unipoly._mul_ints(h, cofactor_b) == b
    assert math.gcd(*h) == 1
    assert len(h) == len(l_gcd([F(c) for c in a], [F(c) for c in b]))


def test_heuristic_gcd_falls_back_on_a_wrong_candidate():
    # At xi = 2**32, gamma = gcd(xi + 1, (k + 1)*(xi + 1)) = xi + 1 reads
    # off as x + 1, which does not divide B: the integer gcd gives up, and
    # the modular route proves A and B coprime.
    xi = 2 ** 32
    for k in (1, 2, 6):
        a, b = [1, 1], [1 + k * (xi + 1), 1]
        assert unipoly._heuristic_gcd(a, b) is None
        with recorded("_gcd_mod") as calls:
            assert gcd(UniPoly(a), UniPoly(b)) == ONE
        assert calls


def test_gcd_of_a_large_gcd_with_tied_cofactors_draws_no_prime():
    # W's 60-digit coefficients are below the cut, so one integer gcd
    # finds W; the modular lift breaks the tie between W and the cofactor
    # x + 1 toward W and lifts it over 16 primes.
    w = (10 ** 59 + 7) - 3 * 10 ** 58 * X
    a, b = w * (X + 1), w * (X + 2)
    with recorded("_gcd_mod") as calls:
        assert gcd(a, b) == w.monic()
    assert calls == []
    with modular_route(), recorded("_gcd_mod") as calls:
        assert gcd(a, b) == w.monic()
    assert len(calls) == 16


def test_scalars_coerce_in_gcd_and_exact_div():
    assert gcd(X, 3) == ONE
    assert gcd(F(1, 2), X + 1) == ONE
    assert gcd(0, 2 * X - 1) == X - F(1, 2)
    assert exact_div(6, 3) == 2
    assert exact_div(2 * X, F(2, 3)) == 3 * X
    with pytest.raises(ArithmeticError):
        exact_div(6, X)
    with pytest.raises(ZeroDivisionError):
        exact_div(X, 0)
    for value in ("x", 1.5, True, None):
        with pytest.raises(TypeError):
            gcd(X, value)
        with pytest.raises(TypeError):
            gcd(value, X)
        with pytest.raises(TypeError):
            exact_div(X, value)
        with pytest.raises(TypeError):
            exact_div(value, X)


@given(polys, polys, rationals)
@settings(deadline=None)
def test_eval_is_a_ring_homomorphism(a, b, t):
    assert (a + b)(t) == a(t) + b(t)
    assert (a * b)(t) == a(t) * b(t)


# Operands for the Kronecker kernel's slot-width edge cases: negative
# coefficients, zeros drawn often enough to leave empty slots, one
# 10**40-sized coefficient among small ones, constants, and denominators
# that are powers of 3 or of 7, so that the operands' denominators differ.
sparse_polys = st.lists(st.one_of(st.just(F(0)), rationals), max_size=8).map(UniPoly)


@st.composite
def one_huge_polys(draw):
    coeffs = draw(st.lists(rationals, min_size=1, max_size=6))
    i = draw(st.integers(0, len(coeffs) - 1))
    coeffs[i] = F(draw(st.integers(-10**40, 10**40)), draw(st.integers(1, 9)))
    return UniPoly(coeffs)


def over(base):
    """Polynomials whose denominators are powers of ``base``."""
    return st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(0, 12)),
                    max_size=6).map(lambda pairs: UniPoly([F(n, base ** k) for n, k in pairs]))


constants = st.one_of(rationals, st.integers(-10**40, 10**40)).map(UniPoly.constant)
mul_operands = st.one_of(polys, sparse_polys, one_huge_polys(), constants, over(3), over(7))

# The first four examples' coefficient bounds have a bit length that is a
# multiple of 8, where a Kronecker slot without its sign bit overflows;
# they are short and run by schoolbook, and the test of _mul_ints below
# has such cases past the cut.  The others have a constant on one side.
@given(mul_operands, mul_operands)
@settings(max_examples=300, deadline=None)
@example(P(85, 85, 85), P(1, 1, 1))
@example(P(-85, -85, -85), P(1, 1, 1))
@example(P(8, 8), P(8, 8))
@example(P(-128, 0, -1), P(1, 0, 0, 1))
@example(P(255), P(1, 1))
@example(P(-255, 0, 255), ONE)
@example(P(F(3, 7)), P(F(1, 2), 0, -4))
@example(P(F(1, 2), 0, -4), P(-10**40))
def test_multiplication_against_schoolbook_oracle(a, b):
    assert list((a * b).coeffs) == l_mul(a.coeffs, b.coeffs)
    # Squaring packs the operand once.
    assert list((a * a).coeffs) == l_mul(a.coeffs, a.coeffs)


# Integer operands for both routes of the product kernel: lengths on both
# sides of the schoolbook cut, negative entries, zeros inside and
# 1000-bit entries, with a nonzero last entry as the kernel requires.
int_operands = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-2 ** 1000, 2 ** 1000)),
    min_size=1, max_size=3 * unipoly._SCHOOLBOOK_MAX,
).map(lambda c: c[:-1] + [c[-1] or 1])


# The examples but the last have seven entries a side and a nonzero
# constant term, so they run by Kronecker: the bound 7 * 36 = 252 of 8
# bits, where a slot without its sign bit overflows, with either sign;
# inner zeros that leave empty slots; 1000-bit entries.  The last splits
# x**6 off its left side, and the one entry left scales the right side.
@given(int_operands, int_operands)
@settings(max_examples=300, deadline=None)
@example([36] * 7, [1] * 7)
@example([-36] * 7, [1] * 7)
@example([-255, 0, 0, 0, 0, 0, 255], [1, 0, 0, 0, 0, 0, 1])
@example([1] + [0] * 5 + [1], [-2 ** 1000] + [0] * 5 + [2 ** 1000])
@example([0] * 6 + [1], [-2 ** 1000] + [0] * 5 + [2 ** 1000])
def test_mul_ints_against_schoolbook_oracle_on_both_routes(a, b):
    product = l_mul(a, b)
    assert unipoly._mul_ints(a, b) == product
    assert unipoly._mul_ints(b, a) == product
    # A square packs its operand once.
    assert unipoly._mul_ints(a, a) == l_mul(a, a)


@given(int_operands, int_operands, st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_mul_ints_splits_off_powers_of_x(a, b, i, j):
    # x**i and x**j on one side, on both sides and on a square.
    a, b = [0] * i + a, [0] * j + b
    product = l_mul(a, b)
    assert unipoly._mul_ints(a, b) == product
    assert unipoly._mul_ints(b, a) == product
    assert unipoly._mul_ints(a, a) == l_mul(a, a)


def test_mul_ints_packs_only_past_the_schoolbook_cut(monkeypatch):
    packed = []
    real_pack = unipoly._pack

    def recording_pack(ints, size):
        packed.append(len(ints))
        return real_pack(ints, size)

    monkeypatch.setattr(unipoly, "_pack", recording_pack)
    cut = unipoly._SCHOOLBOOK_MAX
    short, long = list(range(1, cut + 1)), list(range(1, 4 * cut))
    assert unipoly._mul_ints(long, short) == l_mul(long, short)
    assert unipoly._mul_ints(short, short) == l_mul(short, short)
    assert packed == []
    # Leading zeros are split off before the cut is applied.
    shifted = [0] * 4 * cut + short
    assert unipoly._mul_ints(shifted, long) == l_mul(shifted, long)
    assert unipoly._mul_ints(shifted, shifted) == l_mul(shifted, shifted)
    assert packed == []
    longer = short + [1]
    assert unipoly._mul_ints(longer, long) == l_mul(longer, long)
    assert packed == [cut + 1, 4 * cut - 1]
    # A square packs its x-free part once.
    packed.clear()
    shifted = [0] * cut + long
    assert unipoly._mul_ints(shifted, shifted) == l_mul(shifted, shifted)
    assert packed == [4 * cut - 1]


# Bases for powers: a factor x**v and interior zeros, which the power
# splits off and skips; one-term bases, a monomial in closed form; and
# entries of up to 1000 bits.
shifted_polys = st.builds(lambda v, coeffs: UniPoly([F(0)] * v + coeffs),
                          st.integers(0, 3), st.lists(st.one_of(st.just(F(0)), rationals), max_size=5))
one_term_polys = st.builds(lambda v, c: UniPoly([0] * v + [c]),
                           st.integers(0, 4), st.one_of(rationals, st.integers(-2**1000, 2**1000)))
thousand_bit_polys = st.lists(st.integers(-2**1000, 2**1000), max_size=3).map(UniPoly)


@given(st.one_of(polys, one_huge_polys(), over(7), shifted_polys, one_term_polys), st.integers(0, 40))
@settings(deadline=None)
@example(P(8, 8), 2)
@example(P(0, 0, F(1, 3), 0, 0, -2), 40)
@example(P(0, 0, F(-7, 2)), 39)
def test_pow_matches_repeated_multiplication_oracle(a, k):
    assert list((a ** k).coeffs) == l_pow(a.coeffs, k)


@given(thousand_bit_polys, st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_pow_of_thousand_bit_entries_matches_the_oracle(a, k):
    assert list((a ** k).coeffs) == l_pow(a.coeffs, k)


def test_pow_by_the_recurrence_never_multiplies(monkeypatch):
    base = 3 * X ** 5
    binomial = 1000 * X + 1

    def no_product(a, b):
        raise AssertionError("_mul_ints called")

    monkeypatch.setattr(unipoly, "_mul_ints", no_product)
    assert X ** 4096 == UniPoly([0] * 4096 + [1])
    assert base ** 700 == UniPoly([0] * 3500 + [3 ** 700])
    power = binomial ** 1500
    assert power._num == tuple(math.comb(1500, k) * 1000 ** k for k in range(1501))


def test_pow_squares_at_two_and_takes_the_recurrence_from_three(monkeypatch):
    calls = []
    for name in ("_mul_ints", "_series_power"):
        real = getattr(unipoly, name)
        monkeypatch.setattr(unipoly, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    dense = P(0, *range(1, 65))  # 63 terms above the lowest
    for k in (1, 2, 3, 4):
        calls.clear()
        assert list((dense ** k).coeffs) == l_pow(dense.coeffs, k)
        assert calls == {1: [], 2: ["_mul_ints"]}.get(k, ["_series_power"])


@given(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=1, max_size=8).filter(any),
       st.integers(1, 10 ** 6), st.booleans())
@settings(deadline=None, max_examples=80)
@example([3, -1], 1, False)
@example([5, 0, 7], 1, True)
@example([3, -6], 4, True)
def test_primitive_returns_a_new_list_over_the_content(ints, k, as_tuple):
    # The content is 1 or not; a tuple such as a _num must come back as a
    # list of its own, since _make pops from the list it is handed.
    scaled = [k * c for c in ints]
    argument = tuple(scaled) if as_tuple else scaled
    content = functools.reduce(math.gcd, scaled, 0)
    result = unipoly._primitive(argument)
    assert type(result) is list and result is not argument
    assert result == [Fraction(c, content) for c in scaled]
    result.append(1)
    assert list(argument) == scaled


# Nonzero divisors with content: an integer polynomial times k/den.
divisors_with_content = st.builds(
    lambda ints, k, den: UniPoly([F(c * k, den) for c in ints]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(lambda c: c[-1]),
    st.integers(1, 10**12), st.integers(1, 10**6),
)
divisors = st.one_of(nonzero_polys, divisors_with_content, over(7).filter(bool))


@given(st.one_of(polys, one_huge_polys(), over(3)), divisors)
@settings(max_examples=300, deadline=None)
@example(P(1, 1), P(F(6, 5), F(12, 5)))
def test_exact_div_recovers_the_cofactor(a, b):
    # The product comes from the oracle, so only the division is tested.
    product = UniPoly(l_mul(a.coeffs, b.coeffs))
    quotient = exact_div(product, b)
    assert quotient == a
    assert list(quotient.coeffs) == l_exact_div(product.coeffs, b.coeffs)


@given(polys, divisors.filter(lambda b: b.degree >= 1), rationals.filter(bool))
@settings(deadline=None)
def test_exact_div_rejects_a_remainder_in_the_constant_term(a, b, c):
    with pytest.raises(ArithmeticError, match="inexact division"):
        exact_div(UniPoly(l_mul(a.coeffs, b.coeffs)) + c, b)


@given(nonzero_polys, divisors)
@settings(max_examples=200, deadline=None)
@example(P(1, 3), P(1, 2))
@example(P(1, 1), P(0, 0, 1))
def test_exact_div_raises_exactly_when_a_remainder_is_left(a, b):
    # Covers deg b > deg a and every b that does not divide a.
    if l_divmod(a.coeffs, b.coeffs)[1]:
        with pytest.raises(ArithmeticError, match="inexact division"):
            exact_div(a, b)
    else:
        assert exact_div(a, b) * b == a


@given(divisors)
@settings(deadline=None)
def test_exact_div_of_zero_and_by_zero(b):
    assert exact_div(ZERO, b) == ZERO
    with pytest.raises(ZeroDivisionError):
        exact_div(b, ZERO)


def test_immutability_and_hash():
    p = P(1, 2, 3)
    assert hash(p) == hash(P(1, 2, 3))
    assert p == P(1, 2, 3)
    assert P(5) == 5 and hash(P(5)) == hash(5)
    with pytest.raises(AttributeError):
        p.coeffs = ()


# -- the stored form: integer numerators over one denominator ----------------

def assert_canonical(p):
    """No trailing zero, a positive denominator prime to every numerator."""
    assert type(p._num) is tuple and all(type(c) is int for c in p._num)
    assert type(p._den) is int and p._den > 0
    assert math.gcd(p._den, *p._num) == 1
    assert not p._num or p._num[-1]


@given(mul_operands, mul_operands, rationals.filter(bool), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
@example(P(F(1, 2), F(1, 2)), P(F(-1, 2), F(1, 2)), F(1, 2), 2)
@example(P(F(1, 3), 1), P(F(2, 3), -1), F(-3), 3)
def test_every_result_is_canonical(a, b, s, k):
    # The examples cancel: 1/2 + 1/2, 1/3 + 2/3 and the x terms.
    results = [a + b, a - b, b - a, -a, a * b, a * a, a * s, s - a, a + s, a / s,
               a ** k, a.derivative()]
    if a:
        results += [a.monic(), exact_div(a * b, a)]
    if a or b:
        results.append(gcd(a, b))
    for r in results:
        assert_canonical(r)


@given(mul_operands, mul_operands)
@settings(deadline=None)
def test_parsed_polynomials_are_canonical(a, b):
    for text in (str(a), f"({a})*({b}) - ({b})^2", f"-({a}) + 3/6*x^2"):
        parsed = parse_uni(text)
        assert_canonical(parsed)
    assert parse_uni(str(a)) == a


@given(st.lists(rationals, max_size=6), st.integers(1, 10**6), st.integers(-5, 5))
@settings(deadline=None)
@example([F(1, 2), 1], 2, 0)  # UniPoly([1, 2]) / 2
@example([F(2, 4), F(6, 8)], 4, -1)
def test_routes_to_one_polynomial_compare_and_hash_equal(coeffs, k, shift):
    # The constructor, scaling, adding and multiplying out must all land
    # on the same stored form.
    p = UniPoly(coeffs)
    routes = [
        UniPoly(coeffs + [0, F(0)]),
        UniPoly([c * k for c in coeffs]) / k,
        (p * k) / k,
        (p + shift) - shift,
        exact_div(p * (X + shift), X + shift),
    ]
    for q in routes:
        assert q == p
        assert hash(q) == hash(p)
        assert q._num == p._num and q._den == p._den


@given(st.one_of(rationals, st.integers(-10**40, 10**40),
                 st.fractions(max_denominator=10**12)))
@settings(deadline=None)
def test_constants_hash_like_their_number(value):
    c = UniPoly.constant(value)
    assert c == value
    assert hash(c) == hash(value) == hash(UniPoly([value]))
    assert hash(c * X - value * X) == hash(0)


@given(st.one_of(polys, one_huge_polys(), over(7)),
       st.one_of(st.just(F(0)), rationals, st.fractions(max_denominator=10**9)))
@settings(max_examples=200, deadline=None)
def test_evaluation_matches_the_power_sum_oracle(a, t):
    value = a(t)
    assert type(value) is Fraction
    assert value == l_eval(a.coeffs, t)
