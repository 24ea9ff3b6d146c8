"""Squarefree decomposition, its radical and its power index."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from broughton import modular, squarefree, unipoly
from broughton.arrangement import special_fiber_divisor
from broughton.report import zahid_polynomials
from broughton.squarefree import squarefree_decompose
from broughton.unipoly import ONE, UniPoly, X, ZERO, gcd
from oracles import l_from_roots, l_mul, l_squarefree

F = Fraction
P0 = modular._prime(0)
Y = X + 1


def P(*coeffs):
    return UniPoly(coeffs)


def check_against_oracle(a):
    """The decomposition of ``a``, checked against Yun's algorithm over
    the rationals."""
    result = squarefree_decompose(a)
    unit, parts = l_squarefree(a.coeffs)
    assert result.unit == unit
    assert [(list(f.coeffs), m) for f, m in result.parts] == parts
    return result


def radical(a):
    return check_against_oracle(a).radical()


def power_index(a):
    return check_against_oracle(a).multiplicity_gcd


def primes_drawn(monkeypatch):
    """The primes at which the gcds under the decomposition run Euclid, in
    order, recorded while the test runs."""
    drawn = []
    real_gcd = modular._gcd_mod

    def recording_gcd(a, b, p):
        drawn.append(p)
        return real_gcd(a, b, p)

    monkeypatch.setattr(modular, "_gcd_mod", recording_gcd)
    return drawn


def gcd_ints_calls(monkeypatch):
    """The arguments of each gcd the decomposition takes, in order,
    recorded while the test runs."""
    calls = []
    real_gcd = squarefree._gcd_ints

    def recording_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(squarefree, "_gcd_ints", recording_gcd)
    return calls


def modular_route(monkeypatch):
    """Skip the integer gcds for the rest of the test, so that every
    decomposition that is not a power of x draws primes."""
    monkeypatch.setattr(unipoly, "_HEURISTIC_MAX", 0)


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
        result = check_against_oracle(P(0, 0, 2, 1))
        assert result.unit == 1
        assert result.parts == ((P(2, 1), 1), (X, 2))

    def test_linear(self):
        result = check_against_oracle(P(-5, 1))
        assert result.unit == 1
        assert result.parts == ((P(-5, 1), 1),)

    def test_scaled_cube(self):
        quad = P(0, 1, 1)
        result = check_against_oracle(4 * quad ** 3)
        assert result.unit == 4
        assert result.parts == ((quad, 3),)

    def test_constant_has_empty_parts(self):
        result = check_against_oracle(P(7))
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
            special_fiber_divisor(ZERO)

    def test_constant_inputs(self):
        # A constant has no parts: radical one, multiplicity gcd zero, and
        # the entry point that returns the power index rejects it.
        assert radical(P(3)) == ONE
        assert power_index(P(3)) == 0
        with pytest.raises(ValueError):
            special_fiber_divisor(P(3))


def test_planted_profile_recovery_and_reconstruction():
    # 200 random planted products: the decomposition must recover the exact
    # grouped factors and multiplicities, and reconstruct bit for bit.
    rng = random.Random(515)
    for _ in range(200):
        pairs, unit, poly = planted(rng, unit_choices=(1, 2, -3, F(1, 2)))
        result = check_against_oracle(poly)
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
    # Once one part is left, Yun's loop stops instead of taking one gcd
    # with a constant per remaining multiplicity level: Y - 120*R' is zero
    # for Y**120, so gcd(A, A') is the only gcd.
    modular_route(monkeypatch)
    calls = []
    real_gcd = modular._gcd_mod

    def counting_gcd(a, b, p):
        calls.append((a, b))
        return real_gcd(a, b, p)

    monkeypatch.setattr(modular, "_gcd_mod", counting_gcd)
    # In Y = x + 1: a power of x draws no prime at all.
    assert check_against_oracle(Y ** 120).parts == ((Y, 120),)
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
        assert check_against_oracle(poly).parts == parts


def test_parts_invariants():
    rng = random.Random(626)
    for _ in range(80):
        _, _, poly = planted(rng)
        parts = check_against_oracle(poly).parts
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
        decomposition = check_against_oracle(poly)
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


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def irreducible_factors(draw):
    """x - r, or x^2 + b*x + c with b^2 < 4c, so no rational root."""
    b = draw(small_rationals)
    if draw(st.booleans()):
        return UniPoly([-b, 1])
    c = b * b / 4 + draw(small_rationals.filter(lambda t: t > 0))
    return UniPoly([c, b, 1])


@given(st.lists(st.tuples(irreducible_factors(), st.integers(1, 12)), min_size=1, max_size=3),
       small_rationals.filter(bool))
@settings(deadline=None, max_examples=60)
def test_matches_yun_over_the_rationals(factors, unit):
    # Equal factors drawn twice merge into one part of the summed
    # multiplicity; the oracle sees them the same way.
    poly = UniPoly.constant(unit)
    for factor, multiplicity in factors:
        poly = poly * factor ** multiplicity
    assert check_against_oracle(poly).reconstruct() == poly


# Multiplicities with gaps between them, such as 2, 9 and 16: Yun's loop
# passes each absent multiplicity with a constant gcd.
@given(st.lists(irreducible_factors(), min_size=3, max_size=3),
       st.lists(st.integers(1, 20), min_size=1, max_size=3, unique=True))
@settings(deadline=None, max_examples=40)
@example([X + 1, X - F(2, 3), X ** 2 + 1], [2, 9, 16])
def test_matches_yun_across_gaps_between_multiplicities(factors, multiplicities):
    poly = ONE
    for factor, multiplicity in zip(factors, multiplicities):
        poly = poly * factor ** multiplicity
    check_against_oracle(poly)


@given(st.lists(st.tuples(irreducible_factors(), st.integers(1, 6)), max_size=3),
       st.integers(0, 4), small_rationals.filter(bool))
@settings(deadline=None, max_examples=60)
@example([(X + 1, 3)], 0, F(2))
@example([], 3, F(-1, 2))
def test_radical_is_the_product_of_the_oracle_parts(factors, v, unit):
    poly = unit * X ** v
    for factor, multiplicity in factors:
        poly = poly * factor ** multiplicity
    result = squarefree_decompose(poly)
    product = [F(1)]
    for factor, _ in l_squarefree(poly.coeffs)[1]:
        product = l_mul(product, factor)
    assert result.radical() == UniPoly(product)
    if len(result.parts) == 1:  # one part is its own radical, not a product
        assert result.radical() is result.parts[0][0]


def test_absent_multiplicities_take_no_quotient(monkeypatch):
    # No part has multiplicity 1 to 15, so each of those gcds is a constant
    # modulo the first prime, lifted at once with no quotient modulo p.
    # The quotients are A'/gcd(A, A') modulo p, the cofactor lifted for
    # gcd(A, A'), and the cofactor lifted for the part of multiplicity 16;
    # the last part ends the loop.
    modular_route(monkeypatch)
    drawn = primes_drawn(monkeypatch)
    quotients = []
    real_quotient = modular._quotient_mod

    def counting_quotient(a, b, p):
        quotients.append(len(b))
        return real_quotient(a, b, p)

    monkeypatch.setattr(modular, "_quotient_mod", counting_quotient)
    poly = (X - F(2, 3)) ** 16 * (X - 2) ** 24
    assert check_against_oracle(poly).parts == ((X - F(2, 3), 16), (X - 2, 24))
    assert drawn == [P0] * 17
    assert len(quotients) == 2


@given(st.integers(0, 12),
       st.lists(st.tuples(irreducible_factors(), st.integers(1, 12)), max_size=3),
       small_rationals.filter(bool))
@settings(deadline=None, max_examples=60)
@example(7, [], F(-3, 2))
def test_power_of_x_splits_off_first(v, factors, unit):
    # x**v times A0, v below, equal to or above A0's multiplicities, and A0
    # constant; a factor drawn as x itself adds to v.
    poly = unit * X ** v
    for factor, multiplicity in factors:
        poly = poly * factor ** multiplicity
    check_against_oracle(poly)


@pytest.mark.parametrize("v", [1, 2, 3, 5, 7])
def test_power_of_x_joins_the_parts_in_order(monkeypatch, v):
    # x joins the part of multiplicity v, or is a part of its own below,
    # between or above A0's multiplicities 2 and 5.  A0 takes three gcds
    # at the first prime: gcd(A0, A0'), then k = 1 and 2, after which
    # x^2 + 3 is the last part.  A bare c*x**v draws no prime.
    modular_route(monkeypatch)
    drawn = primes_drawn(monkeypatch)
    a0 = (X - 1) ** 2 * (X ** 2 + 3) ** 5
    parts = [(X * f if m == v else f, m) for f, m in ((X - 1, 2), (X ** 2 + 3, 5))]
    if v not in (2, 5):
        parts.append((X, v))
    result = check_against_oracle(X ** v * a0)
    assert result.parts == tuple(sorted(parts, key=lambda part: part[1]))
    assert drawn == [P0] * 3
    drawn.clear()
    assert check_against_oracle(F(-3, 2) * X ** v).parts == ((X, v),)
    assert drawn == []


def test_unlucky_prime_lowers_the_radical(monkeypatch):
    # In Y = x + 1, which x does not divide, so that no x**v is split off
    # before a prime is drawn: modulo P0, Y*(Y - P0) is Y^2 and
    # Y^2*(Y - P0)^3 is Y^5, so gcd(A, A') has a higher degree there than
    # over the integers, and its lift fails the division check.
    # Y*(Y - P0) is squarefree, so the integer gcd would prove it at once.
    modular_route(monkeypatch)
    drawn = primes_drawn(monkeypatch)
    assert check_against_oracle(Y * (Y - P0)).parts == ((Y * (Y - P0), 1),)
    assert drawn == [P0, modular._prime(1)]
    drawn.clear()
    result = check_against_oracle(Y ** 2 * (Y - P0) ** 3)
    assert result.parts == ((Y, 2), (Y - P0, 3))
    # The true image restarts the lift of gcd(A, A'), whose cofactor of
    # A' holds P0 and needs more primes to reconstruct, since P0 exceeds
    # sqrt(q/2) for a product q of two.
    assert drawn[0] == P0 and len(drawn) >= 4
    # Here the unlucky image comes second, after a true one, and is
    # dropped from the lift.
    p1 = modular._prime(1)
    drawn.clear()
    assert check_against_oracle(Y ** 2 * (Y - p1) ** 3).parts == ((Y, 2), (Y - p1, 3))
    assert drawn[:2] == [P0, p1] and len(drawn) >= 4


def test_prime_dividing_the_leading_coefficient_is_skipped(monkeypatch):
    modular_route(monkeypatch)
    drawn = primes_drawn(monkeypatch)
    poly = (P0 * X - 1) ** 2 * (X + 1)
    assert check_against_oracle(poly).parts == ((X + 1, 1), (X - F(1, P0), 2))
    assert P0 not in drawn


def test_reconstruction_takes_a_second_prime(monkeypatch):
    # The numerator exceeds sqrt(P0/2), so one prime cannot recover the
    # root in gcd(A, A'), and it and 7 are below sqrt(P0*P1/2), so two
    # primes can.  The part x + 1 then takes one gcd at the first prime,
    # and the root's factor is the last part.
    modular_route(monkeypatch)
    drawn = primes_drawn(monkeypatch)
    root = F(math.isqrt(P0) + 1, 7)
    assert root.numerator > math.isqrt(P0 // 2)
    result = check_against_oracle((X - root) ** 3 * (X + 1))
    assert result.parts == ((X + 1, 1), (X - root, 3))
    assert drawn == [P0, modular._prime(1), P0]


def test_prime_dividing_the_lead_of_the_derivative_is_skipped(monkeypatch):
    # With the first prime patched to 5, gcd(A, A') for Y**5 skips 5, since
    # 5 divides lc A' = 5: the derivative would lose its degree there.
    # Y = x + 1, since a power of x draws no prime at all.
    modular_route(monkeypatch)
    real_prime = modular._prime
    monkeypatch.setattr(modular, "_prime", lambda i: 5 if i == 0 else real_prime(i - 1))
    drawn = primes_drawn(monkeypatch)
    assert check_against_oracle(Y ** 5).parts == ((Y, 5),)
    assert drawn == [P0]


def test_primes_are_single_digits():
    # Below 2**30, one CPython int digit, decreasing, and prime by trial
    # division.
    primes = [modular._prime(i) for i in range(20)]
    assert primes == sorted(set(primes), reverse=True)
    assert primes[0] < 2 ** 30
    for p in primes:
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


def strong_probable_prime(n, base):
    """Whether the odd n passes the Miller-Rabin test to ``base``."""
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_four_bases_decide_primality_below_two_to_the_thirty():
    # Trial division by the primes up to sqrt(2**30) on a window of odd n
    # just below 2**30, where _prime draws its primes.
    small = [d for d in range(2, 2 ** 15) if all(d % q for q in range(2, math.isqrt(d) + 1))]
    for n in range(2 ** 30 - 4001, 2 ** 30, 2):
        assert modular._is_prime(n) == all(n % d for d in small), n
    # 2251 * 11251 passes bases 2, 3 and 5, and base 7 rejects it.
    n = 25326001
    assert n == 2251 * 11251
    assert all(strong_probable_prime(n, base) for base in (2, 3, 5))
    assert not modular._is_prime(n)


def test_reconstruction_waits_for_the_modulus_to_double(monkeypatch):
    # P**2 * Y, with P of degree 5 and coefficients of about 560 bits:
    # gcd(A, A') lifts P itself over many primes (x would be split off, so
    # Y = x + 1).  Each failed try calls _rational once, and a try waits
    # until the modulus has doubled in bit length, so the calls grow with
    # the log of the primes drawn; the part Y then takes one more gcd.
    drawn = primes_drawn(monkeypatch)
    calls = []
    real_rational = modular._rational

    def counting_rational(residues, modulus):
        calls.append(modulus)
        return real_rational(residues, modulus)

    monkeypatch.setattr(modular, "_rational", counting_rational)
    a, b = int("12345678901234567" * 10 + "1"), int("98765432109876543" * 10 + "3")
    base = P(a % 10 ** 100, 7, 0, -b, 0, a)
    result = check_against_oracle(base ** 2 * Y)
    assert result.parts == ((Y, 1), (base.monic(), 2))
    assert len(drawn) > 20
    assert len(calls) <= 2 * (math.log2(len(drawn)) + 1)


def test_squarefree_shortcut_lifts_nothing(monkeypatch):
    # q = x*(x+2)*...*(x+30) has coefficients past 100 bits; gcd(A, A')
    # modulo the first prime is a constant, which proves q squarefree.
    # The lift reconstructs only that constant, and no quotient modulo p
    # is taken.
    modular_route(monkeypatch)
    drawn = primes_drawn(monkeypatch)
    lifted = []
    real_rational = modular._rational

    def recording_rational(residues, modulus):
        lifted.append(residues)
        return real_rational(residues, modulus)

    monkeypatch.setattr(modular, "_rational", recording_rational)
    monkeypatch.setattr(modular, "_quotient_mod", None)  # never called
    # The expansion: written as x*(x+2)*...*(x+30), q would take no gcd.
    q = UniPoly(zahid_polynomials(1, 30)[1].coeffs)
    assert max(abs(c) for c in q.coeffs).numerator.bit_length() > 100
    assert check_against_oracle(q).parts == ((q, 1),)
    assert drawn == [P0]
    assert lifted == [[1]]


def test_squarefree_kernel_draws_no_prime(monkeypatch):
    # The same q below the integer gcd's cut: gcd(A(xi), A'(xi)) <= xi/2
    # proves it squarefree, and no prime is drawn.
    drawn = primes_drawn(monkeypatch)
    monkeypatch.setattr(modular, "_gcd_mod", None)  # never called
    q = UniPoly(zahid_polynomials(1, 30)[1].coeffs)  # expanded, as above
    assert check_against_oracle(q).parts == ((q, 1),)
    assert drawn == []


@pytest.mark.parametrize("poly, parts", [
    # Multiplicities 1 to 15 are absent: the package gcd proves each of
    # those pairs coprime from one integer gcd of values.
    ((X - F(2, 3)) ** 16 * (X - 2) ** 24, ((X - F(2, 3), 16), (X - 2, 24))),
    # One part: Y - 5*R' is zero, so the stop at the start takes R.
    ((X ** 2 + 1) ** 5, ((X ** 2 + 1, 5),)),
])
def test_integer_yun_draws_no_prime(monkeypatch, poly, parts):
    drawn = primes_drawn(monkeypatch)
    monkeypatch.setattr(modular, "_gcd_mod", None)  # never called
    assert check_against_oracle(poly).parts == parts
    assert drawn == []


@pytest.mark.parametrize("poly", [
    F(-2, 3) * (X - 1) ** 10 * (X + F(9, 5)) ** 20,
    F(3, 2) * (X + F(4, 5)) ** 10 * (X - 1) ** 20,
])
def test_integer_yun_falls_back_on_a_failed_candidate(monkeypatch, poly):
    # A chance common factor of A(xi) and A'(xi) makes the first candidate
    # for gcd(A, A') fail its division: that gcd is lifted at one prime,
    # and the parts come from the package gcd, which draws no prime here.
    _, ints = unipoly._x_split(unipoly._primitive(poly._num))
    assert unipoly._heuristic_gcd(ints, [i * c for i, c in enumerate(ints) if i]) is None
    drawn = primes_drawn(monkeypatch)
    check_against_oracle(poly)
    assert drawn == [P0]


def test_each_multiplicity_takes_the_package_gcd(monkeypatch):
    # Expanded, R = A/gcd(A, A') is (3*x - 2)*(x - 2): each k from 1 to 16
    # takes one integer gcd of W and Y - k*R', constant below 16, and
    # x - 2 is then the last part.  None of them draws a prime.
    drawn = primes_drawn(monkeypatch)
    calls = gcd_ints_calls(monkeypatch)
    poly = (X - F(2, 3)) ** 16 * (X - 2) ** 24
    assert check_against_oracle(poly).parts == ((X - F(2, 3), 16), (X - 2, 24))
    assert drawn == []
    assert len(calls) == 17  # gcd(A, A') and k = 1 to 16


def test_one_part_left_stops_the_loop(monkeypatch):
    # With the cut at 0 every gcd of the decomposition is a gcd of
    # polynomials: gcd(A, A'), then k = 1, 2 and 3, which finds x - 5.
    # W = x^2 + 3 then divides Y - 40*R', for m = 80/2 = 40, so it is the
    # last part; the k loop alone would take 41 gcds.
    modular_route(monkeypatch)
    calls = gcd_ints_calls(monkeypatch)
    poly = (X ** 2 + 3) ** 40 * (X - 5) ** 3
    assert check_against_oracle(poly).parts == ((X - 5, 3), (X ** 2 + 3, 40))
    assert len(calls) <= 4


@pytest.mark.parametrize("cut", [0, 10 ** 6])
@given(st.lists(st.tuples(irreducible_factors(), st.integers(1, 30)), min_size=1, max_size=4),
       small_rationals.filter(bool))
@example([(X - 1, 10), (X + F(9, 5), 20)], F(-2, 3))  # a failed candidate
@example([(X ** 2 + 1, 5)], 1)
@example([(X ** 2 + 3, 40), (X - 5, 3)], 1)  # the one-part stop after k = 3
@example([(X + 1, 200), (X - F(3, 7), 100)], 1)  # A past the cut, R under it
@example([(X + F(7, 10 ** 100), 2), (X - 5, 3), (X + 1, 7)], F(10 ** 200))  # R past the cut
@example([(X - 3, 1), (X - 1, 3), (X - 4, 5), (X - 2, 7)], 1)  # Y - 4*R' is a constant
@settings(deadline=None, max_examples=60)
def test_high_powers_match_yun_over_the_rationals_on_both_routes(cut, factors, unit):
    # With the cut at 0 every gcd draws primes; past every input, the
    # package gcd settles the high powers of small factors from integer
    # gcds of values, and a failed candidate falls back to primes for
    # that gcd alone.
    poly = UniPoly.constant(unit)
    for factor, multiplicity in factors:
        poly = poly * factor ** multiplicity
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unipoly, "_HEURISTIC_MAX", cut)
        check_against_oracle(poly)


def sized_polys(bits, max_size=4):
    numerators = st.integers(-2 ** bits, 2 ** bits)
    coefficients = st.builds(Fraction, numerators, st.integers(1, 9))
    return st.lists(coefficients, min_size=1, max_size=max_size).map(UniPoly)


@pytest.mark.parametrize("cut", [0, 10 ** 6])
@given(st.lists(st.tuples(st.sampled_from([2, 30, 200, 400]).flatmap(sized_polys),
                          st.integers(1, 4)), min_size=1, max_size=3),
       st.integers(0, 3))
@example([(P(F(-3, 2), 1), 1), (P(1, 0, 1), 1)], 0)  # squarefree, rational lead
@example([(P(2, -5), 3)], 2)  # a negative lead and x**2
@settings(deadline=None, max_examples=60)
def test_matches_yun_over_the_rationals_on_both_routes(cut, factors, v):
    # With the cut at 0 every decomposition draws primes; past every
    # input, the integer gcd first tests each x-free part for being
    # squarefree.  Products of random factors are mostly squarefree when
    # every multiplicity is 1.
    poly = X ** v
    for factor, multiplicity in factors:
        poly = poly * factor ** multiplicity
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unipoly, "_HEURISTIC_MAX", cut)
        if poly:
            check_against_oracle(poly)


def test_scalars_coerce_and_other_values_are_rejected():
    assert squarefree_decompose(5) == (5, ())
    assert squarefree_decompose(F(-1, 2)) == (F(-1, 2), ())
    with pytest.raises(ValueError):
        squarefree_decompose(0)
    for value in ("x", 1.5, True, None, [1, 2]):
        with pytest.raises(TypeError):
            squarefree_decompose(value)
