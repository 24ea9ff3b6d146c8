"""Bivariate layer: the resultant in y and its modular kernel."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broughton.bipoly import (
    MERSENNE_EXPONENTS,
    BiPoly,
    _euclid_resultant,
    _resultant_modulo,
    hadamard_square,
    mersenne_exponent,
    resultant_y,
)
from broughton.decompose import connectivity_certificate
from broughton.unipoly import ONE, UniPoly, ZERO
from oracles import (
    b_add,
    b_build_g,
    b_mul,
    b_partial_x,
    b_partial_y,
    b_pow,
    b_resultant_y,
    b_swap,
    b_y_columns,
    bareiss_determinant,
    clear_denominators,
    integer_bareiss_determinant,
    integer_resultant_y,
    interpolate_naturals,
    l_eval,
    l_from_roots,
    l_mul,
    l_resultant,
    l_trim,
    random_coeffs,
    sylvester_rows,
)

F = Fraction


def P(*coeffs):
    return UniPoly(coeffs)


def bi_from_dict(d):
    """Glue: build a BiPoly from an oracle {(i, j): coeff} dict."""
    if not d:
        return BiPoly()
    height = max(j for _, j in d) + 1
    width = max(i for i, _ in d) + 1
    columns = []
    for j in range(height):
        columns.append(UniPoly(tuple(d.get((i, j), F(0)) for i in range(width))))
    return BiPoly(columns)


def h_dict(p, m, n, c):
    """The certificate's surface (p(x)*y - 1)**m + c*y**n, expanded by the
    oracle's own ring."""
    return b_add(b_pow(b_build_g(p), m), {(0, n): F(c)})


def x_degree_bound(a, b):
    """The degree bound resultant_y interpolates to: n*deg_x a + m*deg_x b."""
    return a.degree_y * b.degree_x + b.degree_y * a.degree_x


def random_dict(rng, max_x=3, max_y=3):
    """Oracle dict with 1..max_y+1 rows in y, each of x-degree <= max_x."""
    d = {}
    for j in range(rng.randint(1, max_y + 1)):
        for i, value in enumerate(random_coeffs(rng, rng.randint(0, max_x))):
            if value:
                d[(i, j)] = value
    return d


Y = BiPoly((0, 1))  # y


class TestResultant:
    def test_fiber_curve_against_vertical_coordinate(self):
        rng = random.Random(444)
        for _ in range(20):
            q = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            g = BiPoly((P(-1), q))  # q(x)*y - 1
            assert resultant_y(g, Y) == ONE

    def test_equal_arguments_vanish(self):
        a = BiPoly((P(-1, -1), P(0, 0, 1)))
        assert resultant_y(a, a) == ZERO

    def test_elimination_example(self):
        f = BiPoly((P(-1, -1), P(0, 0, 1)))  # x^2*y - (x + 1)
        line = BiPoly((-1, 1))  # y - 1
        assert resultant_y(f, line) == -P(-1, -1, 1)

    def test_two_y_free_inputs_give_one(self):
        # The Sylvester matrix in y is empty, and its determinant is one.
        assert resultant_y(BiPoly((P(0, 1),)), BiPoly((P(1, 1),))) == ONE
        assert resultant_y(BiPoly((P(3),)), BiPoly((P(0, 0, 2),))) == ONE

    def test_degree_bound_of_the_connectivity_anchor(self):
        # p = x^3 + x + 1 with m = 5, n = 4: the certificate's two
        # resultants chi(v) = Res_x(p', v - p) and Res_v(chi, G) have the
        # degrees d - 1 = 2 and (d - 1)*N = 8 that the bound interpolates to.
        slope = BiPoly((1, 0, 3))  # p' = 3x^2 + 1, in the eliminated variable
        v_minus_p = BiPoly((P(-1, 1), -1, 0, -1))
        assert x_degree_bound(slope, v_minus_p) == 2
        chi = resultant_y(slope, v_minus_p) / 27
        assert chi == P(F(31, 27), -2, 1)
        g = BiPoly((P(0, 0, 0, 4), 5, P(0, -20), P(0, 0, 30), P(0, 0, 0, -20),
                    P(0, 0, 0, 0, 5)))  # 5v(vy - 1)^4 + 4y^3
        assert x_degree_bound(BiPoly(chi.coeffs), g) == 8
        assert resultant_y(BiPoly(chi.coeffs), g).degree == 8

    def test_vanishes_exactly_on_planted_common_factors(self):
        rng = random.Random(555)
        for _ in range(25):
            w = {(i, j): value
                 for j in range(2)
                 for i, value in enumerate(random_coeffs(rng, 1)) if value}
            a = bi_from_dict(b_mul(w, random_dict(rng, max_x=2, max_y=1)))
            b = bi_from_dict(b_mul(w, random_dict(rng, max_x=2, max_y=1)))
            if a.degree_y < 1 or b.degree_y < 1:
                continue
            assert resultant_y(a, b) == ZERO

    def test_specialization_consistency(self):
        # Res_y over Q[x], evaluated at x = t, must agree with the plain
        # Sylvester resultant of the specialized y-polynomials whenever the
        # y-leading coefficients survive the specialization.
        rng = random.Random(666)
        done = 0
        while done < 40:
            a = bi_from_dict(random_dict(rng))
            b = bi_from_dict(random_dict(rng))
            if a.degree_y < 1 or b.degree_y < 1:
                continue
            t = F(rng.randint(-4, 4))
            if not a.coeffs[a.degree_y](t) or not b.coeffs[b.degree_y](t):
                continue
            specialized = l_resultant([c(t) for c in a.coeffs], [c(t) for c in b.coeffs])
            assert resultant_y(a, b)(t) == specialized
            done += 1


def test_resultant_y_matches_product_formula_on_y_polynomials():
    # Without x, Res_y(a, b) = lc(a)**deg(b) * prod b(alpha) over the roots
    # of a, checked on polynomials with planted rational roots.  This pins
    # the sign convention globally, not just up to sign.
    rng = random.Random(202)
    for _ in range(80):
        roots = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        lead = F(rng.choice([1, 2, -3]), rng.choice([1, 2]))
        a = l_from_roots([(root, 1) for root in roots], unit=lead)
        b = random_coeffs(rng, rng.randint(0, 3))
        expected = lead ** (len(b) - 1)
        for root in roots:
            expected *= l_eval(b, root)
        assert resultant_y(BiPoly(a), BiPoly(b)) == expected


def fraction_determinant(rows):
    return bareiss_determinant([[F(v) for v in row] for row in rows], F(0), F(1),
                               operator.mul, operator.sub, operator.truediv)


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 5 x 5, half their entries zero, so that
    zero pivots and row swaps are common; some are made singular by
    repeating a row as a multiple of another."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[j] = [draw(st.integers(-3, 3)) * v for v in rows[i]]
    return rows


@given(integer_matrices())
@example([[0, 1], [1, 0]])  # zero first pivot: one swap
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # zero pivot after a step
@example([[0, 2, 1], [0, 5, 3], [0, 1, 4]])  # zero column: singular
@example([[2, 4], [1, 2]])  # dependent rows: singular, no zero column
@example([[0, 0, 3], [0, 2, 0], [1, 0, 0]])  # two swaps
@example([])
@settings(deadline=None)
def test_bareiss_determinant_matches_fraction_oracle(rows):
    assert integer_bareiss_determinant(rows) == fraction_determinant(rows)


@given(st.lists(st.integers(-10**6, 10**6), max_size=8), st.integers(0, 4))
def test_interpolate_naturals_recovers_integer_polynomials(coeffs, extra):
    # Any number of points above the degree gives the polynomial back.
    values = [int(l_eval(coeffs, t)) for t in range(len(coeffs) + extra)]
    assert interpolate_naturals(values) == l_trim(coeffs)


nonzero_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


def bi_dicts(max_x=2, max_y=2, min_size=0):
    """Oracle dicts {(x power, y power): nonzero Fraction}."""
    keys = st.tuples(st.integers(0, max_x), st.integers(0, max_y))
    return st.dictionaries(keys, nonzero_rationals, min_size=min_size, max_size=6)


@st.composite
def vanishing_lead_dicts(draw):
    """y-degree 1 or 2, with leading y-coefficient u * prod (x - r) over
    roots r in 0..3, among the points where resultant_y evaluates x."""
    roots = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    lead = l_from_roots([(r, 1) for r in roots], unit=draw(nonzero_rationals))
    height = draw(st.integers(1, 2))
    rest = draw(bi_dicts(max_y=height - 1))
    return b_add(rest, {(i, height): c for i, c in enumerate(lead)})


def check_against_oracle(a, b):
    """resultant_y equals the Fraction oracle on (a, b) and, where defined,
    on the x <-> y swapped pair (the x-eliminant of the originals)."""
    for left, right in ((a, b), (b_swap(a), b_swap(b))):
        if max(j for _, j in left) == 0 and max(j for _, j in right) == 0:
            continue
        got = resultant_y(bi_from_dict(left), bi_from_dict(right))
        assert list(got.coeffs) == b_resultant_y(left, right)


@given(bi_dicts(min_size=1), bi_dicts(min_size=1))
@settings(deadline=None)
def test_resultant_y_matches_fraction_oracle(a, b):
    check_against_oracle(a, b)


@given(vanishing_lead_dicts(), st.one_of(vanishing_lead_dicts(), bi_dicts(min_size=1)))
@settings(deadline=None)
def test_resultant_y_matches_oracle_where_leading_coefficients_vanish(a, b):
    check_against_oracle(a, b)


@given(
    bi_dicts(max_x=1, max_y=1, min_size=1),
    bi_dicts(max_x=1, max_y=1, min_size=1),
    bi_dicts(max_x=1, max_y=1, min_size=1).filter(lambda w: any(j for _, j in w)),
)
@settings(deadline=None)
def test_resultant_y_vanishes_with_oracle_on_common_factors(a, b, w):
    a, b = b_mul(w, a), b_mul(w, b)
    assert resultant_y(bi_from_dict(a), bi_from_dict(b)) == ZERO
    check_against_oracle(a, b)


@given(bi_dicts(max_y=0, min_size=1), bi_dicts(min_size=1))
@settings(deadline=None)
def test_resultant_y_matches_oracle_with_a_y_free_side(a, b):
    check_against_oracle(a, b)
    check_against_oracle(b, a)


# -- the modular kernel -------------------------------------------------------

def integer_columns(d):
    """The integer x-coefficient lists by power of y of an integer dict."""
    return [[int(c) for c in column] for column in b_y_columns(d)]


def chosen_prime(a, b):
    """The modulus resultant_y works in for integer dicts a and b."""
    bits = (hadamard_square(integer_columns(a), integer_columns(b)).bit_length() + 3) // 2
    return (1 << mersenne_exponent(bits)) - 1


X_X1_X3 = l_from_roots([(0, 1), (1, 1), (3, 1)])  # x(x - 1)(x - 3)


@st.composite
def vanishing_x_x1_x3_pairs(draw):
    """A leading y-coefficient with the factor x(x - 1)(x - 3), so that it
    vanishes at three of the points x = 0..D; the other side's sometimes
    too."""
    def side():
        height = draw(st.integers(1, 2))
        cofactor = draw(st.lists(nonzero_rationals, min_size=1, max_size=2))
        lead = l_mul(X_X1_X3, cofactor)
        rest = draw(bi_dicts(max_y=height - 1))
        return b_add(rest, {(i, height): c for i, c in enumerate(lead) if c})
    a = side()
    b = side() if draw(st.booleans()) else draw(bi_dicts(min_size=1))
    return a, b


@st.composite
def multiple_of_modulus_pairs(draw):
    """a of y-degree 1 or 2 with every coefficient a multiple of the prime
    that resultant_y picks, and b free of y: the bound then depends on b
    alone, and a's leading coefficient vanishes at every point."""
    height = draw(st.integers(1, 2))
    b = {(i, 0): F(c) for i, c in enumerate(draw(
        st.lists(st.integers(-9, 9), min_size=1, max_size=3))) if c}
    if not b:
        b = {(0, 0): F(draw(st.sampled_from([-2, 1, 3])))}
    shape = {(0, height): F(1)}  # any a of this y-degree has the same bound
    prime = chosen_prime(shape, b)
    keys = st.tuples(st.integers(0, 2), st.integers(0, height - 1))
    a = draw(st.dictionaries(keys, st.integers(-3, 3).filter(bool), max_size=4))
    a = {key: F(prime * c) for key, c in a.items()}
    for i, c in enumerate(draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=2))):
        a[(i, height)] = F(prime * c)
    return a, b


@st.composite
def common_factor_pairs(draw):
    w = draw(bi_dicts(max_x=1, max_y=1, min_size=1).filter(lambda d: any(j for _, j in d)))
    a = draw(bi_dicts(max_x=1, max_y=1, min_size=1))
    b = draw(bi_dicts(max_x=1, max_y=1, min_size=1))
    return b_mul(w, a), b_mul(w, b)


y_free_pairs = st.tuples(bi_dicts(max_y=0, min_size=1), bi_dicts(max_y=0, min_size=1))


@given(st.one_of(vanishing_x_x1_x3_pairs(), multiple_of_modulus_pairs(),
                 common_factor_pairs(), y_free_pairs))
@settings(deadline=None)
def test_modular_resultant_y_matches_fraction_bareiss(pair):
    a, b = pair
    got = resultant_y(bi_from_dict(a), bi_from_dict(b))
    assert list(got.coeffs) == b_resultant_y(a, b)


def test_multiples_of_the_modulus_vanish_at_every_point():
    # The property's multiple-of-the-modulus case really has a leading
    # coefficient that is zero modulo the prime at every point.
    b = {(0, 0): F(3), (1, 0): F(-2)}
    prime = chosen_prime({(0, 1): F(1)}, b)
    a = {(0, 0): F(prime), (2, 1): F(-2 * prime)}
    assert prime == (1 << 61) - 1
    assert resultant_y(bi_from_dict(a), bi_from_dict(b)) == UniPoly([3, -2])


# One deterministic pair per branch of the pointwise kernel, each reached at
# one of the points x = 0..D where resultant_y evaluates.
KERNEL_BRANCHES = {
    # lc(b) = x - 1 vanishes at x = 1, lc(a) = 1 nowhere.
    "lead_of_b_vanishes": ({(0, 2): F(1), (1, 1): F(1), (0, 0): F(1)},
                           {(1, 1): F(1), (0, 1): F(-1), (2, 0): F(1), (0, 0): F(2)}),
    # lc(a) = x - 2 vanishes at x = 2; equal y-degrees, so no swap comes first.
    "lead_of_a_vanishes": ({(1, 1): F(1), (0, 1): F(-2), (0, 0): F(1)},
                           {(0, 1): F(1), (1, 0): F(1)}),
    # Both leading coefficients are multiples of x.
    "both_leads_vanish": ({(1, 2): F(1), (0, 1): F(1), (0, 0): F(1)},
                          {(1, 1): F(1), (0, 0): F(2)}),
    # y^3 + x*y + 2 = y*(y^2 + 1) + (x - 1)*y + 2: the remainder drops to
    # degree 0 at x = 1 alone among x = 0..2.
    "remainder_drops_at_one_point": ({(0, 3): F(1), (1, 1): F(1), (0, 0): F(2)},
                                     {(0, 2): F(1), (0, 0): F(1)}),
    # x^2 + 3 is free of y: Res = (x^2 + 3)**2.
    "one_side_free_of_y": ({(2, 0): F(1), (0, 0): F(3)},
                           {(1, 2): F(1), (0, 2): F(1), (0, 1): F(1), (1, 0): F(1)}),
}


@pytest.mark.parametrize("a, b", KERNEL_BRANCHES.values(), ids=list(KERNEL_BRANCHES))
def test_each_kernel_branch_matches_fraction_oracle(a, b):
    for left, right in ((a, b), (b, a)):
        got = resultant_y(bi_from_dict(left), bi_from_dict(right))
        assert list(got.coeffs) == b_resultant_y(left, right)


formal_lists = st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=1, max_size=5)


@given(formal_lists, formal_lists)
@example([0], [0])  # empty matrix: one
@example([0, 0], [0, 0, 1])  # zero leading entry of a
@example([2, 0, 0], [0, 0])  # both leading entries zero
@settings(deadline=None)
def test_kernel_takes_the_determinant_at_formal_degrees(a, b):
    # Zero leading entries are kept: the value is the determinant of the
    # Sylvester matrix of the lists' own lengths, as at a point where a
    # leading coefficient vanishes.
    prime = (1 << 61) - 1
    expected = fraction_determinant(sylvester_rows(a, b, 0))
    num, den = _euclid_resultant([c % prime for c in a], [c % prime for c in b], prime)
    assert (num - expected * den) % prime == 0


def integer_dict(columns):
    """The oracle dict of integer x-coefficient lists by power of y."""
    return {(i, j): F(c) for j, column in enumerate(columns)
            for i, c in enumerate(column) if c}


@given(bi_dicts(min_size=1), bi_dicts(min_size=1))
@settings(deadline=None)
def test_hadamard_bound_dominates_every_coefficient(a, b):
    a_ints, _ = clear_denominators(b_y_columns(a))
    b_ints, _ = clear_denominators(b_y_columns(b))
    square = hadamard_square(a_ints, b_ints)
    for c in b_resultant_y(integer_dict(a_ints), integer_dict(b_ints)):
        assert c * c <= square


def test_hadamard_bound_is_reached_by_a_diagonal_matrix():
    # Res_y(2y + 0, 3) = 3 and Res_y(5, y) = 5: one row each, nothing to
    # lose in Hadamard's inequality.
    assert hadamard_square([[], [2]], [[3]]) == 9
    assert hadamard_square([[5]], [[], [1]]) == 25


@pytest.mark.parametrize("index", range(len(MERSENNE_EXPONENTS)))
def test_prime_choice_at_each_table_boundary(index):
    e = MERSENNE_EXPONENTS[index]
    # 2**e - 1 >= 2**bits exactly when bits < e.
    assert mersenne_exponent(e - 1) == e
    if index + 1 < len(MERSENNE_EXPONENTS):
        assert mersenne_exponent(e) == MERSENNE_EXPONENTS[index + 1]
    if not index:
        assert mersenne_exponent(0) == e


def test_prime_choice_beyond_the_table_raises():
    # Past the largest table prime no modulus covers the bound.
    with pytest.raises(ArithmeticError):
        mersenne_exponent(MERSENNE_EXPONENTS[-1])


def lucas_lehmer(e):
    """Whether 2**e - 1 is prime, for an odd prime e."""
    prime = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % prime
    return s == 0


def test_small_table_entries_are_mersenne_primes():
    for e in MERSENNE_EXPONENTS:
        if e < 5000:
            assert lucas_lehmer(e), e
    # The test itself rejects composites: 2**67 - 1 = 193707721 * 761838257287.
    assert not lucas_lehmer(67)


@given(bi_dicts(max_x=2, max_y=2, min_size=1), bi_dicts(max_x=2, max_y=2, min_size=1),
       st.booleans())
@settings(deadline=None)
def test_image_modulo_a_prime_below_the_bound_is_a_residue(a, b, scale_a):
    # Scaling one leading y-coefficient by the prime makes it vanish at
    # every point, so every value comes from the kernel's zero-lead
    # branches.
    prime = (1 << 61) - 1
    a_ints, _ = clear_denominators(b_y_columns(a))
    b_ints, _ = clear_denominators(b_y_columns(b))
    side = a_ints if scale_a else b_ints
    side[-1] = [prime * c for c in side[-1]]
    degree = x_degree_bound(bi_from_dict(a), bi_from_dict(b))
    image = _resultant_modulo(a_ints, b_ints, degree, prime)
    exact = integer_resultant_y(a_ints, b_ints, degree)
    width = max(len(image), len(exact))
    image += [0] * (width - len(image))
    exact += [0] * (width - len(exact))
    assert all((c - d) % prime == 0 for c, d in zip(image, exact))


@pytest.mark.parametrize("p, m, n, c", [
    ([1, 0, 1], 5, 5, 1),
    ([1, 1, 0, 1], 4, 3, F(-2)),
    ([F(1, 2), F(-3, 7), 2], 3, 4, F(3, 2)),
])
def test_certificate_eliminants_match_integer_bareiss_route(p, m, n, c):
    # Both eliminants of the factored route against integer Bareiss
    # determinants of the full Sylvester matrices of the partials of h.
    h = h_dict(p, m, n, c)
    hx, hy = b_partial_x(h), b_partial_y(h)
    certificate = connectivity_certificate(UniPoly(p), m, n, F(c))
    for a, b, eliminant in ((hx, hy, certificate.eliminants[0]),
                            (b_swap(hx), b_swap(hy), certificate.eliminants[1])):
        a, b = bi_from_dict(a), bi_from_dict(b)
        a_ints, scale_a = clear_denominators([col.coeffs for col in a.coeffs])
        b_ints, scale_b = clear_denominators([col.coeffs for col in b.coeffs])
        exact = integer_resultant_y(a_ints, b_ints, x_degree_bound(a, b))
        scale = scale_a ** b.degree_y * scale_b ** a.degree_y
        expected = UniPoly([F(v, scale) for v in exact])
        assert eliminant == expected
        assert resultant_y(a, b) == expected


CIRCLE = {(2, 0): F(1), (0, 2): F(1)}  # x^2 + y^2


def eliminants(h):
    """Res_y and Res_x of the partials of the dict h, by resultant_y."""
    hx, hy = b_partial_x(h), b_partial_y(h)
    return (resultant_y(bi_from_dict(hx), bi_from_dict(hy)),
            resultant_y(bi_from_dict(b_swap(hx)), bi_from_dict(b_swap(hy))))


class TestSingularLocus:
    def test_certified_example(self):
        r_x, r_y = eliminants(h_dict([0, 1], 2, 2, 1))
        assert r_x and r_y

    def test_nonreduced_square_is_not_certified(self):
        r_x, r_y = eliminants({(2, 2): F(1)})  # (xy)^2
        assert r_x == ZERO and r_y == ZERO

    def test_smooth_quadric(self):
        r_x, r_y = eliminants(CIRCLE)
        assert r_x and r_y

    def test_eliminant_roots_cover_singular_points(self):
        # The eliminants must vanish at the projections of every singular
        # point: x**2 + y**2 is singular exactly at the origin.
        r_x, r_y = eliminants(CIRCLE)
        assert r_x(0) == 0
        assert r_y(0) == 0
