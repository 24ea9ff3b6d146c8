"""Bivariate layer: the certificate's norm, the resultant oracles it is
checked against, and the package's one prime table, which it does not use."""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broughton import bipoly, modular
from broughton.bipoly import _determinant, critical_norm
from broughton.decompose import connectivity_certificate
from broughton.unipoly import ONE, UniPoly
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
    l_derivative,
    l_eval,
    l_exact_div,
    l_from_roots,
    l_mul,
    l_pow,
    l_resultant,
    l_sub,
    l_trim,
    random_coeffs,
    sylvester_rows,
)

F = Fraction


def h_dict(p, m, n, c):
    """The certificate's surface (p(x)*y - 1)**m + c*y**n, expanded by the
    oracle's own ring."""
    return b_add(b_pow(b_build_g(p), m), {(0, n): F(c)})


def x_degree_bound(a, b):
    """n*deg_x A + m*deg_x B for integer y-columns A of y-degree m and B of
    y-degree n: no coefficient of Res_y(A, B) lies above it."""
    m, n = len(a) - 1, len(b) - 1
    return n * (max(map(len, a)) - 1) + m * (max(map(len, b)) - 1)


def integer_route(a, b):
    """Res_y(a, b) of two nonzero dicts by the integer oracle: denominators
    cleared, integer Sylvester determinants at x = 0..D interpolated, and
    the scale divided back out."""
    a_ints, scale_a = clear_denominators(b_y_columns(a))
    b_ints, scale_b = clear_denominators(b_y_columns(b))
    exact = integer_resultant_y(a_ints, b_ints, x_degree_bound(a_ints, b_ints))
    scale = scale_a ** (len(b_ints) - 1) * scale_b ** (len(a_ints) - 1)
    return [F(v, scale) for v in exact]


def random_dict(rng, max_x=3, max_y=3):
    """Oracle dict with 1..max_y+1 rows in y, each of x-degree <= max_x."""
    d = {}
    for j in range(rng.randint(1, max_y + 1)):
        for i, value in enumerate(random_coeffs(rng, rng.randint(0, max_x))):
            if value:
                d[(i, j)] = value
    return d


def from_x(coeffs, j=0):
    """The dict of coeffs(x) * y**j."""
    return {(i, j): F(c) for i, c in enumerate(coeffs) if c}


Y = {(0, 1): F(1)}  # y


# -- the Fraction resultant oracle on its own ------------------------------
#
# b_resultant_y is the reference of the norm below, so its own laws are
# checked here against the plain resultant and the product formula.

class TestResultant:
    def test_fiber_curve_against_vertical_coordinate(self):
        rng = random.Random(444)
        for _ in range(20):
            q = random_coeffs(rng, rng.randint(1, 4))
            g = b_add(from_x(q, 1), {(0, 0): F(-1)})  # q(x)*y - 1
            assert b_resultant_y(g, Y) == [1]

    def test_equal_arguments_vanish(self):
        a = b_add(from_x([-1, -1]), from_x([0, 0, 1], 1))
        assert b_resultant_y(a, a) == []

    def test_elimination_example(self):
        f = b_add(from_x([-1, -1]), from_x([0, 0, 1], 1))  # x^2*y - (x + 1)
        line = {(0, 1): F(1), (0, 0): F(-1)}  # y - 1
        assert b_resultant_y(f, line) == [1, 1, -1]

    def test_two_y_free_inputs_give_one(self):
        # The Sylvester matrix in y is empty, and its determinant is one.
        assert b_resultant_y(from_x([0, 1]), from_x([1, 1])) == [1]
        assert b_resultant_y(from_x([3]), from_x([0, 0, 2])) == [1]

    def test_degree_bound_of_the_connectivity_anchor(self):
        # p = x^3 + x + 1 with m = 5, n = 4: chi(v) = Res_x(p', v - p)/27 has
        # degree d - 1 = 2, and the norm Res_v(chi, G) = prod G(p(xi), y)
        # reaches the degree (d - 1)*N = 8.
        slope = {(0, 0): F(1), (0, 2): F(3)}  # p' = 3x^2 + 1, x in the y slot
        v_minus_p = {(1, 0): F(1), (0, 0): F(-1), (0, 1): F(-1), (0, 3): F(-1)}
        chi = [c / 27 for c in b_resultant_y(slope, v_minus_p)]
        assert chi == [F(31, 27), -2, 1]
        g = {(3, 0): F(4), (0, 1): F(5), (1, 2): F(-20), (2, 3): F(30),
             (3, 4): F(-20), (4, 5): F(5)}  # 5v(vy - 1)^4 + 4y^3, v in the y slot
        expected = b_resultant_y(b_swap(from_x(chi)), g)
        norm = critical_norm([1, 1, 0, 1], 1, 5, 4, 4, 1)
        assert list(norm.coeffs) == expected
        assert norm.degree == 8

    def test_vanishes_exactly_on_planted_common_factors(self):
        rng = random.Random(555)
        for _ in range(25):
            w = {(i, j): value
                 for j in range(2)
                 for i, value in enumerate(random_coeffs(rng, 1)) if value}
            a = b_mul(w, random_dict(rng, max_x=2, max_y=1))
            b = b_mul(w, random_dict(rng, max_x=2, max_y=1))
            if max(j for _, j in a) < 1 or max(j for _, j in b) < 1:
                continue
            assert b_resultant_y(a, b) == []

    def test_specialization_consistency(self):
        # Res_y over Q[x], evaluated at x = t, must agree with the plain
        # Sylvester resultant of the specialized y-polynomials whenever the
        # y-leading coefficients survive the specialization.
        rng = random.Random(666)
        done = 0
        while done < 40:
            a, b = random_dict(rng), random_dict(rng)
            a_cols, b_cols = b_y_columns(a), b_y_columns(b)
            if len(a_cols) < 2 or len(b_cols) < 2:
                continue
            t = F(rng.randint(-4, 4))
            if not l_eval(a_cols[-1], t) or not l_eval(b_cols[-1], t):
                continue
            specialized = l_resultant([l_eval(c, t) for c in a_cols],
                                      [l_eval(c, t) for c in b_cols])
            assert l_eval(b_resultant_y(a, b), t) == specialized
            done += 1


def test_resultant_y_matches_product_formula_on_y_polynomials():
    # Without x, Res_y(a, b) = lc(a)**deg(b) * prod b(alpha) over the roots
    # of a, checked on polynomials with planted rational roots.  This pins
    # the oracle's sign convention globally, not just up to sign.
    rng = random.Random(202)
    for _ in range(80):
        roots = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        lead = F(rng.choice([1, 2, -3]), rng.choice([1, 2]))
        a = l_from_roots([(root, 1) for root in roots], unit=lead)
        b = random_coeffs(rng, rng.randint(0, 3))
        if not any(b):
            continue
        expected = lead ** (len(b) - 1)
        for root in roots:
            expected *= l_eval(b, root)
        assert b_resultant_y(b_swap(from_x(a)), b_swap(from_x(b))) == l_trim([expected])


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


# -- the integer oracle against the Fraction oracle ---------------------------

nonzero_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


def bi_dicts(max_x=2, max_y=2, min_size=0):
    """Oracle dicts {(x power, y power): nonzero Fraction}."""
    keys = st.tuples(st.integers(0, max_x), st.integers(0, max_y))
    return st.dictionaries(keys, nonzero_rationals, min_size=min_size, max_size=6)


@st.composite
def vanishing_lead_dicts(draw):
    """y-degree 1 or 2, with leading y-coefficient u * prod (x - r) over
    roots r in 0..3, among the points where the integer oracle evaluates."""
    roots = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    lead = l_from_roots([(r, 1) for r in roots], unit=draw(nonzero_rationals))
    height = draw(st.integers(1, 2))
    rest = draw(bi_dicts(max_y=height - 1))
    return b_add(rest, {(i, height): c for i, c in enumerate(lead)})


def check_against_oracle(a, b):
    """The integer oracle equals the Fraction oracle on (a, b) and, where
    defined, on the x <-> y swapped pair (the x-eliminant of the
    originals)."""
    for left, right in ((a, b), (b_swap(a), b_swap(b))):
        if max(j for _, j in left) == 0 and max(j for _, j in right) == 0:
            continue
        assert integer_route(left, right) == b_resultant_y(left, right)


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
    assert b_resultant_y(a, b) == []
    check_against_oracle(a, b)


@given(bi_dicts(max_y=0, min_size=1), bi_dicts(min_size=1))
@settings(deadline=None)
def test_resultant_y_matches_oracle_with_a_y_free_side(a, b):
    check_against_oracle(a, b)
    check_against_oracle(b, a)


y_free_dicts = bi_dicts(max_x=2, max_y=0, min_size=1)


@given(y_free_dicts, st.one_of(y_free_dicts, bi_dicts(max_x=2, max_y=3, min_size=1)))
@example({(0, 0): F(-3, 2)}, {(1, 3): F(1, 2), (0, 0): F(2)})
@settings(deadline=None)
def test_y_free_side_takes_the_closed_form(free, other):
    # Res_y(a_0, b) = a_0**deg_y b and Res_y(a, b_0) = b_0**deg_y a: the
    # Sylvester matrix is the one constant on its diagonal.
    power = l_pow(b_y_columns(free)[0], len(b_y_columns(other)) - 1)
    for a, b in ((free, other), (other, free)):
        assert b_resultant_y(a, b) == power


# One deterministic pair per case of a Sylvester matrix whose leading
# entries vanish, each reached at one of the points x = 0..D where the
# integer oracle evaluates.
KERNEL_BRANCHES = {
    # lc(b) = x - 1 vanishes at x = 1, lc(a) = 1 nowhere.
    "lead_of_b_vanishes": ({(0, 2): F(1), (1, 1): F(1), (0, 0): F(1)},
                           {(1, 1): F(1), (0, 1): F(-1), (2, 0): F(1), (0, 0): F(2)}),
    # lc(a) = x - 2 vanishes at x = 2; equal y-degrees.
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
        assert integer_route(left, right) == b_resultant_y(left, right)


# -- the norm -----------------------------------------------------------------

@st.composite
def poly_matrices(draw):
    """Square matrices up to 4 x 4 of integer polynomials of degree <= 1,
    as coefficient lists, most entries zero, so that zero pivots, row swaps
    and singular matrices are common."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just([]), st.just([]), st.lists(st.integers(-5, 5), max_size=2))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return [[l_trim(F(c) for c in e) for e in row] for row in rows]


@given(poly_matrices())
@example([[[], [1]], [[1], []]])  # zero first pivot: one swap
@example([[[1], [1], []], [[1], [1], [1]], [[], [1], [1]]])  # zero pivot after a step
@example([[[], [2]], [[], [0, 1]]])  # zero column: singular
@example([[[0, 1], [0, 2]], [[1], [2]]])  # dependent rows, no zero column
@settings(deadline=None)
def test_determinant_matches_fraction_oracle(rows):
    expected = bareiss_determinant(rows, [], [F(1)], l_mul, l_sub, l_exact_div)
    got = _determinant([[UniPoly(e) for e in row] for row in rows])
    assert list(got.coeffs) == expected


formal_lists = st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=1, max_size=5)


@given(formal_lists, formal_lists)
@example([0], [0])  # empty matrix: one
@example([0, 0], [0, 0, 1])  # zero leading entry of a
@example([2, 0, 0], [0, 0])  # both leading entries zero
@settings(deadline=None)
def test_kernel_takes_the_determinant_at_formal_degrees(a, b):
    # Zero leading entries are kept: the value is the determinant of the
    # Sylvester matrix of the lists' own lengths, whose zero pivots make
    # _determinant swap rows.  The empty matrix is one, as _norm takes it
    # before the kernel runs.
    rows = sylvester_rows(a, b, 0)
    got = _determinant([[UniPoly.constant(v) for v in row] for row in rows]) if rows else ONE
    assert list(got.coeffs) == l_trim([fraction_determinant(rows)])


def norm(p, m, n, c):
    """critical_norm for p given as a coefficient list and c*n = c * n."""
    p, c = UniPoly(p), F(c)
    return critical_norm(list(p._num), p._den, m, n, c.numerator * n, c.denominator)


def oracle_norm(p, m, n, c):
    """Res_v(chi, G) in the oracle ring: chi(v) = Res_x(p', v - p)/lc(p')**d
    by Fraction Bareiss, then its resultant with
    G(v, y) = m*v*(v*y - 1)**(m - 1) + c*n*y**(n - 1), as a list in y."""
    p = [F(a) for a in p]
    d = len(p) - 1
    slope = l_derivative(p)
    v_minus_p = b_add({(1, 0): F(1)}, {(0, i): -a for i, a in enumerate(p) if a})
    chi = b_resultant_y({(0, i): a for i, a in enumerate(slope) if a}, v_minus_p)
    chi = {(0, k): a / slope[-1] ** d for k, a in enumerate(chi) if a}  # v in the y slot
    g = b_add(b_mul({(0, 1): F(m)}, b_pow({(1, 1): F(1), (0, 0): F(-1)}, m - 1)),
              {(n - 1, 0): F(c) * n})  # y in the x slot, v in the y slot
    return b_resultant_y(chi, g)


def planted(a, b):
    """p with p' = (x - a)**3 * (x - b)**2 and p(0) = 1: d = 6, with a
    critical point of multiplicity 3 and one of multiplicity 2."""
    slope = l_mul(l_pow([-F(a), 1], 3), l_pow([-F(b), 1], 2))
    return [F(1)] + [c / (i + 1) for i, c in enumerate(slope)]


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def norm_inputs(draw):
    """(p, m, n, c): deg p from 1 to 6 with rational coefficients, often a
    zero constant term, 2 <= m, n <= 6 and c a nonzero rational."""
    degree = draw(st.integers(1, 6))
    p = draw(st.lists(small_rationals, min_size=degree, max_size=degree))
    p.append(draw(small_rationals.filter(bool)))
    return (p, draw(st.integers(2, 6)), draw(st.integers(2, 6)),
            draw(small_rationals.filter(bool)))


@given(norm_inputs())
@example(([F(3), F(-1, 2)], 2, 3, F(1)))  # d = 1: the empty determinant
@example((planted(1, -2), 3, 2, F(-5, 3)))  # repeated critical points, m > n
@example((planted(F(1, 2), 0), 2, 4, F(3, 2)))  # and m < n
@example(([0, 0, -1, 1], 3, 4, F(-2)))  # p = x^2*(x - 1): critical value 0
@example(([0, 0, 0, 1], 4, 2, F(1)))  # p = x^3: one double critical point
@example(([F(-11, 3), 2, F(-3, 7), 0, 0, 1], 4, 3, F(-5, 3)))  # a rational quintic
@example(([0, 1, 0, 0, 0, 0, 1], 2, 6, F(7, 2)))  # p = x^6 + x: beta is one monomial
@settings(max_examples=60, deadline=None)
def test_norm_matches_resultant_oracle(inputs):
    p, m, n, c = inputs
    assert list(norm(p, m, n, c).coeffs) == oracle_norm(p, m, n, c)


@st.composite
def split_inputs(draw):
    """p = p(0) + x**(v + 1) * q with q(0) != 0: a critical point 0 of
    multiplicity v, which critical_norm splits off before its matrix."""
    v = draw(st.integers(1, 3))
    q = draw(st.lists(small_rationals, min_size=0, max_size=2))
    q = [draw(small_rationals.filter(bool))] + q + [draw(small_rationals.filter(bool))]
    return l_trim([draw(small_rationals)] + [F(0)] * v + q[:6 - v])


@st.composite
def vanishing_critical_value_inputs(draw):
    """p = (x - r)**2 * q: the critical point r has the critical value 0,
    where G(p(r), y) is c*n*y**(n - 1)."""
    r = draw(small_rationals)
    q = draw(st.lists(small_rationals, min_size=0, max_size=3))
    q.append(draw(small_rationals.filter(bool)))
    return l_mul(l_pow([-r, F(1)], 2), q)


@st.composite
def large_inputs(draw):
    """deg p from 2 to 4 with 30-digit numerators and denominators, so that
    beta and s are large and share a content."""
    big = st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**30)
    degree = draw(st.integers(2, 4))
    p = draw(st.lists(big, min_size=degree, max_size=degree))
    p.append(draw(big.filter(bool)))
    return p


planted_inputs = st.builds(planted, small_rationals, small_rationals)


@given(st.one_of(split_inputs(), vanishing_critical_value_inputs(), large_inputs(),
                 planted_inputs),
       st.integers(2, 5), st.integers(2, 5), small_rationals.filter(bool))
@settings(max_examples=40, deadline=None)
def test_modular_resultant_y_matches_fraction_bareiss(p, m, n, c):
    # The norm that replaced the modular resultant, against Fraction Bareiss
    # on the inputs where it takes its special paths: the split-off critical
    # point 0, a critical value 0, large contents and repeated critical
    # points.
    assert list(norm(p, m, n, c).coeffs) == oracle_norm(p, m, n, c)


def test_y_free_side_skips_the_modular_kernel(monkeypatch):
    # For linear p, chi is the constant one, free of v: the norm is the
    # empty determinant, and the kernel never runs.
    def kernel(*args):
        raise AssertionError("the determinant kernel ran")

    monkeypatch.setattr(bipoly, "_determinant", kernel)
    assert norm([F(-5), F(3, 2)], 3, 2, 2) == ONE
    assert connectivity_certificate(UniPoly([-5, F(3, 2)]), 3, 2, 2).status == "connected-certified"


# -- the package's one prime table --------------------------------------------
#
# The norm draws no prime; modular._prime, for the gcd and the squarefree
# decomposition, keeps the primes below 2**30 it has found in a table that
# grows one prime per miss.

PRIME_TABLE_CASES = 44


@functools.cache
def primes_below_2_30(count):
    """The first ``count`` primes below 2**30, counting down, by trial
    division with the primes up to 2**15."""
    small = [q for q in range(2, 1 << 15) if all(q % r for r in range(2, math.isqrt(q) + 1))]
    found = []
    n = (1 << 30) - 1
    while len(found) < count:
        if all(n % q for q in small):
            found.append(n)
        n -= 2
    return found


@pytest.mark.parametrize("index", range(PRIME_TABLE_CASES))
def test_prime_choice_at_each_table_boundary(index, monkeypatch):
    # With the table cut at ``index`` entries, the next draw finds exactly
    # the next prime down, and appends it alone.
    expected = primes_below_2_30(PRIME_TABLE_CASES)
    table = expected[:index]
    monkeypatch.setattr(modular, "_PRIMES", table)
    assert modular._prime(index) == expected[index]
    assert table == expected[:index + 1]


@pytest.mark.parametrize("p, m, n, c", [
    ([1, 0, 1], 5, 5, 1),
    ([1, 1, 0, 1], 4, 3, F(-2)),
    ([F(1, 2), F(-3, 7), 2], 3, 4, F(3, 2)),
    ([F(-11, 3), 2, F(-3, 7), 0, 0, 1], 2, 3, F(-5, 3)),
])
def test_certificate_eliminants_match_integer_bareiss_route(p, m, n, c):
    # Both eliminants of the factored route against integer Bareiss
    # determinants of the full Sylvester matrices of the partials of h.
    h = h_dict(p, m, n, c)
    hx, hy = b_partial_x(h), b_partial_y(h)
    certificate = connectivity_certificate(UniPoly(p), m, n, F(c))
    for a, b, eliminant in ((hx, hy, certificate.eliminants[0]),
                            (b_swap(hx), b_swap(hy), certificate.eliminants[1])):
        assert eliminant == UniPoly(integer_route(a, b))


CIRCLE = {(2, 0): F(1), (0, 2): F(1)}  # x^2 + y^2


def eliminants(h):
    """Res_y and Res_x of the partials of the dict h, by the Fraction
    oracle."""
    hx, hy = b_partial_x(h), b_partial_y(h)
    return b_resultant_y(hx, hy), b_resultant_y(b_swap(hx), b_swap(hy))


class TestSingularLocus:
    def test_certified_example(self):
        r_x, r_y = eliminants(h_dict([0, 1], 2, 2, 1))
        assert r_x and r_y
        certificate = connectivity_certificate(UniPoly([0, 1]), 2, 2, F(1))
        assert [list(r.coeffs) for r in certificate.eliminants] == [r_x, r_y]

    def test_nonreduced_square_is_not_certified(self):
        r_x, r_y = eliminants({(2, 2): F(1)})  # (xy)^2
        assert r_x == [] and r_y == []

    def test_smooth_quadric(self):
        r_x, r_y = eliminants(CIRCLE)
        assert r_x and r_y

    def test_eliminant_roots_cover_singular_points(self):
        # The eliminants must vanish at the projections of every singular
        # point: x**2 + y**2 is singular exactly at the origin.
        r_x, r_y = eliminants(CIRCLE)
        assert l_eval(r_x, 0) == 0
        assert l_eval(r_y, 0) == 0
