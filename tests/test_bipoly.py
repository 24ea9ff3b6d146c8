"""Bivariate layer: the auxiliary surface, partials, elimination."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from broughton.bipoly import (
    BiPoly,
    _bareiss_determinant,
    _x_degree_bound,
    build_h,
    resultant_y,
)
from broughton.unipoly import ONE, UniPoly, ZERO
from oracles import (
    b_add,
    b_eval,
    b_mul,
    b_partial_x,
    b_partial_y,
    b_pow,
    b_resultant_y,
    b_swap,
    bareiss_determinant,
    l_eval,
    l_from_roots,
    l_resultant,
    random_coeffs,
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


def bi_to_dict(a):
    """Glue: the oracle {(i, j): coeff} dict of a BiPoly."""
    return {
        (i, j): value
        for j, column in enumerate(a.coeffs)
        for i, value in enumerate(column.coeffs)
        if value
    }


def random_dict(rng, max_x=3, max_y=3):
    """Oracle dict with 1..max_y+1 rows in y, each of x-degree <= max_x."""
    d = {}
    for j in range(rng.randint(1, max_y + 1)):
        for i, value in enumerate(random_coeffs(rng, rng.randint(0, max_x))):
            if value:
                d[(i, j)] = value
    return d


Y = BiPoly((0, 1))  # y


class TestBuilders:
    def test_build_h_expansions(self):
        x = P(0, 1)
        # (x*y - 1)**1 + 1*y**1 = x*y + y - 1
        assert build_h(x, 1, 1, F(1)).coeffs == (P(-1), P(1, 1))
        # (x*y - 1)**2 + y**2 via the independent bivariate oracle
        expected = b_add(
            b_pow({(1, 1): F(1), (0, 0): F(-1)}, 2), {(0, 2): F(1)}
        )
        assert build_h(x, 2, 2, F(1)).coeffs == bi_from_dict(expected).coeffs


class TestCalculus:
    def test_partials_of_example_surface(self):
        h = build_h(P(0, 1), 2, 2, F(1))
        # d/dy: 2x(xy - 1) + 2y = 2(x^2 + 1)y - 2x ; d/dx: 2y(xy - 1)
        assert h.partial_y().coeffs == (P(0, -2), P(2, 0, 2))
        assert h.partial_x().coeffs == (ZERO, P(-2), P(0, 2))

    def test_partials_against_oracle(self):
        rng = random.Random(222)
        for _ in range(30):
            d = random_dict(rng)
            a = bi_from_dict(d)
            assert bi_to_dict(a.partial_x()) == b_partial_x(d)
            assert bi_to_dict(a.partial_y()) == b_partial_y(d)

    def test_swap_vars(self):
        rng = random.Random(333)
        for _ in range(30):
            d = random_dict(rng)
            a = bi_from_dict(d)
            swapped = bi_to_dict(a.swap_vars())
            assert swapped == b_swap(d)
            assert a.swap_vars().swap_vars().coeffs == a.coeffs
            s, t = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            assert b_eval(swapped, s, t) == b_eval(d, t, s)


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
        # h = ((x^2 + 1)*y - 1)^5 + y^5.  The weighted bound needs 47 points
        # for Res_y(h_x, h_y), of degree 6, where n*deg_x a + m*deg_x b
        # needs 87; on the swapped pair both bounds are the exact 86.
        h = build_h(P(1, 0, 1), 5, 5, 1)
        hx, hy = h.partial_x(), h.partial_y()
        assert _x_degree_bound(hx, hy) == 46
        assert resultant_y(hx, hy).degree == 6
        swapped = (hx.swap_vars(), hy.swap_vars())
        assert _x_degree_bound(*swapped) == 86 == resultant_y(*swapped).degree

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
    assert _bareiss_determinant(rows) == fraction_determinant(rows)


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


CIRCLE = BiPoly((P(0, 0, 1), ZERO, ONE))  # x^2 + y^2


def eliminants(h):
    """Res_y and Res_x of the partials of h, as the certificate takes them."""
    hx, hy = h.partial_x(), h.partial_y()
    return resultant_y(hx, hy), resultant_y(hx.swap_vars(), hy.swap_vars())


class TestSingularLocus:
    def test_certified_example(self):
        r_x, r_y = eliminants(build_h(P(0, 1), 2, 2, F(1)))
        assert r_x and r_y

    def test_nonreduced_square_is_not_certified(self):
        r_x, r_y = eliminants(bi_from_dict({(2, 2): F(1)}))  # (xy)^2
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
