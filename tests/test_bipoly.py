"""Bivariate layer: constructions, partials, elimination, irreducibility."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broughton.bipoly import (
    BiPoly,
    X,
    Y,
    _x_degree_bound,
    build_f,
    build_g,
    build_h,
    is_irreducible_y_linear,
    resultant_y,
    singular_locus_finite,
)
from broughton.unipoly import ONE, UniPoly, ZERO, gcd, resultant
from oracles import (
    b_add,
    b_mul,
    b_pow,
    b_resultant_y,
    b_swap,
    l_from_roots,
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


def random_bipoly(rng, max_x=3, max_y=3):
    coeffs = []
    for _ in range(rng.randint(1, max_y + 1)):
        coeffs.append(UniPoly(random_coeffs(rng, rng.randint(0, max_x))))
    return BiPoly(coeffs)


class TestBuilders:
    def test_build_g(self):
        assert build_g(P(0, 1)) == BiPoly((P(-1), P(0, 1)))
        assert build_g(P(0, 2, 1)) == BiPoly((P(-1), P(0, 2, 1)))
        with pytest.raises(ValueError):
            build_g(ONE)

    def test_build_f(self):
        x = P(0, 1)
        assert build_f(x, x) == BiPoly((-(x + 1), x * x))
        cube = P(0, 0, 0, 1)
        assert build_f(cube, x) == BiPoly((-(cube + 1), P(0, 0, 0, 0, 1)))
        with pytest.raises(ValueError):
            build_f(P(2), x)
        with pytest.raises(ValueError):
            build_f(x, P(2))

    def test_build_f_is_p_times_g_minus_one(self):
        rng = random.Random(111)
        for _ in range(40):
            p = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            q = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            f = build_f(p, q)
            g = build_g(q)
            assert f == p * g - 1
            assert f.total_degree > g.total_degree

    def test_build_h_expansions(self):
        x = P(0, 1)
        # (x*y - 1)**1 + 1*y**1 = x*y + y - 1
        assert build_h(x, 1, 1, F(1)) == BiPoly((P(-1), P(1, 1)))
        # (x*y - 1)**2 + y**2 via the independent bivariate oracle
        expected = b_add(
            b_pow({(1, 1): F(1), (0, 0): F(-1)}, 2), {(0, 2): F(1)}
        )
        assert build_h(x, 2, 2, F(1)) == bi_from_dict(expected)

    def test_build_h_rejects_bad_parameters(self):
        x = P(0, 1)
        with pytest.raises(ValueError):
            build_h(x, 0, 1, F(1))
        with pytest.raises(ValueError):
            build_h(x, 1, 0, F(1))
        with pytest.raises(ValueError):
            build_h(x, 1, 1, F(0))


class TestCalculus:
    def test_partials_of_example_surface(self):
        h = build_h(P(0, 1), 2, 2, F(1))
        # d/dy: 2x(xy - 1) + 2y ; d/dx: 2y(xy - 1)
        base = BiPoly((P(-1), P(0, 1)))
        assert h.partial_y() == 2 * BiPoly((P(0, 1),)) * base + 2 * Y
        assert h.partial_x() == 2 * Y * base

    def test_partials_against_oracle(self):
        rng = random.Random(222)
        for _ in range(30):
            a = random_bipoly(rng)
            d = {
                (i, j): a.coefficient(j).coefficient(i)
                for j in range(a.degree_y + 1)
                for i in range(a.coefficient(j).degree + 1)
                if a.coefficient(j).coefficient(i)
            }
            dx = {(i - 1, j): i * c for (i, j), c in d.items() if i}
            dy = {(i, j - 1): j * c for (i, j), c in d.items() if j}
            assert a.partial_x() == bi_from_dict(dx)
            assert a.partial_y() == bi_from_dict(dy)

    def test_swap_vars(self):
        rng = random.Random(333)
        for _ in range(30):
            a = random_bipoly(rng)
            assert a.swap_vars().swap_vars() == a
            s, t = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            assert a.swap_vars()(s, t) == a(t, s)


class TestResultant:
    def test_fiber_curve_against_vertical_coordinate(self):
        rng = random.Random(444)
        for _ in range(20):
            q = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            g = build_g(q)
            assert resultant_y(g, Y) == ONE

    def test_equal_arguments_vanish(self):
        a = build_f(P(0, 1), P(0, 1))
        assert resultant_y(a, a) == ZERO

    def test_elimination_example(self):
        f = build_f(P(0, 1), P(0, 1))  # x^2*y - (x + 1)
        line = Y - 1
        assert resultant_y(f, line) == -P(-1, -1, 1)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            resultant_y(BiPoly(), Y)
        with pytest.raises(ValueError):
            resultant_y(BiPoly((P(0, 1),)), BiPoly((P(1, 1),)))

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
            w = BiPoly((UniPoly(random_coeffs(rng, 1)), UniPoly(random_coeffs(rng, 1))))
            a = w * random_bipoly(rng, max_x=2, max_y=1)
            b = w * random_bipoly(rng, max_x=2, max_y=1)
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
            a = random_bipoly(rng)
            b = random_bipoly(rng)
            if a.degree_y < 1 or b.degree_y < 1:
                continue
            t = F(rng.randint(-4, 4))
            if not a.coefficient(a.degree_y)(t) or not b.coefficient(b.degree_y)(t):
                continue
            specialized = resultant(a.eval_x(t), b.eval_x(t))
            assert resultant_y(a, b)(t) == specialized
            done += 1


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


class TestIrreducibility:
    def test_examples(self):
        x = P(0, 1)
        assert is_irreducible_y_linear(build_f(x, x)) is True
        assert is_irreducible_y_linear(BiPoly((-x, x))) is False
        rng = random.Random(777)
        for _ in range(20):
            q = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            assert is_irreducible_y_linear(build_g(q)) is True

    def test_wrong_y_degree_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible_y_linear(Y ** 2)
        with pytest.raises(ValueError):
            is_irreducible_y_linear(BiPoly((P(0, 1),)))

    def test_matches_gcd_criterion(self):
        rng = random.Random(888)
        for _ in range(60):
            p = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            q = UniPoly(random_coeffs(rng, rng.randint(1, 4)))
            expected = gcd(p + 1, q).degree == 0
            assert is_irreducible_y_linear(build_f(p, q)) is expected


class TestSingularLocus:
    def test_certified_example(self):
        check = singular_locus_finite(build_h(P(0, 1), 2, 2, F(1)))
        assert check.finite is True
        r_x, r_y = check.eliminants
        assert r_x and r_y

    def test_nonreduced_square_is_not_certified(self):
        check = singular_locus_finite((X * Y) ** 2)
        assert check.finite is False

    def test_smooth_quadric(self):
        h = X ** 2 + Y ** 2
        check = singular_locus_finite(h)
        assert check.finite is True

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            singular_locus_finite(BiPoly((P(5),)))

    def test_eliminant_roots_cover_singular_points(self):
        # The eliminants must vanish at the projections of every singular
        # point: x**2 + y**2 is singular exactly at the origin.
        check = singular_locus_finite(X ** 2 + Y ** 2)
        r_x, r_y = check.eliminants
        assert r_x(0) == 0
        assert r_y(0) == 0
