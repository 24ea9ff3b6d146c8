"""Written factors: what the parser and the standard family record on a
polynomial, and the facts read off them, which must equal the facts of
the expansion alone."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from broughton import squarefree, unipoly
from broughton.arrangement import (
    HypothesesViolated,
    characteristic_variety,
    check_hypotheses,
    special_fiber_divisor,
)
from broughton.parser import parse_uni
from broughton.report import zahid_polynomials
from broughton.squarefree import squarefree_decompose
from broughton.unipoly import ONE, UniPoly, _written_factors
from oracles import l_add, l_gcd, l_mul, l_squarefree

F = Fraction
X = unipoly.X


def expand(unit, factors):
    """unit * prod f**k for recorded factors, as a UniPoly."""
    acc = UniPoly.constant(unit)
    for f, k in factors:
        acc = acc * UniPoly(f) ** k
    return acc


@pytest.mark.parametrize("text, unit, factors", [
    ("(x+1)^0*x", 1, (((0, 1), 1),)),
    ("-(x+1)^2", -1, (((1, 1), 2),)),
    ("(-(x+1))^2", 1, (((1, 1), 2),)),
    ("(2*x+2)^3*(x+1)", 8, (((1, 1), 3), ((1, 1), 1))),
    ("((x+1)^2)^3*(x^2-1)", 1, (((1, 1), 6), ((-1, 0, 1), 1))),
    ("3/5*(x - 1/2)^2*x^3", F(3, 20), (((-1, 2), 2), ((0, 1), 3))),
    ("(x^2 + x)^2*(x+1)", 1, (((0, 1), 2), ((1, 1), 2), ((1, 1), 1))),
])
def test_a_product_of_powers_records_its_factors(text, unit, factors):
    # Constants and a leading minus go to the unit, nested powers multiply
    # exponents, a zero exponent drops its factor, and a sum is one factor
    # (x apart); the coprime base merges equal factors.
    poly = parse_uni(text)
    assert poly._factors == (unit, factors)
    assert expand(unit, factors) == poly
    assert str(poly) == str(UniPoly(poly.coeffs))


@pytest.mark.parametrize("text", ["0*(x+1)^2", "(x-x)*(x+1)^3", "x^2 + 1", "-(x^2 + 1)",
                                  "x", "-x", "7", "((x+1)^2 - 1)", "6*x^3 - 4*x"])
def test_zero_and_a_sum_record_nothing(text):
    poly = parse_uni(text)
    assert not hasattr(poly, "_factors")
    if poly:  # the polynomial is then its own factor, x apart
        assert expand(*_written_factors(poly)) == poly


def test_the_standard_family_records_its_factors():
    p, q = zahid_polynomials(4, 3)
    assert p._factors == (1, (((0, 1), 4),))
    assert q._factors == (1, (((0, 1), 1), ((2, 1), 1), ((3, 1), 1)))
    assert (expand(*p._factors), expand(*q._factors)) == (p, q)
    assert zahid_polynomials(1, 1)[1]._factors == (1, (((0, 1), 1),))


def test_arithmetic_results_carry_no_factors():
    p = parse_uni("(x+1)^2*(x-1)")
    for result in (p + 0, p * 1, p ** 1 * ONE, -(-p), UniPoly(p.coeffs)):
        assert result == p
        assert not hasattr(result, "_factors")


def test_refinement_splits_written_factors_that_share_roots():
    # (x^2-1)^2 * (x+1)^3 * (x^2+2x+1): x + 1 has multiplicity 2 + 3 + 2.
    p = parse_uni("(x^2-1)^2*(x+1)^3*(x^2+2*x+1)")
    assert squarefree_decompose(p).parts == ((X - 1, 2), (X + 1, 7))
    # x(x+1) and x(x-1)(x+1) split into x, x + 1 and x - 1 against x^2 - 1.
    assert squarefree_decompose(parse_uni("(x^2-1)*(x^2+x)*(x^3-x)")).parts == (
        (X ** 2 - X, 2), (X + 1, 3))


def record_gcds(monkeypatch):
    """The (a, b) int tuple pairs of every integer gcd taken from now on:
    those of unipoly.gcd and those squarefree takes itself."""
    calls, real = [], unipoly._gcd_ints

    def recording(a, b):
        calls.append((tuple(a), tuple(b)))
        return real(a, b)

    monkeypatch.setattr(unipoly, "_gcd_ints", recording)
    monkeypatch.setattr(squarefree, "_gcd_ints", recording)
    return calls


def test_check_reads_only_the_factors_of_q(monkeypatch):
    # p is a product of 128 pairwise coprime quadratics.  The hypotheses
    # take no gcd between the factors of p, and a factor of q that is one
    # of p's needs none; x^2 + 200 takes gcd(p, q) and gcd(p + 1, q), as
    # with the expanded p.
    p = parse_uni("*".join(f"(x^2+{k})" for k in range(1, 129)))
    calls = record_gcds(monkeypatch)
    assert check_hypotheses(p, parse_uni("x^2+1")).satisfied
    assert check_hypotheses(p, p).satisfied
    assert calls == []
    assert check_hypotheses(p, parse_uni("x^2+200")) == (False, True, False)
    assert [b for _, b in calls] == [(200, 0, 1)] * 2
    # The report takes Yun's gcd(A, A') on each quadratic of p and of q,
    # and none between two of them: the screen proves each pair coprime.
    calls.clear()
    assert characteristic_variety(p, parse_uni("(x^2+1)*(x^2+7)")).betti.s == 4
    assert len(calls) == 128 + 2
    assert all(b == (0, 2) and a[1:] == (0, 1) for a, b in calls)


def test_linear_factors_take_no_gcd(monkeypatch):
    calls = record_gcds(monkeypatch)
    p = parse_uni("-3/7*(x-1)^4*(x+2/3)^2*(2*x+5)^6")
    q = parse_uni("(x-1)*(x+3)^2*x")
    assert check_hypotheses(p, q).satisfied
    report = characteristic_variety(p, q)
    assert report.betti == (1, 2, 3 + 5, 3, 5)
    assert report.divisor.divisor_multiplicity == 2
    assert characteristic_variety(*zahid_polynomials(30, 12)).orbifold_order == 30
    assert calls == []


@pytest.mark.parametrize("p_text, q_text, expected", [
    ("-4*(x-1)^2", "(2*x-1)*(x-1)", (True, False, False)),  # p(1/2) = -1
    ("-4*(x-1)^2", "(2*x-5)*(x-1)", (True, True, True)),  # p(5/2) = -9
    ("2*x^2 - 3", "x*(x-1)", (False, False, False)),  # p(1) = -1, from the sum
    ("(2*x^2 - 3)*(x-2)", "(x-2)*(3*x-3)", (True, True, True)),  # p(1) = 1
    ("(x^2-3)*(x^2-1)", "(x^2-2)*(x-1)", (True, False, False)),  # p = -1 mod x^2 - 2
])
def test_hypotheses_at_rational_roots(p_text, q_text, expected):
    p, q = parse_uni(p_text), parse_uni(q_text)
    pc, qc = list(p.coeffs), list(q.coeffs)
    common = len(l_gcd(pc, qc)) > 1
    clean = len(l_gcd(l_add(pc, [F(1)]), qc)) == 1
    assert (common, clean, common and clean) == expected
    assert check_hypotheses(p, q) == expected
    assert check_hypotheses(UniPoly(pc), UniPoly(qc)) == expected


M = (1 << 61) - 1


@pytest.mark.parametrize("p_text", [f"(x+1)*(x+{M - 1})", f"-(x+1)*(x+{M + 1})",
                                    f"(x+{M - 1})^3*(x-1)^2"])
def test_minus_one_modulo_the_prime_is_checked_exactly(p_text):
    # p(0) is -1 modulo the prime M = 2**61 - 1 that clears most roots of
    # q, but not -1: only the exact powers tell.
    p = parse_uni(p_text)
    assert p(0) != -1 and (p(0) + 1) % M == 0
    for q in (parse_uni("x"), parse_uni("x*(x-1)")):
        assert check_hypotheses(p, q).no_common_root_p1_q
    assert not check_hypotheses(parse_uni("(x+1)*(x-1)"), parse_uni("x")).no_common_root_p1_q


# -- the written and the expanded route agree ---------------------------------

ROOTS = [F(0), F(1), F(-1), F(2), F(-3, 2), F(1, 3)]


def linear_text(root, scale):
    """scale * (x - root) as text, with a sum whenever root != 0."""
    if not root:
        return "x" if scale == 1 else f"{scale}*x"
    lead = "x" if scale == 1 else f"{scale}*x"
    value = -root * scale
    sign = "+" if value > 0 else "-"
    return f"({lead} {sign} {abs(value)})"


factor_texts = st.one_of(
    st.builds(linear_text, st.sampled_from(ROOTS), st.sampled_from([1, 2, 3])),
    # Quadratics with small integer coefficients, some of them reducible
    # over the rationals and sharing roots with the linear factors.
    st.builds(lambda b, c: f"(x^2 + {b}*x + {c})", st.integers(-3, 3), st.integers(-2, 3)),
)


@st.composite
def products(draw, factors):
    """A product of powers of the drawn factor texts, with a rational unit,
    maybe negated, with some powers nested."""
    parts = []
    for text in factors:
        k = draw(st.integers(1, 4))
        if draw(st.booleans()):
            parts.append(f"({text}^{k})^{draw(st.integers(1, 3))}")
        else:
            parts.append(f"{text}^{k}")
    unit = draw(st.sampled_from(["", "3*", "-2/5*", "7/3*"]))
    text = unit + "*".join(parts)
    return f"-({text})" if draw(st.booleans()) else text


@st.composite
def pairs(draw):
    pool = draw(st.lists(factor_texts, min_size=2, max_size=6, unique=True))
    p_factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    q_factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return draw(products(p_factors)), draw(products(q_factors))


def outcome(call, *args):
    try:
        return call(*args)
    except HypothesesViolated:
        return HypothesesViolated


def facts(p, q):
    return (
        squarefree_decompose(p),
        squarefree_decompose(q),
        outcome(check_hypotheses, p, q) if not p.is_constant() and not q.is_constant() else None,
        special_fiber_divisor(p) if not p.is_constant() else None,
        outcome(characteristic_variety, p, q)
        if not p.is_constant() and not q.is_constant() else None,
    )


@settings(max_examples=120, deadline=None)
@given(pairs(), st.booleans())
def test_written_and_expanded_routes_agree(texts, modular):
    p, q = map(parse_uni, texts)
    # str(p) is a sum, or a monomial c*x^k, and carries no other factors.
    expanded = [parse_uni(str(poly)) for poly in (p, q)]
    plain = [UniPoly(poly.coeffs) for poly in (p, q)]
    with pytest.MonkeyPatch.context() as patch:
        if modular:  # no integer gcd and no screen: every gcd draws primes
            patch.setattr(unipoly, "_HEURISTIC_MAX", 0)
        written = facts(p, q)
        assert facts(*expanded) == written
        assert facts(*plain) == written
        assert facts(p, plain[1]) == written
        assert facts(plain[0], q) == written
    # Against the oracles: Yun over the rationals and Euclid's gcds.
    for poly, decomposition in zip((p, q), written):
        unit, parts = l_squarefree(poly.coeffs)
        assert decomposition.unit == unit
        assert [(list(f.coeffs), m) for f, m in decomposition.parts] == parts
    hypotheses, report = written[2], written[4]
    if hypotheses is not None:
        pc, qc = list(p.coeffs), list(q.coeffs)
        common = len(l_gcd(pc, qc)) > 1
        clean = len(l_gcd(l_add(pc, [F(1)]), qc)) == 1
        # The record is built without a check: its conjunction is tested here.
        assert hypotheses.satisfied == (hypotheses.common_root_pq and hypotheses.no_common_root_p1_q)
        assert hypotheses == (common, clean, common and clean)
        assert (report is HypothesesViolated) == (not (common and clean))
        if report is not HypothesesViolated:
            s = sum(len(f) - 1 for f, _ in l_squarefree(qc)[1])
            t = sum(len(f) - 1 for f, _ in l_squarefree(l_mul(pc, qc))[1])
            assert report.betti == (1, 2, s + t, s, t)
