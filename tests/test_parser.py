"""Expression language: grammar, precedence, errors, and roundtrips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from broughton import parser
from broughton.parser import (
    MAX_EXPONENT,
    ExponentRangeError,
    ParseError,
    UnknownVariableError,
    parse_uni,
)
from broughton.unipoly import UniPoly, X, ZERO
from oracles import rd_parse

F = Fraction

# 4096 rational monomials, 74 500 characters.
LONG_SUM = " + ".join(f"{i + 1}/{i + 2}*x^{i}" for i in range(4096))


def P(*coeffs):
    return UniPoly(coeffs)


class TestGrammar:
    def test_basic_forms(self):
        assert parse_uni("x^2 - 1") == P(-1, 0, 1)
        assert parse_uni("(x+1)*(x-1)") == P(-1, 0, 1)
        assert parse_uni("7") == UniPoly.constant(7)
        assert parse_uni("3/6") == UniPoly.constant(F(1, 2))
        assert parse_uni("0") == ZERO

    def test_whitespace_is_insignificant(self):
        assert parse_uni("  x  +   1 ") == parse_uni("x+1")
        assert parse_uni("x\t+\n1") == parse_uni("x+1")

    def test_precedence(self):
        # '^' binds tighter than unary minus, '*' tighter than '+'.
        assert parse_uni("-x^2") == -(X ** 2)
        assert parse_uni("(-x)^2") == X ** 2
        assert parse_uni("-2^2") == UniPoly.constant(-4)
        assert parse_uni("x+2*x") == P(0, 3)
        assert parse_uni("2*x^3") == P(0, 0, 0, 2)
        assert parse_uni("1/2*x") == P(0, F(1, 2))
        assert parse_uni("-1/2") == UniPoly.constant(F(-1, 2))

    def test_repeated_unary_minus(self):
        assert parse_uni("--x") == X
        assert parse_uni("x - - 1") == P(1, 1)
        assert parse_uni("-" * 101 + "x") == -X

    def test_power_tower_needs_parentheses(self):
        assert parse_uni("(x^2)^3") == X ** 6
        with pytest.raises(ParseError) as info:
            parse_uni("x^2^3")
        assert info.value.offset == 3


class TestErrors:
    def offset_of(self, text, parse=parse_uni):
        with pytest.raises(ParseError) as info:
            parse(text)
        return info.value.offset

    def test_dangling_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_uni("x^")
        assert info.value.offset == 2
        assert info.value.expected == {"nat"}

    def test_trailing_and_missing_tokens(self):
        assert self.offset_of("2x") == 1
        assert self.offset_of("x y") == 2
        assert self.offset_of("(x+1)(x-1)") == 5
        assert self.offset_of("x +") == 3
        assert self.offset_of("") == 0
        assert self.offset_of(")") == 0

    def test_expected_sets(self):
        with pytest.raises(ParseError) as info:
            parse_uni("")
        assert info.value.expected == {"nat", "name", "(", "-"}
        with pytest.raises(ParseError) as info:
            parse_uni("(x")
        assert info.value.expected == {")"}
        assert info.value.offset == 2

    def test_unexpected_character(self):
        assert self.offset_of("x$") == 1
        assert self.offset_of("x + 1.5") == 5

    def test_only_ascii_digits_are_naturals(self):
        # Superscripts and other Unicode digits are not NAT digits.
        assert self.offset_of("x^\u00b2") == 2
        assert self.offset_of("x^\u0661\u0662") == 2
        assert self.offset_of("\u0661/\u0662*x") == 0
        assert self.offset_of("1\u0662") == 1

    def test_natural_digit_limit(self):
        # 4300 digits is the default int() limit on Python 3.11 and later;
        # the parser enforces it on every version, before calling int().
        longest = "1" * 4300
        assert parse_uni(f"{longest}*x") == int(longest) * X
        assert parse_uni(f"1/{longest}") == UniPoly.constant(Fraction(1, int(longest)))
        assert self.offset_of("1" * 4301 + "*x") == 0
        assert self.offset_of("x + " + "2" * 4301) == 4
        assert self.offset_of("1/" + "7" * 4301) == 2
        with pytest.raises(ParseError, match="4301 digits exceeds the limit 4300"):
            parse_uni("x^" + "0" * 4301)

    def test_rational_literals(self):
        with pytest.raises(ParseError) as info:
            parse_uni("1/0")
        assert info.value.offset == 2
        assert self.offset_of("1/x") == 2
        # '/' only joins two naturals; it is not a general operator.
        assert self.offset_of("1/2/3") == 3
        assert self.offset_of("x/2") == 1

    def test_exponent_range(self):
        assert parse_uni(f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
        with pytest.raises(ExponentRangeError):
            parse_uni(f"x^{MAX_EXPONENT + 1}")
        with pytest.raises(ExponentRangeError):
            parse_uni("x^-2")
        # Non-literal exponents are plain syntax errors.
        with pytest.raises(ParseError):
            parse_uni("x^(2)")
        with pytest.raises(ParseError):
            parse_uni("x^x")

    def test_unknown_variables(self):
        with pytest.raises(UnknownVariableError) as info:
            parse_uni("y")
        assert info.value.offset == 0
        assert "allowed: x" in str(info.value)

    def test_error_hierarchy(self):
        for cls in (UnknownVariableError, ExponentRangeError):
            assert issubclass(cls, ParseError)
        assert issubclass(ParseError, ValueError)

    def test_message_carries_offset(self):
        with pytest.raises(ParseError) as info:
            parse_uni("2x")
        assert "(offset 1)" in str(info.value)

    def test_deep_nesting_is_rejected_not_crashed(self):
        fine = "(" * 120 + "x" + ")" * 120
        assert parse_uni(fine) == X
        too_deep = "(" * 121 + "x" + ")" * 121
        with pytest.raises(ParseError):
            parse_uni(too_deep)
        hostile = "(" * 100_000
        with pytest.raises(ParseError):
            parse_uni(hostile)


class TestPrinting:
    def test_canonical_examples(self):
        assert str(ZERO) == "0"
        assert str(P(-1, 0, 1, 1)) == "x^3 + x^2 - 1"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=30), max_size=7))
def test_uni_roundtrip(coeffs):
    poly = UniPoly(coeffs)
    assert parse_uni(str(poly)) == poly


@settings(deadline=None)
@given(st.text(max_size=8))
@example("x^\u00b2")
@example("x^\u0661\u0662")
@example("\u0661/\u0662*x")
def test_any_text_parses_or_raises_parse_error(text):
    try:
        value = parse_uni(text)
    except ParseError:
        return
    assert isinstance(value, UniPoly)


def test_fuzz_total_behavior():
    # Any input either parses to a UniPoly or raises ParseError; nothing
    # else escapes.  The one variable is x: no input with a y parses, and
    # an input that parses fails on the variable once y replaces x.
    rng = random.Random(313)
    alphabet = "xy01234567890+-*/^() .$a"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            value = parse_uni(text)
        except ParseError:
            continue
        assert isinstance(value, UniPoly)
        assert "y" not in text
        if "x" in text:
            with pytest.raises(UnknownVariableError):
                parse_uni(text.replace("x", "y"))


# -- the parser against the recursive-descent oracle ---------------------------

def outcome(parse, text):
    """The coefficient list ``parse`` gives, or the error it raises."""
    try:
        return list(parse(text))
    except ValueError as error:
        return type(error).__name__, str(error), error.offset, error.expected


def package_outcome(text):
    return outcome(lambda text: parse_uni(text).coeffs, text)


def expressions(depth):
    """Texts of the grammar: sums of at most three terms of at most two
    factors, unary minus chains, literals (unreduced, zero) and exponents
    0-6, with parentheses nested at most ``depth`` deep."""
    atom = st.one_of(
        st.just("x"),
        st.sampled_from(["0", "1", "2", "7", "2/4", "0/5", "3/6", "12/9"]),
        st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 99)),
    )
    if depth:
        atom = st.one_of(atom, expressions(depth - 1).map("({})".format))
    factor = st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "", "-", "--", "- -"]),
        atom,
        st.sampled_from([""] + [f"^{n}" for n in range(7)]),
    )
    term = st.lists(factor, min_size=1, max_size=2).map("*".join)
    rest = st.lists(st.tuples(st.sampled_from([" + ", "-", " - "]), term).map("".join),
                    max_size=2)
    return st.builds("{}{}".format, term, rest.map("".join))


@settings(max_examples=300, deadline=None)
@given(expressions(2))
@example("0")
@example("0/5*x - 2/4")
@example("x - x")
@example("(x+1)^0 - 1")
def test_grammar_texts_agree_with_the_oracle(text):
    assert package_outcome(text) == rd_parse(text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from("x0123456789+-*/^() "), st.characters()),
               max_size=12))
@example("x^\u00b2")
@example("\u0663")
@example("x\u00b2")
@example("\u00df")
@example("\u00a0x")
@example("x\u2028+1")
@example("_")
@example("1_0")
@example("2x")
@example("x^-1")
@example("x^4097")
@example("((x)")
@example("x^2^2")
@example("1/0")
@example("1" * 4301)
def test_any_text_agrees_with_the_oracle(text):
    assert package_outcome(text) == outcome(rd_parse, text)


# -- the three steps -----------------------------------------------------------

def test_errors_come_before_any_arithmetic(monkeypatch):
    # The products below would run for seconds; the error at the end of
    # the text is raised first, with no polynomial arithmetic at all.
    def refuse(*args):
        raise AssertionError("polynomial arithmetic before the parse ended")

    monkeypatch.setattr(parser, "_mul_ints", refuse)
    monkeypatch.setattr(parser, "_pow_ints", refuse)
    with pytest.raises(ParseError) as info:
        parse_uni("(x+1)^4096*(x-1)^4096+")
    assert type(info.value) is ParseError
    assert str(info.value) == "expected a number, variable, or parenthesis (offset 22)"
    with pytest.raises(UnknownVariableError) as info:
        parse_uni("(x+1)^4096*(x-1)^4096*y")
    assert info.value.offset == 22


def test_a_sum_is_combined_once(monkeypatch):
    made = []
    make = parser._make

    def counting_make(num, den=1):
        made.append(len(num))
        return make(num, den)

    monkeypatch.setattr(parser, "_make", counting_make)
    assert parse_uni(LONG_SUM) == UniPoly([F(i + 1, i + 2) for i in range(4096)])
    assert made == [4096]


def test_a_power_raises_its_base_in_lowest_terms(monkeypatch):
    # The outer sum is (2*x + 2)/2; it is raised as x + 1, so that no
    # coefficient grows past the canonical form's.
    bases = []
    pow_ints = parser._pow_ints

    def recording_pow_ints(a, n):
        bases.append(list(a))
        return pow_ints(a, n)

    monkeypatch.setattr(parser, "_pow_ints", recording_pow_ints)
    assert parse_uni("((1/2*x + 1/2) + (1/2*x + 1/2))^3") == P(1, 3, 3, 1)
    assert bases == [[1, 1]]


def test_large_round_trips():
    # str of the power is 930 KB of text.
    for poly in (parse_uni("(x-3/7)^1024"), parse_uni(LONG_SUM)):
        assert parse_uni(str(poly)) == poly
