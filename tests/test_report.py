"""Report documents: determinism, serialization shape, and notes."""

from __future__ import annotations

import json
from collections import OrderedDict
from enum import Enum, IntEnum
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from broughton.report import (
    SCHEMA_VERSION,
    ReportDocument,
    build_report,
    render_json,
    render_text,
    report_mapping,
    zahid_polynomials,
)
from broughton.unipoly import UniPoly, X
from oracles import l_mul

F = Fraction


class Pair(NamedTuple):
    first: object
    second: object


class Level(IntEnum):
    LOW = -1
    HIGH = 2 ** 70

    # "Level.LOW", as every IntEnum's str was before Python 3.11: the JSON
    # text of a member is int.__repr__, never its str.
    __str__ = Enum.__str__


class Name(str):
    pass


# Every value a document can hold: strings with quotes, control and
# non-ASCII characters, None, bools, ints of any size, and nested dicts,
# lists and tuples, empty ones included; and values of subclasses of
# those types, which the writer must not take for its exact types.
json_documents = st.dictionaries(st.text(), st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30), st.text(),
              st.sampled_from(Level), st.text().map(Name)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4).map(OrderedDict),
        st.builds(Pair, children, children),
        st.lists(st.booleans(), max_size=4),
    ),
    max_leaves=20,
))


class TestStandardFamily:
    def test_polynomial_forms(self):
        p, q = zahid_polynomials(5, 3)
        assert p == X ** 5
        assert q == X * (X + 2) * (X + 3)
        p, q = zahid_polynomials(1, 1)
        assert (p, q) == (X, X)

    @given(st.integers(1, 6), st.integers(1, 40))
    @settings(deadline=None, max_examples=40)
    def test_q_by_its_recurrence_is_the_product(self, a, b):
        product = [F(0), F(1)]
        for k in range(2, b + 1):
            product = l_mul(product, [F(k), F(1)])
        assert zahid_polynomials(a, b) == (X ** a, UniPoly(product))

    def test_rejects_bad_parameters(self):
        # bool is an int subclass, so True would otherwise stand for 1.
        for a, b in ((0, 1), (1, 0), (-2, 3), (2, -1),
                     (True, 3), (2, True), (False, 1), (1, False)):
            with pytest.raises(ValueError):
                zahid_polynomials(a, b)
        with pytest.raises(ValueError):
            zahid_polynomials(2.0, 3)


class TestDocument:
    def test_schema_and_inputs(self):
        document = build_report(*zahid_polynomials(3, 2))
        assert document.schema_version == SCHEMA_VERSION == "1"
        assert document.inputs == (("p", "x^3"), ("q", "x^2 + 2*x"))
        # The version and the notes are no fields: one is a constant and
        # the other follows from the body.
        assert ReportDocument._fields == ("inputs", "body")

    def test_notes_carry_the_unverified_claims(self):
        document = build_report(*zahid_polynomials(3, 2))
        cited = [note for note in document.notes if "(cited, not verified)" in note]
        assert len(cited) == 3
        topics = {note.split(":", 1)[0] for note in document.notes}
        assert {"maps", "cohomology", "resonance", "scope"} <= topics
        assert all("no positive-dimensional" not in note for note in document.notes)

    def test_power_index_one_adds_a_note(self):
        document = build_report(X, X)
        assert any("power index d = 1" in note for note in document.notes)
        assert document.body.components == ()


class TestJson:
    def test_key_order_is_fixed(self):
        mapping = report_mapping(build_report(*zahid_polynomials(2, 1)))
        assert list(mapping) == [
            "schema_version",
            "inputs",
            "hypotheses",
            "betti",
            "divisor",
            "orbifold_order",
            "components",
            "resonance_trivial",
            "irreducibility",
            "notes",
        ]

    def test_values_for_square_times_line(self):
        mapping = report_mapping(build_report(*zahid_polynomials(2, 1)))
        assert mapping["inputs"] == {"p": "x^2", "q": "x"}
        assert mapping["hypotheses"]["satisfied"] is True
        assert mapping["betti"] == {"b0": 1, "b1": 2, "b2": 2, "s": 1, "t": 1}
        assert mapping["divisor"]["value"] == "-1/1"
        assert mapping["divisor"]["unit"] == "1/1"
        assert mapping["divisor"]["components"] == [
            {"factor": "x", "multiplicity": 2}
        ]
        assert mapping["divisor"]["divisor_multiplicity"] == 2
        assert mapping["orbifold_order"] == 2
        assert mapping["components"] == [
            {"torsion": ["1/2", "0/1"], "direction": [0, 1]}
        ]
        assert mapping["resonance_trivial"] is True
        assert mapping["irreducibility"] == {"f": True, "g": True}

    def test_rationals_are_strings_never_floats(self):
        mapping = report_mapping(build_report(*zahid_polynomials(4, 2)))

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                assert not isinstance(node, float)

        walk(mapping)
        for component in mapping["components"]:
            for entry in component["torsion"]:
                numerator, denominator = entry.split("/")
                assert int(denominator) > 0
                assert F(int(numerator), int(denominator)) == F(entry)

    @pytest.mark.parametrize("a, b", [(1, 1), (6, 1), (5, 3), (120, 30), (360, 2)])
    def test_byte_identical_across_runs(self, a, b):
        def mapping():
            return report_mapping(build_report(*zahid_polynomials(a, b)))

        first, second = render_json(mapping()), render_json(mapping())
        assert first == second == json.dumps(mapping(), indent=2, ensure_ascii=True)
        assert first.isascii()
        assert len(json.loads(first)["components"]) == a - 1

    @given(json_documents)
    @settings(deadline=None)
    def test_writer_matches_json_dumps(self, document):
        assert render_json(document) == json.dumps(document, indent=2, ensure_ascii=True)

    def test_writer_rejects_floats(self):
        for document in ({"value": 0.5}, {"value": [1, 0.5]}, {"value": ["1/2", F(1, 2)]}):
            with pytest.raises(TypeError):
                render_json(document)

    def test_torsion_fractions_are_reduced(self):
        mapping = report_mapping(build_report(*zahid_polynomials(6, 1)))
        torsions = [c["torsion"][0] for c in mapping["components"]]
        assert torsions == ["1/6", "1/3", "1/2", "2/3", "5/6"]


class TestText:
    def test_lines_cover_every_fact(self):
        mapping = report_mapping(build_report(*zahid_polynomials(3, 2)))
        text = render_text(mapping)
        assert text.isascii()
        assert text.startswith(
            "schema_version: 1\n"
            "inputs:\n"
            "  p: x^3\n"
            "  q: x^2 + 2*x\n"
            "hypotheses:\n"
            "  common_root_pq: yes\n"
            "  no_common_root_p1_q: yes\n"
            "  satisfied: yes\n"
            "betti:\n"
            "  b0: 1\n"
            "  b1: 2\n"
            "  b2: 4\n"
            "  s: 2\n"
            "  t: 2\n"
            "divisor:\n"
            "  value: -1/1\n"
            "  unit: 1/1\n"
            "  components:\n"
            "    - factor: x\n"
            "      multiplicity: 3\n"
            "  divisor_multiplicity: 3\n"
            "orbifold_order: 3\n"
            "components:\n"
            "  - torsion: [1/3, 0/1]\n"
            "    direction: [0, 1]\n"
            "  - torsion: [2/3, 0/1]\n"
            "    direction: [0, 1]\n"
            "resonance_trivial: yes\n"
            "irreducibility:\n"
            "  f: yes\n"
            "  g: yes\n"
            "notes:\n"
            "  - maps: every positive-dimensional component"
        )
        # Each note is longer than a line, so each gets its own.
        notes = text.split("notes:\n", 1)[1].split("\n")
        assert notes == [f"  - {note}" for note in mapping["notes"]]

    def test_divisor_text_shows_unit_and_powers(self):
        text = render_text(report_mapping(build_report(F(3) * X ** 4 * (X + 1) ** 2, X)))
        assert (
            "divisor:\n"
            "  value: -1/1\n"
            "  unit: 3/1\n"
            "  components:\n"
            "    - factor: x + 1\n"
            "      multiplicity: 2\n"
            "    - factor: x\n"
            "      multiplicity: 4\n"
            "  divisor_multiplicity: 2\n"
        ) in text

    def test_layout_rules(self):
        assert render_text({
            "none": None,
            "flags": [True, False],
            "empty": [],
            "nothing": {},
            "wide": list(range(30)),
            "rows": [{"a": 1, "b": {"c": "d"}}, {}, [2, [3]]],
            "tuple": (1, "x"),
        }) == "\n".join([
            "none: none",
            "flags: [yes, no]",
            "empty: []",
            "nothing: {}",
            "wide:",
            *(f"  - {k}" for k in range(30)),
            "rows:",
            "  - a: 1",
            "    b:",
            "      c: d",
            "  - {}",
            "  - [2, [3]]",
            "tuple: [1, x]",
        ])

    def test_strings_are_escaped_to_one_ascii_line(self):
        assert render_text({"k\u00e9y": "a\nb\u03c0"}) == "k\\xe9y: a\\nb\\u03c0"

    @given(json_documents)
    @settings(deadline=None)
    def test_any_document_is_ascii(self, document):
        text = render_text(document)
        assert text.isascii()
        assert len(text.splitlines()) >= len(document)

    def test_writer_rejects_floats(self):
        with pytest.raises(TypeError):
            render_text({"value": [0.5]})
