"""Report assembly and serialization for the command-line interface.

A report gathers every computed invariant of an admissible pair (p, q)
into one document.  JSON serialization is deterministic: fixed key order,
all rationals rendered as "numerator/denominator" strings in lowest terms,
and never a float, so identical inputs give byte-identical output.  Text
rendering prints the same facts with the torsion points spelled as roots
of unity.

Claims the computation relies on but cannot itself check are carried in
the notes, each marked "cited, not verified".
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .unipoly import UniPoly, X, _decimal, _make, _mul_ints

if TYPE_CHECKING:
    from .arrangement import BettiNumbers, CharVarietyReport, FiberDivisor, Hypotheses

SCHEMA_VERSION = "1"

_NOTE_MAPS = (
    "maps: every positive-dimensional component is pulled back from the "
    "pencil of f; the candidate maps built from other monomials in f and g "
    "contribute none (cited, not verified)"
)
_NOTE_COHOMOLOGY = (
    "cohomology: on each listed component the local systems have first "
    "twisted cohomology of dimension >= 1, with equality outside finitely "
    "many local systems (cited, not verified)"
)
_NOTE_RESONANCE = (
    "resonance: the resonance varieties of the complement vanish while the "
    "cup product on first cohomology is nontrivial (cited, not verified)"
)
_NOTE_ISOLATED = (
    "scope: isolated (zero-dimensional) points of the characteristic "
    "variety are not computed here"
)
_NOTE_NO_COMPONENTS = (
    "no positive-dimensional components: p is not a proper power of a "
    "polynomial (power index d = 1)"
)


class ReportDocument(NamedTuple):
    """Everything the charvar command reports for one admissible pair."""

    schema_version: str
    inputs: tuple
    body: CharVarietyReport
    notes: tuple


def zahid_polynomials(p_exponent: int, q_factors: int):
    """The standard family: p = x**a and q = x*(x+2)*...*(x+b).

    For q_factors = 1 the second polynomial is plainly x.  Both parameters
    must be positive.
    """
    if not isinstance(p_exponent, int) or isinstance(p_exponent, bool) or p_exponent < 1:
        raise ValueError("the exponent of p must be a positive integer")
    if not isinstance(q_factors, int) or isinstance(q_factors, bool) or q_factors < 1:
        raise ValueError("the factor count of q must be a positive integer")
    q = [0, 1]
    for k in range(2, q_factors + 1):
        q = _mul_ints(q, [k, 1])
    return X ** p_exponent, _make(q)


def build_report(p: UniPoly, q: UniPoly) -> ReportDocument:
    """Assemble the full document for an admissible pair."""
    # Imported here so that decompose and connectivity, which render
    # through this module, do not load the arrangement layer.
    from .arrangement import characteristic_variety

    body = characteristic_variety(p, q)
    notes = [_NOTE_MAPS, _NOTE_COHOMOLOGY, _NOTE_RESONANCE, _NOTE_ISOLATED]
    if body.orbifold_order == 1:
        notes.append(_NOTE_NO_COMPONENTS)
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        inputs=(("p", str(p)), ("q", str(q))),
        body=body,
        notes=tuple(notes),
    )


def _rat(value: Fraction) -> str:
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def command_mapping(command: str, inputs: dict, **blocks) -> dict:
    """A command's JSON document: version, command, inputs, then blocks."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        **blocks,
    }


def divisor_mapping(divisor: FiberDivisor) -> dict:
    """The divisor block of the JSON documents."""
    return {
        "value": _rat(divisor.value),
        "unit": _rat(divisor.unit),
        "components": [
            {"factor": str(factor), "multiplicity": multiplicity}
            for factor, multiplicity in divisor.components
        ],
        "divisor_multiplicity": divisor.divisor_multiplicity,
    }


def report_mapping(document: ReportDocument) -> dict:
    """Flatten a document to JSON-ready primitives in a fixed key order."""
    body = document.body
    return {
        "schema_version": document.schema_version,
        "inputs": dict(document.inputs),
        "hypotheses": body.hypotheses._asdict(),
        "betti": body.betti._asdict(),
        "divisor": divisor_mapping(body.divisor),
        "orbifold_order": body.orbifold_order,
        "components": [
            {
                "torsion": [_rat(torus.torsion.a0), _rat(torus.torsion.a1)],
                "direction": list(torus.direction),
            }
            for torus in body.components
        ],
        "resonance_trivial": body.resonance_trivial,
        "irreducibility": {
            "f": body.irreducibility_flags[0],
            "g": body.irreducibility_flags[1],
        },
        "notes": list(document.notes),
    }


def render_json(mapping: dict) -> str:
    """Deterministic JSON text: fixed insertion order, two-space indent,
    ASCII only, the same text as ``json.dumps(mapping, indent=2,
    ensure_ascii=True)``.

    An indent sends ``json.dumps`` to the pure-Python encoder, so the
    document is written here instead, with strings escaped by the C
    escaper of the ``json`` package.
    """
    # Here, so that text output never loads json.
    from json.encoder import encode_basestring_ascii

    out = []
    _write_json(mapping, "\n", out, encode_basestring_ascii)
    return "".join(out)


def _write_json(value, newline, out, quote):
    """Append the JSON text of ``value`` to the list ``out``; ``newline``
    is a line break followed by the indent of the line ``value`` is on."""
    if isinstance(value, str):
        out.append(quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        separator = inner
        if isinstance(value, dict):
            out.append("{")
            for key, item in value.items():
                out.append(separator + quote(key) + ": ")
                _write_json(item, inner, out, quote)
                separator = "," + inner
            out.append(newline + "}")
        else:
            out.append("[")
            for item in value:
                out.append(separator)
                _write_json(item, inner, out, quote)
                separator = "," + inner
            out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_text(document: ReportDocument) -> str:
    """Human-readable rendering of the same facts."""
    body = document.body
    inputs = dict(document.inputs)
    lines = [
        f"inputs: p = {inputs['p']}, q = {inputs['q']}",
        f"hypotheses: {'; '.join(hypotheses_text(body.hypotheses))}",
        f"betti numbers: {betti_text(body.betti)}",
        f"special fiber at -1: {divisor_text(body.divisor)} "
        f"(multiplicity gcd {body.divisor.divisor_multiplicity})",
        f"orbifold group: Z/{body.orbifold_order}",
        f"characteristic variety: {len(body.components)} positive-dimensional "
        "component(s)",
    ]
    for j, torus in enumerate(body.components, start=1):
        a0 = torus.torsion.a0
        lines.append(
            f"  W_{j} = {{exp(2πi·{a0.numerator}/{a0.denominator})}} × C*  "
            f"[torsion ({_rat(a0)}, {_rat(torus.torsion.a1)}), "
            f"direction {torus.direction}]"
        )
    lines.append(f"resonance trivial: {_yes(body.resonance_trivial)}")
    lines.append(
        f"irreducible: f: {_yes(body.irreducibility_flags[0])}, "
        f"g: {_yes(body.irreducibility_flags[1])}"
    )
    lines.append("notes:")
    for note in document.notes:
        lines.append(f"  - {note}")
    return "\n".join(lines)


def hypotheses_text(hypotheses: Hypotheses) -> list:
    """The two clauses and the verdict, one phrase each."""
    return [
        f"common root of p and q: {_yes(hypotheses.common_root_pq)}",
        f"no common root of p+1 and q: {_yes(hypotheses.no_common_root_p1_q)}",
        f"admissible: {_yes(hypotheses.satisfied)}",
    ]


def betti_text(numbers: BettiNumbers) -> str:
    """The Betti numbers with s and t, as one phrase."""
    return (
        f"b0 = {numbers.b0}, b1 = {numbers.b1}, b2 = {numbers.b2} "
        f"(s = {numbers.s}, t = {numbers.t})"
    )


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def divisor_text(divisor: FiberDivisor) -> str:
    """The fiber as unit * (factor)^multiplicity * ..., a unit of one and
    exponents of one left out."""
    pieces = []
    if divisor.unit != 1:
        pieces.append(_rat(divisor.unit))
    for factor, multiplicity in divisor.components:
        text = str(factor)
        pieces.append(f"({text})^{multiplicity}" if multiplicity > 1 else f"({text})")
    return " * ".join(pieces)
