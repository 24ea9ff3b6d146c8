"""Report assembly and serialization for the command-line interface.

A report gathers every computed invariant of an admissible pair (p, q)
into one document.  JSON serialization is deterministic: fixed key order,
all rationals rendered as "numerator/denominator" strings in lowest terms,
and never a float, so identical inputs give byte-identical output.  Text
rendering writes the same mapping, key for key, as indented ASCII lines.

Claims the computation relies on but cannot itself check are carried in
the notes, each marked "cited, not verified".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .unipoly import _PIECE, UniPoly, X, _decimal, _make

if TYPE_CHECKING:
    from .arrangement import CharVarietyReport, FiberDivisor

SCHEMA_VERSION = "1"

_NOTES = (
    "maps: every positive-dimensional component is pulled back from the "
    "pencil of f; the candidate maps built from other monomials in f and g "
    "contribute none (cited, not verified)",
    "cohomology: on each listed component the local systems have first "
    "twisted cohomology of dimension >= 1, with equality outside finitely "
    "many local systems (cited, not verified)",
    "resonance: the resonance varieties of the complement vanish while the "
    "cup product on first cohomology is nontrivial (cited, not verified)",
    "scope: isolated (zero-dimensional) points of the characteristic "
    "variety are not computed here",
)
_NOTE_NO_COMPONENTS = (
    "no positive-dimensional components: p is not a proper power of a "
    "polynomial (power index d = 1)"
)


class ReportDocument(NamedTuple):
    """Everything the charvar command reports for one admissible pair."""

    inputs: tuple
    body: CharVarietyReport

    schema_version = SCHEMA_VERSION

    @property
    def notes(self) -> tuple:
        """The cited claims and the scope, then for d = 1 why there are
        no components."""
        if self.body.orbifold_order == 1:
            return _NOTES + (_NOTE_NO_COMPONENTS,)
        return _NOTES


def zahid_polynomials(p_exponent: int, q_factors: int):
    """The standard family: p = x**a and q = x*(x+2)*...*(x+b).

    For q_factors = 1 the second polynomial is plainly x.  Both parameters
    must be positive.
    """
    if not isinstance(p_exponent, int) or isinstance(p_exponent, bool) or p_exponent < 1:
        raise ValueError("the exponent of p must be a positive integer")
    if not isinstance(q_factors, int) or isinstance(q_factors, bool) or q_factors < 1:
        raise ValueError("the factor count of q must be a positive integer")
    rest = [1]  # (x+2)*...*(x+k), low degree first
    for k in range(2, q_factors + 1):
        rest = [k * c + d for c, d in zip(rest + [0], [0] + rest)]
    return X ** p_exponent, _make([0] + rest)


def build_report(p: UniPoly, q: UniPoly) -> ReportDocument:
    """Assemble the full document for an admissible pair."""
    # Imported here so that decompose and connectivity, which render
    # through this module, do not load the arrangement layer.
    from .arrangement import characteristic_variety

    return ReportDocument(
        inputs=(("p", str(p)), ("q", str(q))),
        body=characteristic_variety(p, q),
    )


def _rat(value: Fraction) -> str:
    n, d = value.as_integer_ratio()
    if abs(n) < _PIECE and d < _PIECE:
        return f"{n}/{d}"
    return f"{_decimal(n)}/{_decimal(d)}"


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
    d = body.orbifold_order
    return {
        "schema_version": document.schema_version,
        "inputs": dict(document.inputs),
        "hypotheses": body.hypotheses._asdict(),
        "betti": body.betti._asdict(),
        "divisor": divisor_mapping(body.divisor),
        "orbifold_order": d,
        "components": [  # body.components, written from d with one gcd each
            {"torsion": [f"{j // g}/{d // g}", "0/1"], "direction": [0, 1]}
            for j in range(1, d) for g in (math.gcd(j, d),)
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
    is a line break followed by the indent of the line ``value`` is on.

    Exact dicts and lists are told apart by ``type`` first, and a child
    of exact type str or int goes out in the same append as its separator,
    without a call of its own.  Everything else (bools, None, tuples,
    named tuples and subclasses) takes the ``isinstance`` chain that
    ``json`` itself follows.
    """
    kind = type(value)
    if kind is dict or kind is list or isinstance(value, (dict, list, tuple)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        comma = "," + inner
        if isinstance(value, dict):
            separator = "{" + inner
            for key, item in value.items():
                kind = type(item)
                if kind is str:
                    out.append(f"{separator}{quote(key)}: {quote(item)}")
                elif kind is int:
                    out.append(f"{separator}{quote(key)}: {int.__repr__(item)}")
                else:
                    out.append(f"{separator}{quote(key)}: ")
                    _write_json(item, inner, out, quote)
                separator = comma
            out.append(newline + "}")
        else:
            separator = "[" + inner
            for item in value:
                kind = type(item)
                if kind is str:
                    out.append(separator + quote(item))
                elif kind is int:
                    out.append(separator + int.__repr__(item))
                else:
                    out.append(separator)
                    _write_json(item, inner, out, quote)
                separator = comma
            out.append(newline + "]")
    elif isinstance(value, str):
        out.append(quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_text(mapping: dict) -> str:
    """The same mapping as ``render_json``, as ASCII text for a reader.

    Each scalar is a ``key: value`` line; a nested mapping goes under its
    ``key:``, two spaces in; each mapping in a list starts with ``- ``; a
    list of scalars is ``[a, b]`` if that line fits in 79 columns and
    otherwise one ``- item`` line each.  Booleans are yes/no, null is none.
    """
    out = []
    _write_text(mapping, "", out)
    return "\n".join(out)


def _write_text(value, indent, out):
    """Append the lines of the nonempty dict or list ``value`` to ``out``,
    each after ``indent``."""
    in_dict = isinstance(value, dict)
    for key, item in value.items() if in_dict else enumerate(value):
        head = f"{indent}{_inline(key)}:" if in_dict else indent + "-"
        line = _inline(item)
        if line is not None and (len(head) + 1 + len(line) <= 79 or not item
                                 or not isinstance(item, (list, tuple))):
            out.append(f"{head} {line}")
        elif isinstance(item, dict) and not in_dict:
            # The "- " of a list item takes the place of its first indent.
            start = len(out)
            _write_text(item, indent + "  ", out)
            out[start] = head + out[start][len(head):]
        else:
            out.append(head)
            _write_text(item, indent + "  ", out)


def _inline(value):
    """The one-line text of ``value``, or None for a nonempty dict and a
    list that holds one."""
    if isinstance(value, str):
        # One ASCII line: the backslash and all but printable ASCII escaped.
        plain = value.isascii() and value.isprintable() and "\\" not in value
        return value if plain else value.encode("unicode_escape").decode()
    if value is None or isinstance(value, bool):
        return {None: "none", True: "yes", False: "no"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return None if value else "{}"
    if isinstance(value, (list, tuple)):
        parts = [_inline(item) for item in value]
        return None if None in parts else f"[{', '.join(parts)}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
