"""Command-line interface.

Exit codes: 0 on success, 1 when a polynomial or rational argument fails
to parse, 2 for a malformed command line or when a precondition is
violated (inadmissible pair, constant input, bad degree or exponent
arguments), and 141 (128 + SIGPIPE) when the reader closes standard
output early.  A connectivity certificate always certifies, so
``connectivity`` exits 0 on every accepted input.

Each command builds one mapping, which is printed as text by default or
as a deterministic JSON document with ``--format json``; ``--quiet``
silences the text (exit codes and JSON are unaffected).  The mapping is
built only when it is printed, so a quiet text run builds nothing.

argv is parsed from one table, ``COMMANDS``, with no ``argparse``: a
malformed command line prints usage and an ``error:`` line to stderr and
exits 2, and ``-h``/``--help`` prints help built from the table.

Each process loads only what its command runs.  At import this module
pulls in the parser and the univariate layer, which every command needs;
each ``cmd_*`` imports the rest after parsing its arguments, so a parse
error loads nothing more.  decompose and connectivity never load the
arrangement layer, only connectivity loads ``bipoly``, the report
commands never load ``decompose``, and ``json`` is loaded only to render
JSON.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .parser import ParseError, parse_uni

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


def _emit(args, mapping) -> None:
    """Print a command's mapping, built by the zero-argument callable
    ``mapping``, as JSON or as text; a quiet text run builds nothing."""
    if args.format == "json" or not args.quiet:
        from . import report

        render = report.render_json if args.format == "json" else report.render_text
        print(render(mapping()))


def cmd_check(args) -> int:
    p = parse_uni(args.p)
    q = parse_uni(args.q)
    from .arrangement import check_hypotheses
    from .report import command_mapping

    hypotheses = check_hypotheses(p, q)
    _emit(args, lambda: command_mapping(
        "check", {"p": str(p), "q": str(q)}, hypotheses=hypotheses._asdict()))
    return EXIT_OK if hypotheses.satisfied else EXIT_PRECONDITION


def cmd_betti(args) -> int:
    p = parse_uni(args.p)
    q = parse_uni(args.q)
    from .arrangement import betti
    from .report import command_mapping

    numbers = betti(p, q)
    _emit(args, lambda: command_mapping(
        "betti", {"p": str(p), "q": str(q)}, betti=numbers._asdict()))
    return EXIT_OK


def cmd_charvar(args) -> int:
    return _report(args, parse_uni(args.p), parse_uni(args.q))


def cmd_zahid(args) -> int:
    from .report import zahid_polynomials

    return _report(args, *zahid_polynomials(args.p_exponent, args.q_factors))


def _report(args, p, q) -> int:
    """The full report of charvar, report and zahid."""
    from .report import build_report, report_mapping

    document = build_report(p, q)
    _emit(args, lambda: report_mapping(document))
    return EXIT_OK


def cmd_divisor(args) -> int:
    p = parse_uni(args.p)
    from .arrangement import special_fiber_divisor
    from .report import command_mapping, divisor_mapping

    divisor = special_fiber_divisor(p)
    _emit(args, lambda: command_mapping(
        "divisor", {"p": str(p)}, divisor=divisor_mapping(divisor)))
    return EXIT_OK


def cmd_decompose(args) -> int:
    p = parse_uni(args.p)
    from .decompose import uni_decompose_at
    from .report import command_mapping

    result = uni_decompose_at(p, args.inner_degree)
    _emit(args, lambda: command_mapping(
        "decompose",
        {"p": str(p)},
        inner_degree=args.inner_degree,
        decomposition=None if result is None
        else {"outer": str(result.outer), "inner": str(result.inner)},
    ))
    return EXIT_OK


def cmd_connectivity(args) -> int:
    p = parse_uni(args.p)
    try:
        constant = parse_uni(args.c)
    except ParseError:
        constant = None
    if constant is None or not constant.is_constant():
        raise ParseError(f"invalid rational constant {args.c!r}", 0)
    c = constant.coefficient(0)
    from .decompose import connectivity_certificate
    from .report import _rat, command_mapping

    certificate = connectivity_certificate(p, args.m, args.n, c)
    r_x, r_y = certificate.eliminants
    _emit(args, lambda: command_mapping(
        "connectivity",
        {"p": str(p), "m": args.m, "n": args.n, "c": _rat(c)},
        certificate={
            "status": certificate.status,
            "singular_locus_finite": certificate.singular_finite,
            "eliminant_x": str(r_x),
            "eliminant_y": r_y.text("y"),
            "notes": certificate.notes,
        },
    ))
    return EXIT_OK


def _integer(text: str) -> int:
    """An optional ``-`` then ASCII digits; ``int`` would also take
    ``1_0``, other Unicode digits, spaces and a ``+``."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def _format(text: str) -> str:
    if text in ("json", "text"):
        return text
    raise ValueError(text)


# The command line: each command's handler, summary, positionals and required
# options, each a (name, type) pair whose type turns the text into the value.
# Every command also takes --format and --quiet.
_P, _Q = ("p", str), ("q", str)
COMMANDS = {
    "check": (cmd_check, "test the admissibility hypotheses on (p, q)", (_P, _Q), ()),
    "betti": (cmd_betti, "Betti numbers of the arrangement complement", (_P, _Q), ()),
    "charvar": (cmd_charvar, "full characteristic-variety report for (p, q)", (_P, _Q), ()),
    "report": (cmd_charvar, "alias of charvar", (_P, _Q), ()),
    "divisor": (cmd_divisor, "multiple-fiber divisor of the pencil at -1", (_P,), ()),
    "decompose": (cmd_decompose, "functional decomposition at a given inner degree",
                  (_P,), (("--inner-degree", _integer),)),
    "connectivity": (cmd_connectivity, "connectivity certificate for the auxiliary surface",
                     (_P,), (("--m", _integer), ("--n", _integer), ("--c", str))),
    "zahid": (cmd_zahid, "report for the standard family x^a, x*(x+2)*...*(x+b)",
              (("p_exponent", _integer), ("q_factors", _integer)), ()),
}
OPTION_HELP = {
    "--inner-degree": "degree e of the inner polynomial Q in p = H(Q)",
    "--m": "exponent m in h = (p*y - 1)^m + c*y^n",
    "--n": "exponent n in h",
    "--c": "nonzero constant c in h, in the expression grammar: -2, -3/2, (1/2)^2",
    "--format": "output format, json or text (default: text)",
    "--quiet": "suppress text output; exit codes and JSON are unaffected",
    "-h, --help": "show this help and exit",
}


class _Usage(Exception):
    """``(command, message)``: a malformed command line, or help if no message."""


def _parse(argv) -> SimpleNamespace:
    """The namespace the ``cmd_*`` functions read.  A token that begins with
    ``--`` is an option, and the token after a value-taking option is its
    value whatever it looks like (``--c -3/2``); the others are positionals."""
    command, *tokens = argv or [""]
    if command not in COMMANDS:
        help_asked = command in ("-h", "--help")
        raise _Usage(None, None if help_asked else f"unknown command {command!r}")
    func, _, positionals, required = COMMANDS[command]
    options = dict(required, **{"--format": _format})
    texts, given, tokens = {"--format": "text"}, [], iter(tokens)
    values = {"func": func, "quiet": False}
    for token in tokens:
        name, equals, text = token.partition("=")
        if token in ("-h", "--help"):
            raise _Usage(command, None)
        if name == "--quiet":
            if equals:
                raise _Usage(command, "option --quiet takes no value")
            values["quiet"] = True
        elif name in options:
            texts[name] = text if equals else next(tokens, None)
            if texts[name] is None:
                raise _Usage(command, f"option {name} needs a value")
        elif token.startswith("--"):
            raise _Usage(command, f"unknown option {name!r}")
        else:
            given.append(token)
    if len(given) > len(positionals):
        raise _Usage(command, f"unexpected argument {given[len(positionals)]!r}")
    texts.update(zip([name for name, _ in positionals], given))
    for name, kind in positionals + tuple(options.items()):
        if name not in texts:
            raise _Usage(command, f"missing argument {name}")
        try:
            values[name.lstrip("-").replace("-", "_")] = kind(texts[name])
        except ValueError:
            message = f"argument {name}: invalid value {texts[name]!r}"
            raise _Usage(command, message) from None
    return SimpleNamespace(**values)


def _usage(command=None) -> str:
    words = ["usage: broughton", "{" + ",".join(COMMANDS) + "} ..."]
    if command is not None:
        _, _, positionals, required = COMMANDS[command]
        words[1:] = [command] + [name for name, _ in positionals]
        words += [f"{name} {name.lstrip('-').replace('-', '_').upper()}"
                  for name, _ in required]
    return " ".join(words + ["[--format {json,text}] [--quiet]"])


def _help(command=None) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Exact invariants of generalized Broughton curve arrangements.",
                  "", "commands:"]
        lines += [f"  {name:<16}{entry[1]}" for name, entry in COMMANDS.items()]
        options = []
    else:
        lines.append(COMMANDS[command][1])
        options = [name for name, _ in COMMANDS[command][3]]
    lines += ["", "options:"]
    lines += [f"  {name:<16}{OPTION_HELP[name]}"
              for name in options + ["--format", "--quiet", "-h, --help"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Usage as usage:
        command, message = usage.args
        if message is None:
            print(_help(command))
            return EXIT_OK
        print(_usage(command), f"error: {message}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValueError, ZeroDivisionError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PRECONDITION


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at the null device so that the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
